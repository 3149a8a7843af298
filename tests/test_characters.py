"""Characters: evaluation, moment sums against the explicit bounds, and the
combinatorial coefficients.

The moment oracle is a direct double loop over x and the window in 120-bit
mpmath; expected values frozen below were computed with it.
"""

import math

import mpmath
import numpy as np
import pytest

from gpbound.characters import (
    _RESYNC_BLOCK,
    _TILE,
    CharacterIndex,
    _block_dlogs,
    _column_blocks,
    _moment_sums,
    _norm_tiles,
    _reduce,
    _tile_windows,
    _workspace,
    character_orders,
    double_factorial_ratio,
    exception_count_exact_r2,
    moment_sum_exact,
    moment_sums_all,
    principal_moment_exact,
    stirling_sandwich,
    weil_bound,
)
from gpbound.enclosure import w_factor
from gpbound.errors import DomainError
from gpbound.ntcore import PrimeContext, euler_phi, is_primitive_root, primes_upto
from gpbound.sieve import e_free, fe_identity_worst_slack
from hoelder import ramanujan_sum


def moment_oracle(ctx: PrimeContext, j: int, h: int, r: int):
    """Direct double loop at 120 bits, no sliding window: an mpf whose error
    is far below any float rounding of the moment body."""
    p = ctx.p
    with mpmath.workprec(120):
        chi = [mpmath.mpc(0)] + [
            mpmath.expjpi(mpmath.mpf(2 * j * ctx.dlog(t)) / (p - 1)) for t in range(1, p)
        ]
        total = mpmath.mpf(0)
        for x in range(p):
            w = mpmath.fsum(chi[(x + n) % p] for n in range(h))
            total += abs(w) ** (2 * r)
        return total


@pytest.fixture(scope="module")
def ctx13():
    return PrimeContext(13)


def _char_rows(ctx: PrimeContext, js) -> np.ndarray:
    """chi_j(x) for x = 0..p-1, one row per j: the windows of length h = 1
    over the first block, differences of the table's prefix sum."""
    d = _block_dlogs(ctx, 0, ctx.p)
    return _tile_windows(ctx, np.array(js), 0, d, 1, _workspace(len(js) * ctx.p))


def test_char_value_trivia(ctx13):
    ctx7 = PrimeContext(7)
    chi0, chi3 = _char_rows(ctx7, [0, 3])
    assert chi0[5] == 1
    assert chi3[0] == 0
    # order-2 character at a non-residue: 6 = 3^3 mod 7, exp(3 pi i) = -1
    assert abs(chi3[6] - (-1)) < 1e-12


def test_char_multiplicativity(ctx13):
    p = 13
    rows = _char_rows(ctx13, [1, 3, 6])
    for chi in rows:
        for n in range(1, p):
            for m in range(1, p):
                assert abs(chi[n] * chi[m] - chi[n * m % p]) < 1e-10


def test_character_order_and_conjugate(ctx13):
    chi = CharacterIndex(ctx13, 6)
    assert chi.order == 2
    assert CharacterIndex(ctx13, 0).order == 1
    # chi_-j = conj(chi_j) has the order of chi_j
    assert CharacterIndex(ctx13, -1 % 12).order == CharacterIndex(ctx13, 1).order == 12
    orders = character_orders(13)
    assert all((13 - 1) % int(d) == 0 for d in orders)
    assert int(orders[0]) == 1


def test_character_index_rejects_non_integers(ctx13):
    # a float or string index would name chi_1 (or nothing) by accident
    for j in (1.5, 1.0, "3"):
        with pytest.raises(DomainError):
            CharacterIndex(ctx13, j)
    assert CharacterIndex(ctx13, np.int64(5)).order == 12


def test_sum_over_order_counts(ctx13):
    # phi(d) characters of each order; sum over all orders of chi(1) = p-1
    total = 0
    for d in ctx13.divisors_of_pm1():
        val = ramanujan_sum(d, ctx13.dlog(1), ctx13.pm1_factors.primes)
        assert val == euler_phi(d)
        total += val
    assert total == 12


def test_ramanujan_sum_matches_character_enumeration():
    # Independent route: sum exp(2 pi i j k/(p-1)) over the characters of
    # exact order d, j = m (p-1)/d with gcd(m, d) = 1, against Hölder's formula.
    for p in primes_upto(300)[1:]:
        ctx = PrimeContext(p)
        primes = ctx.pm1_factors.primes
        k = np.arange(p - 1)
        for d in ctx.divisors_of_pm1():
            js = np.array([m * (p - 1) // d for m in range(d) if math.gcd(m, d) == 1])
            assert len(js) == euler_phi(d)
            explicit = np.exp(2j * np.pi * np.outer(js, k) / (p - 1)).sum(axis=0)
            exact = [ramanujan_sum(d, int(kk), primes) for kk in k]
            assert np.abs(explicit - exact).max() < 1e-9, (p, d)


def test_indicator_both_routes():
    # the primitive-root indicator is e_free at e = p-1: the order test
    # counts phi(p-1) roots, and the character identity holds at every n
    ctx7 = PrimeContext(7)
    assert [is_primitive_root(n, 7) for n in (3, 2, 1)] == [True, False, False]
    for p in [13, 61, 101]:
        ctx = PrimeContext(p)
        count = sum(is_primitive_root(n, p) for n in range(1, p))
        assert count == euler_phi(p - 1)
        assert sum(e_free(ctx, p - 1, n) for n in range(1, p)) == count
        assert fe_identity_worst_slack(ctx, p - 1) == 0


# -- moment sums ---------------------------------------------------------------


def test_moment_h1_is_p_minus_1(ctx13):
    for j in [0, 1, 5]:
        res = moment_sum_exact(CharacterIndex(ctx13, j), 1, 1)
        assert res.value == pytest.approx(12, abs=1e-9)


def test_moment_frozen_values(ctx13):
    # quadratic character j=6 (g=2): direct double-loop oracle gives 82.0
    res = moment_sum_exact(CharacterIndex(ctx13, 6), 2, 2)
    assert res.value == pytest.approx(82.0, abs=1e-8)
    assert res.value <= weil_bound(13, 2, 2, "quadratic")  # 104 + 16 sqrt(13)
    # principal character, h=2, r=1: closed form (p-h)h^2 + h(h-1)^2 = 46
    res0 = moment_sum_exact(CharacterIndex(ctx13, 0), 2, 1)
    assert res0.value == pytest.approx(46.0, abs=1e-9)
    assert principal_moment_exact(13, 2, 1) == 46


def test_moment_matches_direct_oracle():
    # every j at p = 3, 5, 7 with h = 1, 2, p and 2p+3 (windows that wrap
    # more than once), then spot indices at p = 13, 31
    cases = [(p, range(p - 1), (1, 2, p, 2 * p + 3)) for p in (3, 5, 7)]
    cases += [(p, (0, 1, (p - 1) // 2, p - 2), (2, 5, p + 2)) for p in (13, 31)]
    for p, js, hs in cases:
        ctx = PrimeContext(p)
        for j in js:
            for h in hs:
                for r in [1, 3]:
                    got = moment_sum_exact(CharacterIndex(ctx, j), h, r)
                    exact = moment_oracle(ctx, j, h, r)
                    assert got.value == pytest.approx(float(exact), rel=1e-9), (p, j, h, r)
                    assert abs(got.value - exact) <= got.error_bound, (p, j, h, r)


def real_moment_oracle(p: int, j: int, h: int, r_values) -> dict[int, int]:
    """S(p,h,r) of the principal (j = 0) or the quadratic (j = (p-1)/2)
    character in Python ints: chi by Euler's criterion, the window slid
    over x = 0..p-1 one residue at a time."""
    chi = [0] + [1 if j == 0 or pow(t, (p - 1) // 2, p) == 1 else -1 for t in range(1, p)]
    w = sum(chi[n % p] for n in range(h))
    windows = []
    for x in range(p):
        windows.append(w)
        w += chi[(x + h) % p] - chi[x % p]
    return {r: sum(v ** (2 * r) for v in windows) for r in r_values}


def test_real_moments_match_integer_oracle():
    # the principal and the quadratic character run in integers: every value
    # is the exact sum rounded once, in the single and the batch path, for
    # windows that wrap more than once (h = 2p+3) and at h = 130, where
    # |W| passes int8 (the principal character at p = 61 and 131)
    cases = [(p, (1, 2, p, 2 * p + 3)) for p in (3, 5, 7, 13, 61)]
    cases += [(61, (130,)), (131, (130,))]
    for p, hs in cases:
        ctx = PrimeContext(p)
        for h in hs:
            batch = moment_sums_all(ctx, h, (1, 2, 3, 4))
            for j in (0, (p - 1) // 2):
                exact = real_moment_oracle(p, j, h, (1, 2, 3, 4))
                for r in (1, 2, 3, 4):
                    single = moment_sum_exact(CharacterIndex(ctx, j), h, r).value
                    assert single == float(exact[r]) == batch[r][j], (p, j, h, r)


@pytest.mark.parametrize("h, r", [(64, 4), (128, 5)])
def test_real_moments_exact_past_2_53(h, r):
    # p h^(2r) >= 2^53, where a float reduction can round: the single value
    # is the oracle's rounded once, and the batch rows of both real
    # characters equal it bit for bit.  At h = 128, r = 5 the float body
    # rounds the quadratic character's sum, so this is the size that tells
    # the quadratic character's integer path from the float one
    p = 131101
    m = (p - 1) // 2
    ctx = PrimeContext(p)
    assert p * h ** (2 * r) >= 2**53
    batch = _moment_sums(ctx, np.array([0, 1, m]), h, (r,))[r]
    for k, j in ((0, 0), (2, m)):
        single = moment_sum_exact(CharacterIndex(ctx, j), h, r).value
        assert single == float(real_moment_oracle(p, j, h, (r,))[r]) == batch[k], (j, h, r)
    # the float pass on the quadratic row: the norm tiles and their reduction
    blocks = _column_blocks(p, h)
    work = _workspace(max(n for _, n in blocks))
    tiles = _norm_tiles(ctx, np.array([m]), h, blocks, work)
    floats = _reduce(tiles, 1, len(blocks), (r,), work[2].view(float))
    assert (floats[r][0] != single) == (h == 128), (h, r)


def test_moment_slot_holds_only_r_values():
    # the context's slot keeps ((folded j, h), {r: moment}) for r = 1..4,
    # or 1..r past 4, and nothing of the window pass: no norms, no
    # histogram, for a complex and a real character alike; p - 2 is the
    # conjugate of 1, whose slot already holds r = 5
    p, h = 131101, 16
    ctx = PrimeContext(p)
    for j, r, top in ((1, 2, 4), (1, 5, 5), (p - 2, 2, 5), (2, 2, 4),
                      ((p - 1) // 2, 5, 5), (0, 2, 4)):
        value = moment_sum_exact(CharacterIndex(ctx, j), h, r).value
        key, moments = ctx._moments
        assert key == (min(j, p - 1 - j), h), (j, r)
        assert sorted(moments) == list(range(1, top + 1)), (j, r)
        assert all(type(v) is float for v in moments.values()), (j, r)
        assert moments[r] == value, (j, r)


def test_window_sums_reflect():
    # W(c - x) = chi(-1) W(x) with c = 1 - h, the symmetry that lets the
    # moment body visit half of F_p; chi_j(-1) = (-1)^j at p = 61
    p, h = 61, 5
    ctx = PrimeContext(p)
    d = _block_dlogs(ctx, 0, p + h - 1)
    x = np.arange(p)
    for j in (4, 7):
        w = _tile_windows(ctx, np.array([j]), 0, d, h, _workspace(len(d)))[0]
        assert np.abs(w[(1 - h - x) % p] - (-1) ** j * w).max() < 1e-13, j


def test_moment_conjugation_symmetry():
    # W_{chi_-j} = conj(W_{chi_j}), so the body computes each pair once
    ctx = PrimeContext(61)
    for j in [1, 7, 13]:
        a = moment_sum_exact(CharacterIndex(ctx, j), 4, 2).value
        b = moment_sum_exact(CharacterIndex(ctx, -j % 60), 4, 2).value
        assert a == b


def _conjugate_order(p: int) -> np.ndarray:
    """the index of chi_-j at position j"""
    return (-np.arange(p - 1)) % (p - 1)


def test_moment_batch_agrees_with_single(ctx13):
    # both paths share the table, the windows and the power recipe, and
    # compute each conjugate pair once
    for h in (3, 16):
        batch = moment_sums_all(ctx13, h, (1, 2, 3, 4))
        for r in (1, 2, 3, 4):
            assert np.array_equal(batch[r], batch[r][_conjugate_order(13)]), (h, r)
            for j in range(12):
                single = moment_sum_exact(CharacterIndex(ctx13, j), h, r)
                assert batch[r][j] == single.value, (h, r, j)


def test_orthogonality_identity_exact():
    # sum over ALL characters of S_chi(p,h,1) = h (p-1)^2 for h <= p
    for p in primes_upto(100):
        if p < 5:
            continue
        ctx = PrimeContext(p)
        for h in (2, 3):
            sums = moment_sums_all(ctx, h, (1,))[1]
            total = float(sums.sum())
            assert total == pytest.approx(h * (p - 1) ** 2, rel=1e-9), (p, h)


def test_moment_rejects_bad_args(ctx13):
    with pytest.raises(DomainError):
        moment_sum_exact(CharacterIndex(ctx13, 1), 0, 1)
    with pytest.raises(DomainError):
        moment_sum_exact(CharacterIndex(ctx13, 1), 2, 0)
    for h, r_values in ((0, (1,)), (2, (0,)), (2, ())):
        with pytest.raises(DomainError):
            moment_sums_all(ctx13, h, r_values)


def test_moment_sum_exact_rejects_non_integers(ctx13):
    # checked before the memo is read: a hit on (1, 2) holds r = 1..4 only
    chi = CharacterIndex(ctx13, 1)
    moment_sum_exact(chi, 2, 2)
    for h, r in ((2.0, 2), (2, 2.0), (2, 2.5), ("2", 2), (2, 0), (2, -1)):
        with pytest.raises(DomainError):
            moment_sum_exact(chi, h, r)


def test_moment_sums_all_rejects_non_integers(ctx13):
    for h, r_values in ((2.0, (2,)), (2, (2.5,)), (2, (1, 2.0)), (2, 2)):
        with pytest.raises(DomainError):
            moment_sums_all(ctx13, h, r_values)


def test_moment_blocked_window_across_resync():
    # the body visits the (p+1)/2 columns from the fixed point x0 on, so
    # p = 131101 spans two 2^16 resync blocks; h = 3 puts x0 at p-1, so the
    # first block wraps at once.  The principal character has a closed form
    # in small integers, which the body sums exactly
    p = 131101
    ctx = PrimeContext(p)
    assert (p + 1) // 2 > _RESYNC_BLOCK
    for h, r in ((3, 1), (3, 2), (5, 2)):
        res = moment_sum_exact(CharacterIndex(ctx, 0), h, r)
        assert res.value == principal_moment_exact(p, h, r), (h, r)


@pytest.mark.parametrize("p, h", [(70_001, 7), (70_001, 70_010), (11, 30)])
def test_window_sums_stack_matches_rows(p, h):
    # the batch path runs the tile windows on a stack of characters; each row
    # must equal its one-row tile bit for bit, in every block past the 2^16
    # resync block and when h > p makes the window wrap more than once.  The
    # windows live in the workspace, so each call gets its own.
    ctx = PrimeContext(p)
    js = np.array([1, 5, p - 2])
    assert p > _RESYNC_BLOCK or h > p
    for start in range(0, p, _RESYNC_BLOCK):
        d = _block_dlogs(ctx, start, min(_RESYNC_BLOCK, p - start) + h - 1)
        stack = _tile_windows(ctx, js, start, d, h, _workspace(len(js) * len(d)))
        rows = np.concatenate([_tile_windows(ctx, js[i : i + 1], start, d, h, _workspace(len(d)))
                               for i in range(len(js))])
        assert stack.shape == (len(js), min(_RESYNC_BLOCK, p - start))
        assert np.array_equal(stack, rows)


def test_moment_row_batch_across_blocks_matches_single():
    # p = 131101 spans two x blocks of its (p+1)/2 columns, also at h = 3,
    # whose first block starts at x0 = p-1; a batch of indices, two
    # conjugate pairs among them, equals the single path
    p = 131101
    ctx = PrimeContext(p)
    js = np.array([0, 1, p - 2, 5, p - 6, (p - 1) // 2])
    for h in (3, 16):
        batch = _moment_sums(ctx, js, h, (2, 3))
        for r in (2, 3):
            assert batch[r][1] == batch[r][2] and batch[r][3] == batch[r][4], (h, r)
            for k, j in enumerate(js):
                single = moment_sum_exact(CharacterIndex(ctx, int(j)), h, r).value
                assert batch[r][k] == single, (h, r, j)


def test_moment_batch_over_row_tiles_matches_single():
    # at p = 2003, h = 16 a row holds the 1002 columns of half of F_p plus 15
    # of wrap, so a tile has _TILE // 1017 = 16 rows, and the batch's 1002
    # folded rows run as 62 full tiles and a last tile of rows 992..1001;
    # j = 15, 16 straddle the first tile boundary, 991 ends the last full
    # tile, 992 opens the short one and 1002 folds to row 1000
    p = 2003
    ctx = PrimeContext(p)
    n = (p + 1) // 2 + 15
    assert _TILE // n == 16 and (p + 1) // 2 % 16 == 10
    batch = moment_sums_all(ctx, 16, (1, 2, 3, 4))
    for r in (1, 2, 3, 4):
        assert np.array_equal(batch[r], batch[r][_conjugate_order(p)]), r
    for j in (0, 1, 15, 16, 17, 991, 992, 1000, 1001, 1002, 1500, 2001):
        for r in (1, 2, 3, 4):
            assert batch[r][j] == moment_sum_exact(CharacterIndex(ctx, j), 16, r).value, (r, j)


def test_moment_batch_of_one_row_tiles_matches_single():
    # at p = 32771, h = 8 one row of (p+1)/2 + 7 = 16393 entries is longer
    # than a tile, so a batch runs each row alone in the same workspace
    p = 32771
    ctx = PrimeContext(p)
    assert (p + 1) // 2 + 7 > _TILE
    js = np.array([0, 1, 2, p - 3, (p - 1) // 2, p - 2])
    batch = _moment_sums(ctx, js, 8, (1, 2, 3, 4))
    for r in (1, 2, 3, 4):
        for k, j in enumerate(js):
            assert batch[r][k] == moment_sum_exact(CharacterIndex(ctx, int(j)), 8, r).value, (r, j)


def _row_major_norm_tiles(ctx: PrimeContext, rows: np.ndarray, h: int, blocks, work):
    """The norm pass as it was before the tiles went x-major, kept as the
    reference: (rows, columns) tiles, int64 index products, one prefix sum
    along each row and |W|^2 copied contiguous.  It allocates freely; only
    its arithmetic matters."""
    p = ctx.p
    for b, (start, n) in enumerate(blocks):
        d = _block_dlogs(ctx, start, n).astype(np.int64)
        chunk = max(1, _TILE // n)
        for lo in range(0, len(rows), chunk):
            idx = np.multiply.outer(rows[lo : lo + chunk].astype(np.int64), d) % (p - 1)
            vals = ctx.root_powers().take(idx)
            vals[:, (-start) % p :: p] = 0.0
            np.cumsum(vals, axis=-1, out=vals)
            w = np.empty((len(idx), n - h + 1), complex)
            w[:, 0] = vals[:, h - 1]
            np.subtract(vals[:, h:], vals[:, : n - h], out=w[:, 1:])
            yield b, lo, np.ascontiguousarray((w * np.conj(w)).real)


def _row_major_sums(ctx: PrimeContext, js, h: int, r_values) -> dict:
    with pytest.MonkeyPatch.context() as m:
        m.setattr("gpbound.characters._norm_tiles", _row_major_norm_tiles)
        return _moment_sums(ctx, js, h, r_values)


def test_moment_batch_matches_row_major_tiles():
    # the x-major tiles equal the row-major ones bit for bit: every prime
    # below 500 at h = 2..8, r = 1..4
    for p in primes_upto(500)[1:]:
        ctx = PrimeContext(p)
        js = np.arange(p - 1)
        for h in range(2, 9):
            got = moment_sums_all(ctx, h, (1, 2, 3, 4))
            want = _row_major_sums(ctx, js, h, (1, 2, 3, 4))
            for r in (1, 2, 3, 4):
                assert np.array_equal(got[r], want[r]), (p, h, r)


@pytest.mark.parametrize("p, h, js", [
    (2003, 16, None),  # 62 full tiles of 16 rows and a short one
    (32771, 8, [0, 1, 2, 16384, 16385, 32769]),  # one-row tiles
    (65537, 8, [32767, 1, 7]),  # the last int32 prime: (p-1)/2 (p-2) < 2^31
    (65539, 8, [32768, 1, 7]),  # the first past it: 32768 * 65537 passes 2^31
])
def test_moment_index_products_match_row_major_tiles(p, h, js):
    ctx = PrimeContext(p)
    js = np.arange(p - 1) if js is None else np.array(js)
    got, want = _moment_sums(ctx, js, h, (2, 3)), _row_major_sums(ctx, js, h, (2, 3))
    for r in (2, 3):
        assert np.array_equal(got[r], want[r]), (p, r)


def test_moment_batch_memory_is_one_tile():
    # the batch allocates one workspace per call, sized for one tile of at
    # most _TILE entries (16 rows of the 1000 columns of half of F_p plus 7
    # of wrap at p = 1999, h = 8): 0.74 MiB, not p^2.  No step allocates a
    # tile-sized temporary: the slack covers the call's p-length index and
    # result arrays (about 180 KiB on numpy 2.4), where a broadcast index
    # product once added 128 KiB
    import tracemalloc

    p, h = 1999, 8
    ctx = PrimeContext(p)
    ctx.dlog_array(), ctx.root_powers()
    n = (p + 1) // 2 + h - 1
    workspace = _TILE // n * n * sum(b.itemsize for b in _workspace(1))
    tracemalloc.start()
    try:
        moment_sums_all(ctx, h, (1, 2, 3, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= workspace + 2**18, (peak - workspace) / 2**10


@pytest.mark.parametrize("p", [131101, 960961])
def test_moment_memo_matches_fresh_context(p):
    # one context keeps the moments of the last (folded j, h); later calls
    # at another r, on the conjugate character, past r = 4 and after a
    # change of j equal the values of a fresh context bit for bit
    ctx = PrimeContext(p)
    calls = [(1, 2), (p - 2, 3), (1, 1), (p - 2, 4), (1, 5), (p - 2, 2),
             ((p - 1) // 2, 2), ((p - 1) // 2, 3), ((p - 1) // 2, 5), (1, 4)]
    for j, r in calls:
        got = moment_sum_exact(CharacterIndex(ctx, j), 16, r).value
        fresh = moment_sum_exact(CharacterIndex(PrimeContext(p), j), 16, r).value
        assert got == fresh, (j, r)


def test_moment_memo_skips_window_pass(monkeypatch):
    # a call at another of r = 1..4, or on the conjugate, makes no windows;
    # r = 5, a change of h or of j runs the row again (p = 61 has one
    # column block)
    windows = []

    def counted(*args):
        windows.append(args[1])
        return _tile_windows(*args)

    monkeypatch.setattr("gpbound.characters._tile_windows", counted)
    ctx = PrimeContext(61)
    chi = CharacterIndex(ctx, 7)
    moment_sum_exact(chi, 4, 2)
    assert len(windows) == 1
    for r in (1, 2, 3, 4):
        moment_sum_exact(chi, 4, r)
    moment_sum_exact(CharacterIndex(ctx, -7 % 60), 4, 1)
    assert len(windows) == 1
    moment_sum_exact(chi, 4, 5)
    assert len(windows) == 2
    moment_sum_exact(chi, 5, 3)
    assert len(windows) == 3
    moment_sum_exact(CharacterIndex(ctx, 8), 5, 3)
    assert len(windows) == 4


def test_moment_memo_memory_is_one_workspace():
    # j = 1, 2 and then the quadratic character (p-1)/2, r = 2 then 3,
    # h = 16.  The slot keeps four floats, not the (p+1)/2 float norms
    # (3.7 MiB), so the peak is one workspace for a row of 2^16 + 15
    # columns (3.0 MiB) plus a block's wrapped dlogs; the quadratic
    # character's integer pass allocates no workspace
    import tracemalloc

    p = 960961
    ctx = PrimeContext(p)
    ctx.dlog_array(), ctx.root_powers()
    workspace = (_RESYNC_BLOCK + 15) * sum(b.itemsize for b in _workspace(1))
    tracemalloc.start()
    try:
        for j in (1, 2, (p - 1) // 2):
            for r in (2, 3):
                moment_sum_exact(CharacterIndex(ctx, j), 16, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= workspace + 2**19, peak / 2**20


def test_char_ops_refuse_unenumerable_context():
    from gpbound.errors import UnsupportedRangeError

    ctx = PrimeContext(10000019)  # the first prime past PrimeContext.DLOG_CAP
    with pytest.raises(UnsupportedRangeError):
        moment_sum_exact(CharacterIndex(ctx, 1), 2, 1)


# -- bounds and coefficients -----------------------------------------------------


def test_exception_count_values():
    assert exception_count_exact_r2(5, "quadratic") == 65  # 3h^2-2h
    assert exception_count_exact_r2(5, "higher") == 45
    # both below the general pairing count (4!/(2^2 2!)) h^2 = 75
    assert 65 <= double_factorial_ratio(2) * 5**2 == 75


def test_weil_bound_values():
    assert weil_bound(13, 2, 2, "quadratic") == pytest.approx(
        8 * 13 + 2 * 8 * math.sqrt(13)
    )
    # (2h^2-h)p + 3(h^4-2h^2+h)sqrt(p) at h=2: 6*13 + 30 sqrt(13)
    assert weil_bound(13, 2, 2, "higher") == pytest.approx(78 + 30 * math.sqrt(13))
    # general formula at r=1,h=1: p + sqrt(p); exact sum is p-1
    assert weil_bound(13, 1, 1) == pytest.approx(13 + math.sqrt(13))


def test_w_factor_branches():
    # p^(5/8)-threshold regime: h = ceil(2 p^(1/4)) makes sqrt(p)/h^2 <= 1/4
    p = 10**20
    h = math.ceil(2 * p**0.25)
    assert w_factor(p, h, 2) <= 15 / 4 + 1e-12
    # large h limit of the r=2 branch is 3
    assert w_factor(13, 10**9, 2) == pytest.approx(3.0, abs=1e-6)
    # recipe regime for r=3 stays below r(2r-1)/(r-1) = 7.5
    p = 10**15
    r = 3
    h = math.ceil((2 * r / math.e) * (2 * p) ** (1 / (2 * r)) * (2 / 5) ** (1 / 3))
    assert w_factor(p, h, r) <= r * (2 * r - 1) / (r - 1) + 1e-9


def test_w_factor_dominates_exact_scaled_moment():
    ctx = PrimeContext(101)
    for j in [1, 3, 50]:
        for h in (3, 5):
            for r in (1, 2, 3):
                s = moment_sum_exact(CharacterIndex(ctx, j), h, r).value
                assert s <= w_factor(101, h, r) * math.sqrt(101) * h ** (2 * r) * (
                    1 + 1e-9
                )


def test_stirling_sandwich():
    lo, mid, up = stirling_sandwich(1)
    assert (lo, mid, up) == pytest.approx((2 / math.e, 1.0, math.sqrt(2) * 2 / math.e))
    lo, mid, up = stirling_sandwich(2)
    assert mid == pytest.approx(3.0)
    assert lo == pytest.approx((4 / math.e) ** 2)
    for r in range(1, 1001):
        lo, mid, up = stirling_sandwich(r)  # raises on log-space ordering failure
        if math.isfinite(up):
            assert lo < mid < up
