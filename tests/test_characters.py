"""Characters: evaluation, moment sums against the explicit bounds, and the
combinatorial coefficients.

The moment oracle is a direct double loop over x and the window; expected
values frozen below were computed with it.
"""

import cmath
import math

import numpy as np
import pytest

from gpbound.characters import (
    CharacterIndex,
    char_value,
    character_orders,
    double_factorial_ratio,
    exception_count_bound,
    exception_count_exact_r2,
    indicator_primitive_root,
    moment_sum_exact,
    moment_sums_all,
    order_sum_table,
    principal_moment_exact,
    ramanujan_sum,
    stirling_sandwich,
    sum_over_order,
    w_factor,
    weil_bound,
)
from gpbound.errors import DomainError
from gpbound.ntcore import PrimeContext, euler_phi, primes_upto


def moment_oracle(ctx: PrimeContext, j: int, h: int, r: int) -> float:
    """Direct double loop, no sliding window."""
    p = ctx.p
    total = 0.0
    for x in range(p):
        w = 0j
        for n in range(h):
            t = (x + n) % p
            if t != 0:
                w += cmath.exp(2j * cmath.pi * j * ctx.dlog(t) / (p - 1))
        total += abs(w) ** (2 * r)
    return total


@pytest.fixture(scope="module")
def ctx13():
    return PrimeContext(13)


def test_char_value_trivia(ctx13):
    ctx7 = PrimeContext(7)
    assert char_value(CharacterIndex(ctx7, 0), 5) == 1
    assert char_value(CharacterIndex(ctx7, 3), 0) == 0
    # order-2 character at a non-residue: 6 = 3^3 mod 7, exp(3 pi i) = -1
    assert abs(char_value(CharacterIndex(ctx7, 3), 6) - (-1)) < 1e-12


def test_char_multiplicativity(ctx13):
    p = 13
    for j in [1, 3, 6]:
        chi = CharacterIndex(ctx13, j)
        for n in range(1, p):
            for m in range(1, p):
                lhs = char_value(chi, n) * char_value(chi, m)
                rhs = char_value(chi, n * m % p)
                assert abs(lhs - rhs) < 1e-10


def test_character_order_and_conjugate(ctx13):
    chi = CharacterIndex(ctx13, 6)
    assert chi.order == 2
    assert CharacterIndex(ctx13, 0).is_principal
    assert chi.conjugate().j == 6
    assert CharacterIndex(ctx13, 1).conjugate().j == 11
    orders = character_orders(13)
    assert all((13 - 1) % int(d) == 0 for d in orders)
    assert int(orders[0]) == 1


def test_sum_over_order_counts(ctx13):
    # phi(d) characters of each order; sum over all orders of chi(1) = p-1
    total = 0
    for d in ctx13.divisors_of_pm1():
        val = sum_over_order(ctx13, d, 1)
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
            assert order_sum_table(ctx, d).tolist() == exact, (p, d)


def test_indicator_both_routes():
    ctx7 = PrimeContext(7)
    assert indicator_primitive_root(ctx7, 3) == 1
    assert indicator_primitive_root(ctx7, 2) == 0
    assert indicator_primitive_root(ctx7, 1) == 0
    for p in [13, 61, 101]:
        ctx = PrimeContext(p)
        count = sum(indicator_primitive_root(ctx, n) for n in range(1, p))
        assert count == euler_phi(p - 1)


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
    for p in [13, 31]:
        ctx = PrimeContext(p)
        for j in [0, 1, (p - 1) // 2, p - 2]:
            for h in [2, 5, p + 2]:  # h > p exercises double wraparound
                for r in [1, 3]:
                    got = moment_sum_exact(CharacterIndex(ctx, j), h, r)
                    want = moment_oracle(ctx, j, h, r)
                    assert got.value == pytest.approx(want, rel=1e-9), (p, j, h, r)
                    assert abs(got.value - want) <= got.error_bound + 1e-6 * want


def test_moment_conjugation_symmetry():
    ctx = PrimeContext(61)
    for j in [1, 7, 13]:
        chi = CharacterIndex(ctx, j)
        a = moment_sum_exact(chi, 4, 2).value
        b = moment_sum_exact(chi.conjugate(), 4, 2).value
        assert a == pytest.approx(b, rel=1e-10)


def test_moment_batch_agrees_with_single(ctx13):
    # both paths share the table, the windows and the power recipe
    for h in (3, 16):
        batch = moment_sums_all(ctx13, h, (1, 2, 3, 4))
        for r in (1, 2, 3, 4):
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


def test_moment_blocked_window_across_resync():
    # p = 100003 exceeds the 2^16 resync block; the principal character has
    # a closed form, so the block-edge bookkeeping is checked exactly
    p = 100003
    ctx = PrimeContext(p)
    for h, r in ((3, 1), (5, 2)):
        res = moment_sum_exact(CharacterIndex(ctx, 0), h, r)
        assert res.value == pytest.approx(principal_moment_exact(p, h, r), rel=1e-12)


@pytest.mark.parametrize("length, h", [(70_001, 7), (70_001, 70_010), (11, 30)])
def test_window_sums_stack_matches_rows(length, h):
    # the batch path runs _window_sums on a 2-D stack; each row must equal the
    # 1-D call bit for bit, across the 2^16 resync block and when h > length
    # makes the window wrap more than once
    from gpbound.characters import _RESYNC_BLOCK, _window_sums

    rng = np.random.default_rng(7)
    stack = rng.standard_normal((3, length)) + 1j * rng.standard_normal((3, length))
    assert length > _RESYNC_BLOCK or h > length
    rows = np.stack([_window_sums(row, h) for row in stack])
    assert np.array_equal(_window_sums(stack, h), rows)


def test_char_ops_refuse_unenumerable_context():
    from gpbound.errors import UnsupportedRangeError

    ctx = PrimeContext(101, dlog_cap=50)
    with pytest.raises(UnsupportedRangeError):
        char_value(CharacterIndex(ctx, 1), 5)


# -- bounds and coefficients -----------------------------------------------------


def test_exception_count_values():
    assert exception_count_bound(2, 5, 2) == 75  # (4!/(2^2 2!)) * 25
    assert exception_count_bound(2, 5, 3) == 50  # d=0 term only: 2! * 25 / 2
    assert exception_count_exact_r2(5, "quadratic") == 65  # 3h^2-2h
    assert 65 <= 75
    assert exception_count_exact_r2(5, "higher") == 45


def test_exception_count_n2_closed_form():
    for r in range(1, 8):
        for h in (1, 3, 10):
            assert exception_count_bound(r, h, 2) == pytest.approx(
                double_factorial_ratio(r) * h**r
            )


def test_exception_count_decreasing_in_n_on_grid():
    # quoted monotonicity (r <= 9h regime): checked empirically
    for r in range(1, 10):
        for h in range(max(1, (r + 8) // 9), 8):
            values = [exception_count_bound(r, h, n) for n in range(2, 8)]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:])), (r, h)


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
