"""Dirichlet characters mod p and their moment sums.

A character is indexed by an exponent j in [0, p-2] relative to the fixed
primitive root g of the context: chi_j(g^k) = exp(2 pi i j k / (p-1)),
chi_j(0) = 0.  The central object is the 2r-th moment of length-h window
sums over F_p, together with the explicit upper bounds it must satisfy.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .ntcore import PrimeContext

_EPS = np.finfo(float).eps
_RESYNC_BLOCK = 1 << 16  # prefix sums restart every block to contain drift
_TILE = 1 << 14  # entries of one row tile, so its buffers stay in cache


@dataclass(frozen=True)
class CharacterIndex:
    """A character mod p identified by its exponent index j."""

    ctx: PrimeContext
    j: int

    def __post_init__(self):
        try:
            operator.index(self.j)
        except TypeError:
            raise DomainError(f"character index must be an integer, got {self.j!r}") from None
        if not 0 <= self.j <= self.ctx.p - 2:
            raise DomainError(f"character index must lie in [0, {self.ctx.p - 2}]")

    @property
    def order(self) -> int:
        pm1 = self.ctx.p - 1
        return pm1 // math.gcd(self.j, pm1)

    @property
    def is_principal(self) -> bool:
        return self.j == 0

    def conjugate(self) -> "CharacterIndex":
        return CharacterIndex(self.ctx, (-self.j) % (self.ctx.p - 1))


@dataclass(frozen=True)
class MomentSumResult:
    """Exact moment sum up to floating error, with a conservative error bound."""

    value: float
    error_bound: float
    p: int
    h: int
    r: int


def character_orders(p: int) -> np.ndarray:
    """order of chi_j for every j in [0, p-2]."""
    j = np.arange(p - 1)
    return (p - 1) // np.gcd(j, p - 1)


def _block_dlogs(ctx: PrimeContext, start: int, n: int) -> np.ndarray:
    """dlog(x mod p) for x = start..start+n-1, wrapping past p as often as
    n needs; the entry at each multiple of p is a placeholder."""
    dlog = ctx.dlog_array()
    if start + n <= ctx.p:
        return dlog[start : start + n]
    return dlog.take(np.arange(start, start + n), mode="wrap")


def _index_dtype(p: int):
    """int32 where every folded index product j d fits it, int64 above.
    A folded j is at most (p-1)/2 and a dlog at most p-2, and
    (p-1)/2 (p-2) < 2^31 holds for every p <= 65537."""
    return np.int32 if (p - 1) // 2 * (p - 2) < 2**31 else np.int64


def _workspace(size: int) -> tuple[np.ndarray, ...]:
    """Flat buffers for tiles of up to `size` entries: the table indices
    (int64, viewed as _index_dtype), the complex table (reused for
    conj(W)), the complex windows (reused for the int64 take indices of an
    int32 tile, then for the float powers) and the float norms (viewed as
    _index_dtype for the index quotients first).  _tile_windows lays each
    tile out x-major, (columns, rows) with the rows contiguous; the norm
    pass copies the norms back row by row."""
    return tuple(np.empty(size, dtype) for dtype in (np.int64, complex, complex, float))


def _shaped(buf: np.ndarray, k: int, n: int) -> np.ndarray:
    """the first k * n entries of a flat buffer as a (k, n) array"""
    return buf[: k * n].reshape(k, n)


def _tile_windows(
    ctx: PrimeContext, j: np.ndarray, start: int, d: np.ndarray, h: int, work
) -> np.ndarray:
    """W(x) = sum_{n=0}^{h-1} chi_j(x+n) for the first len(d) - h + 1
    columns x = start.., whose dlogs begin d, one row per folded index in j
    (j <= (p-1)/2, see _index_dtype), by one prefix sum; chi_j(0) = 0 at
    every multiple of p.  Written into the buffers of a _workspace; the
    windows are returned as (rows, columns), a transposed view.

    The tile is stored x-major, (columns, rows), so each step runs on
    whole contiguous blocks of all rows at once.  Each row's prefix sum
    still runs down its columns one add at a time, and each window is the
    same difference of two prefix sums, so every row equals its one-row
    tile, and the row-major tile it replaced, bit for bit.  The index
    products j d mod p-1 are exact in either dtype.

    The moment body passes tiles of at most one _RESYNC_BLOCK of x, so the
    accumulation restarts every block and rounding drift stays bounded by
    the block length, not by p.
    """
    p = ctx.p
    k, n = len(j), len(d)
    nb = n - h + 1
    dtype = _index_dtype(p)
    idx, quot = (_shaped(buf.view(dtype), n, k) for buf in (work[0], work[3]))
    vals, w = _shaped(work[1], n, k), _shaped(work[2], nb, k)
    np.copyto(idx, d[:, None])
    # d times j: numpy buffers a broadcast row of j in a product (32 KiB at
    # p = 1999) but not in a copy, so a tile of rows fills j in full; one
    # row's j is a single value, which needs no buffer and no fill
    if k == 1:
        np.multiply(idx, j.astype(dtype), out=idx)
    else:
        np.copyto(quot, j)
        np.multiply(idx, quot, out=idx)
    np.floor_divide(idx, p - 1, out=quot)  # idx mod p-1, exactly, faster than remainder
    np.subtract(idx, np.multiply(quot, p - 1, out=quot), out=idx)
    if dtype is not np.int64:  # take would cast int32 indices into a temporary
        wide = _shaped(work[2].view(np.int64), n, k)
        np.copyto(wide, idx)
        idx = wide
    ctx.root_powers().take(idx, out=vals, mode="clip")  # idx lies in range
    vals[(-start) % p :: p] = 0.0
    np.cumsum(vals, axis=0, out=vals)
    w[0] = vals[h - 1]
    np.subtract(vals[h:], vals[: nb - 1], out=w[1:])
    return w.T


def moment_error_bound(p: int, h: int, r: int) -> float:
    """Conservative absolute error bound for the tiled moment evaluation,
    for one character and for every row of the batch alike.  The real
    characters (j = 0 and (p-1)/2) are summed in integers and rounded once,
    so their values err by at most half an ulp; the same bound is reported
    for them, as a conservative one.

    The body evaluates S = T(x0) + 2 sum_{t=1}^{(p-1)/2} T(x0+t), the p
    terms T(x) = |W(x)|^(2r) folded by the reflection x -> 1-h-x (see
    _column_blocks).  Each term lies in [0, h^(2r)] and the doubling is exact,
    so summing in any order errs by at most gamma_k <= 1.01 k eps/2 times
    the sum of all p terms, at most p h^(2r); k is the most additions one
    term passes through.  numpy's pairwise sum of one block's <= 2^16 terms
    gives k <= 36: at most 10 halvings to leaves of <= 128 terms, 15 adds in
    a leaf's 8 accumulators, 3 to merge them, 7 remainder adds and 1 into
    the output (8 more if the reduction runs in 8192-entry buffers).  Block
    0 adds T(x0) to its doubled sum once, 1 more.  The one pairwise sum of a
    row's per-block partials, at most 77 blocks of the (p+1)/2 columns up
    to PrimeContext.DLOG_CAP, adds k <= 18: 17 in a leaf of <= 77 terms
    (7 in an accumulator, 3 to merge, 7 remainder adds at 71 partials) and
    1 into the output.  So k <= 63, gamma_k < 32 eps, and 64 eps p h^(2r)
    covers the reduction with room for the rounding of the terms
    themselves.  Each computed term errs by at most per_term below; a
    doubled term carries its error twice, once for each x of its pair, so
    the p terms together err by at most p per_term.

    The 4 h eps term of a window's error assumes every entry of
    PrimeContext.root_powers lies within 4 eps of the true root.  The table
    runs cos and sin only on angles in [0, pi/2) (p = 3 mod 4) or
    [0, pi/4) (p = 1 mod 4) and fills the rest by exact swaps and
    negations.  Against 200-bit values its entries stay below 1.5 eps
    (every entry for p < 1500, 4000 sampled ones each for seven primes up
    to 9999991), where exp on the angles in [0, pi) reached 3.8 eps and a
    full-range exp 6.4 eps near 2 pi.
    """
    block = min(p, _RESYNC_BLOCK) + h
    err_w = 2.0 * block * block * _EPS + 4 * h * _EPS
    per_term = 2 * r * float(h) ** (2 * r - 1) * err_w
    reduce_err = 64 * _EPS * p * float(h) ** (2 * r)
    return p * per_term + reduce_err


def _check_moment_args(h: int, r_values) -> None:
    if h < 1 or not r_values or min(r_values) < 1:
        raise DomainError(f"need h >= 1 and r >= 1, got h = {h}, r_values = {r_values}")


def _column_blocks(p: int, h: int) -> list[tuple[int, int]]:
    """(start, n) of each _RESYNC_BLOCK of the columns the moment body
    visits, n counting the block's columns and h-1 more of wrap.

    The reflection x -> c-x with c = 1-h halves the columns: W(c-x) =
    sum_m chi(-(x+m)) = chi(-1) W(x), so |W(c-x)| = |W(x)| for every
    character, the principal one included.  Its one fixed point is
    x0 = c (p+1)/2 mod p, and every other x pairs with x0 +- t, so
    S = T(x0) + 2 sum_{t=1}^{(p-1)/2} T(x0+t) with T = |W|^(2r): the body
    visits the (p+1)/2 columns x0, x0+1, .. (mod p) only.
    """
    half = (p + 1) // 2  # also the inverse of 2 mod p
    x0 = (1 - h) * half % p  # the fixed point of x -> 1-h-x
    offsets = range(0, half, _RESYNC_BLOCK)
    return [((x0 + o) % p, min(_RESYNC_BLOCK, half - o) + h - 1) for o in offsets]


def _norm_tiles(ctx: PrimeContext, rows: np.ndarray, h: int, blocks, work, norms=None):
    """Norm pass: yield (b, lo, m2) for each tile, m2 = |W(x)|^2 of the
    character rows rows[lo : lo + len(m2)] over column block b, contiguous.

    A tile is max(1, _TILE // n) rows by the n columns of its block, so it
    holds at most _TILE entries, or one row where a row is longer; every
    step writes into the _workspace `work`, so no tile allocates and the
    buffers stay in cache.  The windows come x-major from _tile_windows,
    and w * conj(w) runs on them in place, elementwise, so each norm is the
    same product in either layout; one transposed copy then lays m2 out
    row by row, the order _reduce sums in.  m2 lies in work[3] until the
    next tile, unless `norms` ((p+1)/2 floats, for one row) is given: then
    the tiles fill it in turn and stay valid.  The windows' buffer work[2]
    is free from the yield to the next tile.
    """
    filled = 0
    for b, (start, n) in enumerate(blocks):
        d = _block_dlogs(ctx, start, n)
        chunk = max(1, _TILE // n)
        for lo in range(0, len(rows), chunk):
            w = _tile_windows(ctx, rows[lo : lo + chunk], start, d, h, work)
            xw = w.T  # the x-major tile, rows contiguous
            conj = np.conj(xw, out=_shaped(work[1], *xw.shape))  # the table is spent
            np.multiply(xw, conj, out=xw)
            m2 = _shaped(work[3] if norms is None else norms[filled:], *w.shape)
            np.copyto(m2, w.real)  # the one transpose: each row contiguous again
            filled += m2.size
            yield b, lo, m2


def _reduce(tiles, n_rows: int, n_blocks: int, r_values, power_buf) -> dict[int, np.ndarray]:
    """Reduction: {r: S_r of each row} from the tiles of _norm_tiles.

    Each tile's norms are raised to the powers 1..max(r_values) in the flat
    float buffer power_buf.  Each block sums its terms T = |W|^(2r), block
    0's from x0+1 on, and doubles the sum, which is exact; block 0 then adds
    T(x0) once.  A row's per-block partial sums are reduced in one pairwise
    sum at the end.  Each row's arithmetic is the same in every tile shape,
    so the single and the batch path agree bit for bit.
    """
    partial = {r: np.empty((n_rows, n_blocks)) for r in r_values}
    for b, lo, m2 in tiles:
        first = int(b == 0)  # block 0 opens on x0, which is not doubled
        acc = None
        for r in range(1, max(r_values) + 1):
            acc = m2 if acc is None else np.multiply(acc, m2, out=_shaped(power_buf, *m2.shape))
            if r in r_values:
                sums = 2 * acc[:, first:].sum(axis=-1)
                if first:
                    sums += acc[:, 0]
                partial[r][lo : lo + len(m2), b] = sums
    return {r: s.sum(axis=-1) for r, s in partial.items()}


def _moment_sums(ctx: PrimeContext, js, h: int, r_values) -> dict[int, np.ndarray]:
    """{r: S_chi_j(p,h,r) for each entry j of the index array js}.

    Since W_{chi_-j}(x) = conj(W_{chi_j}(x)), S_j = S_{-j}: each index is
    folded to min(j, -j mod p-1), and each distinct one is computed once.
    The rows of the real characters, 0 and (p-1)/2, take their exact
    values from _real_histogram, the ones moment_sum_exact returns, so the
    two paths agree bit for bit at every size.  The other rows go through
    the float pass: the norm pass and the reduction run tile by tile in one
    _workspace, sized for the largest tile and allocated per call; the
    powers go into the windows' buffer, which the norm pass has spent.
    The tiles are x-major (see _tile_windows) and the reduction reads each
    row contiguous, in the order it always has, so no value depends on the
    layout or on the index dtype; the single path runs the same kernel on
    one-row tiles.
    """
    _check_moment_args(h, r_values)
    p = ctx.p
    js = np.asarray(js, dtype=np.int64)
    rows, back = np.unique(np.minimum(js, (-js) % (p - 1)), return_inverse=True)
    real = _is_real(p, rows)
    others = rows[~real]
    blocks = _column_blocks(p, h)
    work = _workspace(max(min(max(1, _TILE // n), len(others)) * n for _, n in blocks))
    tiles = _norm_tiles(ctx, others, h, blocks, work)
    floats = _reduce(tiles, len(others), len(blocks), r_values, work[2].view(float))
    sums = {r: np.empty(len(rows)) for r in r_values}
    for r in r_values:
        sums[r][~real] = floats[r]
    for i in np.flatnonzero(real):
        hist = _real_histogram(ctx, int(rows[i]), h)
        for r in r_values:
            sums[r][i] = _real_moment(hist, r)
    return {r: s[back] for r, s in sums.items()}


def _norm_set(ctx: PrimeContext, j: int, h: int) -> list:
    """The norm tiles of the one folded index j, kept in (p+1)/2 floats;
    the workspace that made them is freed on return."""
    blocks = _column_blocks(ctx.p, h)
    # The long-lived root table is allocated before the short-lived buffers,
    # so that it can take the free heap space its predecessor left.  Built
    # at the first tile, a table that no longer fit there went to a fresh
    # mapping while that space stayed resident: over 40 primes in
    # [1e5, 1e6], six seeds, peak RSS read 55 MiB against 63-70.
    ctx.root_powers()
    work = _workspace(max(n for _, n in blocks))
    return list(_norm_tiles(ctx, np.array([j]), h, blocks, work, np.empty((ctx.p + 1) // 2)))


def _is_real(p: int, j):
    """chi_j takes values in {0, +-1} (j = 0 or (p-1)/2); j may be an array."""
    return 2 * j % (p - 1) == 0


def _real_windows(ctx: PrimeContext, j: int, start: int, d: np.ndarray, h: int) -> np.ndarray:
    """W(x) for the first len(d) - h + 1 columns x = start.., whose dlogs
    begin d, of the real character chi_j, in integers: chi(x) = (-1)^d(x)
    for the quadratic character and 1 for the principal one, 0 at every
    multiple of p.  W is built by doubling, W_2a(x) = W_a(x) + W_a(x+a),
    and W_2a+1(x) = W_2a(x) + chi(x+2a) for each of h's bits past the
    leading one: log2 h + popcount(h) - 1 vector adds, exact since
    |W| <= h fits the dtype."""
    p = ctx.p
    sign = np.array([1, -1], np.int8 if h <= 127 else np.int32)
    chi = sign.take(d & (2 * j // (p - 1)))  # the dlog's parity, or 0 for j = 0
    chi[(-start) % p :: p] = 0
    w = chi
    for bit in bin(h)[3:]:
        a = len(chi) - len(w) + 1  # the length of the windows in w
        w = w[:-a] + w[a:]
        if bit == "1":
            w = w[:-1] + chi[2 * a :]
    return w


def _real_histogram(ctx: PrimeContext, j: int, h: int) -> tuple[int, np.ndarray]:
    """(|W(x0)|, counts) for the real character chi_j over the columns of
    _column_blocks: counts[v] is the number of x0+t, t = 1..(p-1)/2, with
    |W(x0+t)| = v, each of which stands for its mirror too.  h + 1 counts
    in place of (p+1)/2 norms."""
    counts = np.zeros(h + 1, np.int64)
    for b, (start, n) in enumerate(_column_blocks(ctx.p, h)):
        w = np.abs(_real_windows(ctx, j, start, _block_dlogs(ctx, start, n), h))
        if b == 0:  # block 0 opens on x0, its own mirror
            w_x0, w = int(w[0]), w[1:]
        counts += np.bincount(w, minlength=h + 1)
    return w_x0, counts


def _real_moment(hist: tuple[int, np.ndarray], r: int) -> float:
    """S_r = |W(x0)|^(2r) + 2 sum_v counts[v] v^(2r), summed in integers
    and rounded once."""
    w_x0, counts = hist
    doubled = sum(c * v ** (2 * r) for v, c in enumerate(counts.tolist()) if c)
    return float(w_x0 ** (2 * r) + 2 * doubled)


def moment_sum_exact(chi: CharacterIndex, h: int, r: int) -> MomentSumResult:
    """S_chi(p,h,r) = sum over x in F_p of |sum_{n<h} chi(x+n)|^(2r).

    Exact complete sum in floating point, O(p) via a sliding window; the
    reported error bound covers table rounding, window drift, and the final
    reduction.  For a real character (j = 0 or (p-1)/2) the sum is exact:
    its windows are integers, summed in Python ints from the |W| histogram
    of _real_histogram and rounded once; the same bound is reported.  The
    window norms |W(x)|^2 of the last (folded j, h), or a real character's
    histogram, stay in the context's one slot, so a call at another r, or
    on the conjugate character, runs only the reduction; the old slot is
    freed before a new one is built.  Each value equals that of a fresh
    context bit for bit.
    """
    _check_moment_args(h, (r,))
    ctx, p = chi.ctx, chi.ctx.p
    key = (min(chi.j, -chi.j % (p - 1)), h)
    real = _is_real(p, key[0])
    slot = ctx._norms  # read once, so that a shared context gives one pair
    if slot is None or slot[0] != key:
        slot = ctx._norms = None  # free the last norms before building these
        build = _real_histogram if real else _norm_set
        slot = ctx._norms = (key, build(ctx, key[0], h))
    if real:
        value = _real_moment(slot[1], r)
    else:
        tiles = slot[1]
        power_buf = np.empty(max(m2.size for _, _, m2 in tiles))
        value = float(_reduce(tiles, 1, len(tiles), (r,), power_buf)[r][0])
    return MomentSumResult(value, moment_error_bound(p, h, r), p, h, r)


def moment_sums_all(ctx: PrimeContext, h: int, r_values: tuple[int, ...]) -> dict[int, np.ndarray]:
    """S_chi(p,h,r) for every character j in [0, p-2] at once.

    Returns {r: vector indexed by j}.  Index 0 is the principal character.
    """
    return _moment_sums(ctx, np.arange(ctx.p - 1, dtype=np.int64), h, r_values)


def principal_moment_exact(p: int, h: int, r: int) -> int:
    """Closed form for the principal character when h <= p:
    (p-h) h^(2r) + h (h-1)^(2r)."""
    if h > p:
        raise DomainError("closed form assumes h <= p")
    return (p - h) * h ** (2 * r) + h * (h - 1) ** (2 * r)


def exception_count_exact_r2(h: int, order_class: str) -> int:
    """Exact exception counts for r=2: 3h^2-2h (quadratic) / 2h^2-h (higher)."""
    if order_class == "quadratic":
        return 3 * h * h - 2 * h
    if order_class == "higher":
        return 2 * h * h - h
    raise DomainError("order_class must be 'quadratic' or 'higher'")


def double_factorial_ratio(r: int) -> int:
    """(2r)!/(2^r r!), the n=2 pairing count."""
    return math.factorial(2 * r) // (2**r * math.factorial(r))


def weil_bound(p: int, h: int, r: int, order_class: str | None = None) -> float:
    """Explicit upper bound for S_chi(p,h,r), non-principal chi.

    General shape: (2r)!/(2^r r!) p h^r + (2r-1) sqrt(p) h^(2r).
    At r=2 a sharper class split applies:
        quadratic: (3h^2-2h) p + 2 (h^4-3h^2+2h) sqrt(p)
        higher   : (2h^2-h) p + 3 (h^4-2h^2+h) sqrt(p)
    """
    if h < 1 or r < 1:
        raise DomainError("h and r must be >= 1")
    sq = math.sqrt(p)
    if r == 2 and order_class is not None:
        exc = exception_count_exact_r2(h, order_class)
        weil_multiplier = 2 if order_class == "quadratic" else 3
        return exc * p + weil_multiplier * (h**4 - exc) * sq
    return double_factorial_ratio(r) * p * h**r + (2 * r - 1) * sq * h ** (2 * r)


def stirling_sandwich(r: int) -> tuple[float, float, float]:
    """((2r/e)^r, (2r)!/(2^r r!), sqrt(2)(2r/e)^r), strictly ordered.

    The ordering is asserted in log space so it survives r in the hundreds;
    returned values overflow to inf past r ~ 140 but the assertion already
    ran on the logs.
    """
    if r < 1:
        raise DomainError("r must be >= 1")
    log_lower = r * (math.log(2 * r) - 1)
    log_mid = math.lgamma(2 * r + 1) - r * math.log(2) - math.lgamma(r + 1)
    log_upper = log_lower + 0.5 * math.log(2)
    if not log_lower < log_mid < log_upper:
        raise ConsistencyError(f"stirling sandwich ordering failed at r={r}")

    def _exp(v: float) -> float:
        return math.exp(v) if v < 700 else math.inf

    return (_exp(log_lower), _exp(log_mid), _exp(log_upper))
