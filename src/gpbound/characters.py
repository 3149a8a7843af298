"""Dirichlet characters mod p and their moment sums.

A character is indexed by an exponent j in [0, p-2] relative to the fixed
primitive root g of the context: chi_j(g^k) = exp(2 pi i j k / (p-1)),
chi_j(0) = 0.  The central object is the 2r-th moment of length-h window
sums over F_p, together with the explicit upper bounds it must satisfy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError
from .ntcore import (
    PrimeContext,
    multiplicative_order,
    phi_of_factorization,
    squarefree_divisors,
)

_EPS = np.finfo(float).eps
_RESYNC_BLOCK = 1 << 16  # prefix sums restart every block to contain drift


@dataclass(frozen=True)
class CharacterIndex:
    """A character mod p identified by its exponent index j."""

    ctx: PrimeContext
    j: int

    def __post_init__(self):
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


def char_value(chi: CharacterIndex, n: int) -> complex:
    """chi(n): zero at multiples of p, else a root of unity."""
    p = chi.ctx.p
    r = n % p
    if r == 0:
        return 0j
    k = chi.ctx.dlog(r)
    return complex(chi.ctx.root_powers()[(chi.j * k) % (p - 1)])


def _char_table(ctx: PrimeContext, j) -> np.ndarray:
    """chi_j(x) for x = 0..p-1: one complex vector for an int j, one row per
    index for an array of them."""
    vals = ctx.root_powers()[np.multiply.outer(j, ctx.dlog_array()) % (ctx.p - 1)]
    vals[..., 0] = 0.0
    return vals


def char_values_all(chi: CharacterIndex) -> np.ndarray:
    """chi(x) for x = 0..p-1 as one complex vector."""
    return _char_table(chi.ctx, chi.j)


def ramanujan_sum(d: int, k: int, primes: tuple[int, ...]) -> int:
    """c_d(k): the sum of chi(g^k) over the phi(d) characters of exact order d.

    Those characters are j = m (p-1)/d with gcd(m, d) = 1, so the sum is the
    Ramanujan sum of exp(2 pi i m k/d) over m coprime to d.  It is computed
    in integers by Hölder's formula c_d(k) = mu(q) phi(d)/phi(q) with
    q = d/gcd(d, k).  `primes` must hold every prime factor of d; the primes
    of p-1 do for every d | p-1, so nothing is factorized.
    """
    g = math.gcd(d, k)
    q = d // g
    # phi(d)/phi(q) = g prod_{r | d, r not | q} (1 - 1/r), signed by mu(q)
    value = g
    for r in primes:
        if d % r:
            continue
        if q % r:
            value = value // r * (r - 1)
        elif q % (r * r) == 0:
            return 0
        else:
            value = -value
    return value


def _require_order(ctx: PrimeContext, d: int) -> None:
    if (ctx.p - 1) % d != 0:
        raise DomainError(f"{d} does not divide p-1")


def sum_over_order(ctx: PrimeContext, d: int, n: int) -> int:
    """Sum of chi(n) over the phi(d) characters of exact order d, exactly."""
    _require_order(ctx, d)
    return ramanujan_sum(d, ctx.dlog(n), ctx.pm1_factors.primes)


def order_sum_table(ctx: PrimeContext, d: int) -> np.ndarray:
    """int64 vector over k in [0, p-1) of sum_{ord(chi)=d} chi(g^k) = c_d(k).

    c_d(k) depends only on gcd(k, d), so each distinct gcd is evaluated once.
    """
    _require_order(ctx, d)
    gcds, where = np.unique(np.gcd(np.arange(ctx.p - 1, dtype=np.int64), d),
                            return_inverse=True)
    primes = ctx.pm1_factors.primes
    values = [ramanujan_sum(d, int(t), primes) for t in gcds]
    return np.array(values, dtype=np.int64)[where]


def indicator_primitive_root(ctx: PrimeContext, n: int) -> int:
    """Primitive-root indicator f(n), evaluated two independent ways.

    Route (a): order test.  Route (b): the character identity
    f(n) = (phi(p-1)/(p-1)) sum_{d|p-1} (mu(d)/phi(d)) sum_{ord(chi)=d} chi(n),
    in exact rationals (only squarefree d have mu(d) != 0).  The routes must
    agree exactly or a ConsistencyError is raised.
    """
    p = ctx.p
    if not 1 <= n % p <= p - 1:
        raise DomainError("n must be nonzero mod p")
    by_order = int(multiplicative_order(n, p, ctx.pm1_factors) == p - 1)

    k = ctx.dlog(n)
    primes = ctx.pm1_factors.primes
    acc = sum(
        (Fraction(mu, phi) * ramanujan_sum(d, k, primes)
         for d, mu, phi in squarefree_divisors(primes)),
        Fraction(0),
    )
    by_chars = Fraction(phi_of_factorization(ctx.pm1_factors), p - 1) * acc
    if by_chars != by_order:
        raise ConsistencyError(
            f"indicator mismatch at p={p}, n={n}: order test {by_order}, "
            f"character identity {by_chars}"
        )
    return by_order


def _window_sums(vals: np.ndarray, h: int) -> np.ndarray:
    """W(x) = sum_{n=0}^{h-1} vals[..., (x+n) mod p] for all x, along the last
    axis, by blocked prefix sums.

    Each block restarts the accumulation so rounding drift stays bounded by
    the block length, not by p.
    """
    p = vals.shape[-1]
    reps = 1 + (h - 1 + p - 1) // p
    ext = np.tile(vals, reps)[..., : p + h - 1]
    out = np.empty(vals.shape, dtype=complex)
    for start in range(0, p, _RESYNC_BLOCK):
        stop = min(start + _RESYNC_BLOCK, p)
        c = np.cumsum(ext[..., start : stop + h - 1], axis=-1)
        out[..., start] = c[..., h - 1]
        out[..., start + 1 : stop] = c[..., h:] - c[..., : stop - start - 1]
    return out


def _moment_error_bound(p: int, h: int, r: int) -> float:
    """Conservative absolute error bound for the blocked moment evaluation."""
    block = min(p, _RESYNC_BLOCK) + h
    err_w = 2.0 * block * block * _EPS + 4 * h * _EPS
    per_term = 2 * r * float(h) ** (2 * r - 1) * err_w
    reduce_err = 64 * _EPS * p * float(h) ** (2 * r)
    return p * per_term + reduce_err


def moment_sum_exact(chi: CharacterIndex, h: int, r: int) -> MomentSumResult:
    """S_chi(p,h,r) = sum over x in F_p of |sum_{n<h} chi(x+n)|^(2r).

    Exact complete sum in floating point, O(p) via a sliding window; the
    reported error bound covers table rounding, window drift, and the final
    reduction.
    """
    if h < 1 or r < 1:
        raise DomainError("h and r must be >= 1")
    vals = char_values_all(chi)
    w = _window_sums(vals, h)
    m2 = (w * w.conj()).real
    # repeated products, as in moment_sums_all, so the two agree bit for bit
    acc = m2
    for _ in range(r - 1):
        acc = acc * m2
    value = float(np.sum(acc))
    return MomentSumResult(value, _moment_error_bound(chi.ctx.p, h, r), chi.ctx.p, h, r)


def moment_sums_all(ctx: PrimeContext, h: int, r_values: tuple[int, ...]) -> dict[int, np.ndarray]:
    """S_chi(p,h,r) for every character j in [0, p-2] at once.

    Returns {r: vector indexed by j}.  Index 0 is the principal character.
    """
    # the table lives until return: freed inside the window pass, it changed
    # how the allocator trims the heap and slowed the sieve work run after
    # this call by about 20% in the sweep-small benchmark
    vals = _char_table(ctx, np.arange(ctx.p - 1, dtype=np.int64))
    w = _window_sums(vals, h)
    m2 = (w * w.conj()).real
    out = {}
    acc = None
    for r in range(1, max(r_values) + 1):
        acc = m2 if acc is None else acc * m2
        if r in r_values:
            out[r] = acc.sum(axis=1)
    return out


def principal_moment_exact(p: int, h: int, r: int) -> int:
    """Closed form for the principal character when h <= p:
    (p-h) h^(2r) + h (h-1)^(2r)."""
    if h > p:
        raise DomainError("closed form assumes h <= p")
    return (p - h) * h ** (2 * r) + h * (h - 1) ** (2 * r)


def exception_count_bound(r: int, h: int, n: int) -> float:
    """Upper bound c_r(h,n) for the number of index tuples whose polynomial
    is a perfect n-th power; at n=2 this collapses to (2r)!/(2^r r!) h^r."""
    if r < 1 or h < 1 or n < 2:
        raise DomainError("need r, h >= 1 and n >= 2")
    total = Fraction(0)
    for d in range(r // n + 1):
        coeff = Fraction(
            math.factorial(r), math.factorial(d) * math.factorial(n) ** d
        )
        total += coeff**2 * Fraction(h ** (r - (n - 2) * d), math.factorial(r - n * d))
    return float(total)


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


def w_factor(p: int, h: int, r: int) -> float:
    """Minimum applicable W with S_chi <= W sqrt(p) h^(2r):
    sqrt(2) (2r/(eh))^r sqrt(p) + (2r-1), and at r=2 also 3(1 + sqrt(p)/h^2)."""
    if h < 1 or r < 1:
        raise DomainError("h and r must be >= 1")
    general = math.sqrt(2) * (2 * r / (math.e * h)) ** r * math.sqrt(p) + (2 * r - 1)
    if r == 2:
        return min(general, 3.0 * (1.0 + math.sqrt(p) / h**2))
    return general


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
