"""Exact integer number theory.

Primality, factorization, the classical multiplicative functions, and the
brute-force least-primitive-root oracle.  Everything here is exact integer
or rational arithmetic, with no floats, except in PrimeContext: its table
of the (p-1)-th roots of unity is complex, and its `_norms` slot holds the
float window norms, or a real character's integer histogram, that
`characters` computes.

Every primality verdict is a proof: is_prime decides below
MR_DETERMINISTIC_LIMIT (~3.3e24), and past it least_primitive_root proves p
prime by Lucas's criterion from the root it finds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from .errors import (
    BudgetExceededError,
    ConsistencyError,
    DomainError,
    UnsupportedRangeError,
)

# Strong-pseudoprime witnesses proven sufficient below this bound
# (Sorenson & Webster), which comfortably covers every integer the
# desk-scale machinery ever tests.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981

_SMALL_PRIME_LIMIT = 1 << 16


@lru_cache(maxsize=1)
def _small_primes() -> tuple[int, ...]:
    return tuple(primes_upto(_SMALL_PRIME_LIMIT))


def primes_upto(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start :: p] = b"\x00" * ((n - start) // p + 1)
    return [i for i in range(2, n + 1) if sieve[i]]


def first_primes(k: int) -> list[int]:
    """The first k primes."""
    if k <= 0:
        return []
    # p_k < k(ln k + ln ln k) for k >= 6
    bound = 15 if k < 6 else int(k * (math.log(k) + math.log(math.log(k)))) + 10
    ps = primes_upto(bound)
    while len(ps) < k:
        bound *= 2
        ps = primes_upto(bound)
    return ps[:k]


def _passes_strong_test(n: int) -> bool:
    """False if a witness in _MR_WITNESSES proves n >= 2 composite; True
    proves n prime only below MR_DETERMINISTIC_LIMIT."""
    for a in _MR_WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Guaranteed correct for 0 <= n < MR_DETERMINISTIC_LIMIT (~3.3e24, beyond
    2^81); larger inputs raise UnsupportedRangeError rather than return a
    probabilistic answer.
    """
    if n < 0:
        raise DomainError("primality is defined for nonnegative integers")
    if n >= MR_DETERMINISTIC_LIMIT:
        raise UnsupportedRangeError(
            f"deterministic witness set only proven below {MR_DETERMINISTIC_LIMIT}"
        )
    return n >= 2 and _passes_strong_test(n)


@dataclass(frozen=True)
class Factorization:
    """Complete prime factorization as ((prime, exponent), ...) sorted by prime."""

    entries: tuple[tuple[int, int], ...]
    # the primes, built once: the sieve reads them at every check
    primes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        prev = 1
        for p, e in self.entries:
            if p <= prev:
                raise DomainError("factor primes must be strictly increasing")
            if e < 1:
                raise DomainError("exponents must be positive")
            prev = p
        object.__setattr__(self, "primes", tuple(p for p, _ in self.entries))

    def validate(self, n: int) -> None:
        """Prove every entry prime with is_prime (so none past
        MR_DETERMINISTIC_LIMIT) and check that the product is n."""
        for p in self.primes:
            if not is_prime(p):
                raise DomainError(f"factor {p} is not prime")
        if self.n != n:
            raise DomainError("factorization does not multiply back to n")

    @property
    def n(self) -> int:
        prod = 1
        for p, e in self.entries:
            prod *= p**e
        return prod

    @property
    def omega(self) -> int:
        return len(self.entries)

    def divisors(self) -> list[int]:
        """All divisors, sorted ascending."""
        ds = [1]
        for p, e in self.entries:
            ds = [d * p**k for d in ds for k in range(e + 1)]
        return sorted(ds)

    def to_json(self) -> list[list[int]]:
        return [[p, e] for p, e in self.entries]

    @classmethod
    def from_json(cls, data) -> "Factorization":
        return cls(tuple((int(p), int(e)) for p, e in data))


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of composite odd n (deterministic parameter sweep)."""
    if n % 2 == 0:
        return 2
    for x0 in range(2, 1000):
        y, c, m = x0, x0 | 1, 128
        g = q = r = 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise UnsupportedRangeError(f"failed to factor {n}")


def factorize(n: int) -> Factorization:
    """Complete prime factorization by trial division plus Pollard-Brent rho.

    Sized for p-1 with p up to ~1e18; supply known factorizations for
    anything larger.
    """
    if n < 1:
        raise DomainError("factorize requires n >= 1")
    out: dict[int, int] = {}
    for p in _small_primes():
        if p * p > n:
            break
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_brent(m)
        stack.append(d)
        stack.append(m // d)
    return Factorization(tuple(sorted(out.items())))


def euler_phi(n: int) -> int:
    """Euler totient from the factorization."""
    return phi_of_factorization(factorize(n))


def moebius(n: int) -> int:
    """Mobius function: 0 on non-squarefree, else (-1)^omega."""
    f = factorize(n)
    if any(e > 1 for _, e in f.entries):
        return 0
    return -1 if f.omega % 2 else 1


def theta(n: int) -> Fraction:
    """phi(n)/n as an exact rational; it multiplies into certified inequalities."""
    return Fraction(euler_phi(n), n)


def phi_of_factorization(f: Factorization) -> int:
    result = f.n
    for p in f.primes:
        result -= result // p
    return result


def is_primitive_root(a: int, p: int, pm1_factors: Factorization | None = None) -> bool:
    if a % p == 0:
        return False
    f = pm1_factors or factorize(p - 1)
    return all(pow(a, (p - 1) // q, p) != 1 for q in f.primes)


def least_primitive_root(
    p: int,
    pm1_factors: Factorization | None = None,
    *,
    candidate_limit: int | None = None,
) -> int:
    """Smallest g >= 2 of multiplicative order p-1 modulo p.

    Brute-force oracle: candidates are tested with the order test against the
    factorization of p-1.  The candidate budget guards huge p, where the
    oracle has no business running.

    Past MR_DETERMINISTIC_LIMIT the search proves p prime by Lucas's
    criterion (Brillhart, Lehmer & Selfridge, Math. Comp. 29, 1975): g with
    g^(p-1) = 1 and g^((p-1)/q) != 1 for every prime q | p-1, each q proved
    by is_prime.  A candidate with g^(p-1) != 1 proves p composite.
    """
    if p == 3:
        return 2
    beyond = p >= MR_DETERMINISTIC_LIMIT
    if p < 3 or p % 2 == 0 or not (_passes_strong_test(p) if beyond else is_prime(p)):
        raise DomainError(f"{p} is not an odd prime")
    f = pm1_factors or factorize(p - 1)
    if beyond:
        f.validate(p - 1)
    limit = candidate_limit if candidate_limit is not None else p
    for g in range(2, min(p, limit + 1)):
        if is_primitive_root(g, p, f):
            if beyond and pow(g, p - 1, p) != 1:
                raise DomainError(f"{p} is not an odd prime")
            return g
    raise BudgetExceededError(f"g({p}) not found within candidate limit {limit}")


def primorial(k: int) -> int:
    """Product of the first k primes (exact big integer)."""
    if k < 0:
        raise DomainError("primorial requires k >= 0")
    prod = 1
    for p in first_primes(k):
        prod *= p
    return prod


# Largest p whose residue products (p-1)^2 fit in int64.
_DLOG_INT64_P_MAX = math.isqrt(2**63 - 1) + 1


# Giant rows per block of the dlog table build.
_GIANT_ROWS = 16


def _dlog_table(p: int, g: int):
    """numpy int32 table d with g^d[n] = n mod p for n in [1, p); d[0] = -1.

    Shanks' baby-step/giant-step split (D. Shanks, Proc. Sympos. Pure Math.
    20, 1971), used to enumerate powers rather than to search for one: with
    step = isqrt(m) + 1, g^(step*i + j) is a giant step g^(step*i) times a
    baby step g^j.  Only the powers k < m = (p-1)/2 are enumerated: a
    generator has g^m = -1, so g^(k+m) = p - g^k, and each block is
    scattered twice, k at its powers and k + m at their negatives.  One
    outer product of _GIANT_ROWS giant steps with the baby steps, reduced
    mod p by a floor division, a product and a difference, fills that many
    rows of powers at once, so a Python loop of about sqrt(m) / _GIANT_ROWS
    blocks fills the table; the last block's last row is trimmed at m
    powers.  The products and their quotients share one buffer of
    2 _GIANT_ROWS rows of about sqrt(m) elements, allocated once, and no
    temporary is larger: with p-length temporaries, freeing them raised the
    allocator's mmap threshold and the peak RSS of a run over large primes
    by 15 MiB.  The logs lie below p-1, which fits int32 for
    p <= PrimeContext.DLOG_CAP.
    Raises ConsistencyError if g^m != -1, where g of odd order m would fill
    a complete but wrong table (p = 7, g = 2: {1, 2, 4} and their negatives),
    or if some residue is left without a log.
    """
    if p > _DLOG_INT64_P_MAX:
        raise UnsupportedRangeError(
            f"dlog table products (p-1)^2 overflow int64 for p > {_DLOG_INT64_P_MAX}; p = {p}"
        )
    import numpy as np

    def powers_of(a: int, k: int):
        out = [1] * k
        for i in range(1, k):
            out[i] = out[i - 1] * a % p
        return np.array(out, dtype=np.int64)

    m = (p - 1) // 2
    if pow(g, m, p) != p - 1:
        raise ConsistencyError(f"{g} does not generate the units mod {p}: g^((p-1)/2) != -1")
    step = math.isqrt(m) + 1
    baby = powers_of(g, step)
    giants = powers_of(int(baby[-1]) * g % p, -(-m // step))
    logs = np.arange(_GIANT_ROWS * step, dtype=np.int32)
    table = np.full(p, -1, dtype=np.int32)
    block = np.empty((2, _GIANT_ROWS, step), dtype=np.int64)
    for i in range(0, len(giants), _GIANT_ROWS):
        rows = giants[i : i + _GIANT_ROWS]
        powers, quot = block[:, : len(rows)]
        np.multiply.outer(rows, baby, out=powers)
        # powers mod p, exactly, faster than np.remainder
        np.floor_divide(powers, p, out=quot)
        np.subtract(powers, np.multiply(quot, p, out=quot), out=powers)
        start = i * step
        n = min(powers.size, m - start)
        powers = powers.reshape(-1)[:n]
        table[powers] = logs[:n] + start
        table[np.subtract(p, powers, out=powers)] = logs[:n] + (start + m)
    if table[1:].min() < 0:
        raise ConsistencyError(f"{g} does not generate the units mod {p}")
    return table


class PrimeContext:
    """An odd prime p with factored p-1, a fixed primitive root, two lazy
    tables and one slot of window norms.

    The tables are the discrete logs (int32, 4 bytes per residue: 3.7 MiB at
    p = 960961) and the (p-1)-th roots of unity (complex, 16 bytes per
    residue, of which cos and sin compute one eighth or one quarter and
    exact symmetries the rest; see `root_powers`).  The slot `_norms` holds
    the |W(x)|^2 of the last character and window length that
    `characters.moment_sum_exact` evaluated, so that its moments at another
    r, or at the conjugate character, skip the window pass: (p+1)/2 floats,
    3.7 MiB at p = 960961, and only one set at a time.  For a real
    character (j = 0 or (p-1)/2) it holds |W(x0)| and the h + 1 counts of
    |W| instead, from which the moments are summed in integers.
    The fixed root is the canonical basis for all character indexing; the
    dlog table is built only on demand and only when p is small enough to
    enumerate (huge-p certification never needs it).  It is built in numpy
    from blocked powers of half of the logs, the other half by negation
    (see `_dlog_table`): every product of two residues is
    below (p-1)^2, which fits int64 for p <= DLOG_CAP, and beside the table
    the build holds only one block of _GIANT_ROWS rows of about sqrt(p)
    int64 products and their quotients.  Apart from filling `_dlog`,
    `_root_powers` and `_norms`, instances are immutable after construction;
    a reader of `_norms` takes the slot's (key, norms) pair once, so sharing
    one context gives the same values, at worst with more window passes.
    """

    # Bounds the memory and time of one dlog table; it also keeps every
    # blocked product (p-1)^2 inside int64, and every log, below p-1, inside
    # the int32 table, which _dlog_table needs.
    DLOG_CAP = 10**7

    def __init__(self, p: int, pm1_factors: Factorization | None = None):
        if p < 3 or p % 2 == 0:
            raise DomainError("PrimeContext requires an odd prime >= 3")
        if p < MR_DETERMINISTIC_LIMIT and not is_prime(p):
            raise DomainError(f"{p} is not prime")
        self.p = p
        self.pm1_factors = pm1_factors if pm1_factors is not None else factorize(p - 1)
        self.pm1_factors.validate(p - 1)
        self.omega = self.pm1_factors.omega
        self.generator = least_primitive_root(p, self.pm1_factors, candidate_limit=10**6)
        self._dlog = None
        self._root_powers = None
        self._norms = None

    def dlog_array(self):
        """numpy int32 array d with generator^d[n] = n mod p; d[0] = -1."""
        if self._dlog is None:
            if self.p > self.DLOG_CAP:
                raise UnsupportedRangeError(
                    f"dlog table capped at p <= {self.DLOG_CAP}; p = {self.p}"
                )
            self._dlog = _dlog_table(self.p, self.generator)
        return self._dlog

    def dlog(self, n: int) -> int:
        """Discrete log of n (mod p) to the fixed generator; n must be nonzero mod p."""
        r = n % self.p
        if r == 0:
            raise DomainError("dlog(0) undefined")
        return int(self.dlog_array()[r])

    def root_powers(self):
        """numpy complex array of zeta^k = exp(2 pi i k/(p-1)) for k in [0, p-1).

        cos and sin run on one eighth of the circle (p = 1 mod 4) or one
        quarter (p = 3 mod 4); every other entry is an exact swap or
        negation of one of theirs.  With
        m = (p-1)/2, zeta^(k+m) = -zeta^k and zeta^(m-k) = -conj(zeta^k).
        For p = 3 mod 4, m is odd and cos and sin give k <= m/2 (angles in
        [0, pi/2)).  For p = 1 mod 4, q = m/2 is an integer, and also
        zeta^(q-k) = i conj(zeta^k) (re and im swapped) and
        zeta^(k+q) = i zeta^k; cos and sin give k < q/2 (angles in
        [0, pi/4)), and k = q/2, at angle pi/4, is sqrt(1/2) twice, so that
        every symmetry holds exactly.  The entries are written as (re, im)
        rows of the table's float view, and the angles are staged in its
        second half, filled last, so the build holds no temporary beyond
        two of about sqrt(p) elements.
        """
        if self._root_powers is None:
            import numpy as np

            m = (self.p - 1) // 2
            q = m // 2
            eighth = m % 2 == 0
            n = (q + 1) // 2 if eighth else q + 1
            roots = np.empty(self.p - 1, dtype=complex)
            xy = roots.view(float).reshape(-1, 2)
            # the integers k < n as row plus column offsets, then pi k/m
            stage = roots[m:].view(float)
            w = math.isqrt(n) + 1
            grid = stage[: -(-n // w) * w].reshape(-1, w)
            np.add.outer(np.arange(0, grid.size, w), np.arange(w), out=grid)
            angles = np.multiply(stage[:n], np.pi / m, out=stage[:n])
            np.cos(angles, out=xy[:n, 0])
            np.sin(angles, out=xy[:n, 1])
            if eighth:
                if q % 2 == 0:
                    xy[q // 2] = math.sqrt(0.5)
                # q/2 < k <= q from q-k by a swap of re and im
                xy[q // 2 + 1 : q + 1] = xy[q - q // 2 - 1 :: -1, ::-1]
                # q < k < m from k-q: i (x + iy) = -y + ix
                np.negative(xy[1:q, 1], out=xy[q + 1 : m, 0])
                xy[q + 1 : m, 1] = xy[1:q, 0]
            else:
                # q < k < m from m-k: -conj(x + iy) = -x + iy
                np.negative(xy[q:0:-1, 0], out=xy[q + 1 : m, 0])
                xy[q + 1 : m, 1] = xy[q:0:-1, 1]
            np.negative(roots[:m], out=roots[m:])
            self._root_powers = roots
        return self._root_powers

    def divisors_of_pm1(self) -> list[int]:
        return self.pm1_factors.divisors()

    def __repr__(self):
        return f"PrimeContext(p={self.p}, omega={self.omega}, g={self.generator})"


def iter_primes(start: int, stop: int) -> Iterator[int]:
    """Primes in [start, stop), deterministic test per candidate."""
    n = max(start, 2)
    if n % 2 == 0 and n > 2:
        n += 1
    while n < stop:
        if is_prime(n):
            yield n
        n += 1 if n == 2 else 2
