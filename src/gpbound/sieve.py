"""The e-free sieve.

n is e-free when y^d = n (mod p) is insoluble for every divisor d > 1 of e;
(p-1)-free means primitive root.  In the cyclic group written to the fixed
generator, n = g^k is e-free iff no prime divisor of e divides k, which is
how every indicator here is computed (exactly, O(omega(e)) per query).

The module verifies the two displayed identities behind the sieve bound and
the bound itself:

    f_e(n)/theta(e) = 1 + sum_{d|e, d>1} (mu(d)/phi(d)) sum_{ord chi = d} chi(n)

    f(n)/(delta theta(e)) >= 1
        + (1/delta) sum_i theta(p_i) sum_{d|e} (mu(p_i d)/phi(p_i d)) sum_{ord = p_i d} chi(n)
        + sum_{d|e, d>1} (mu(d)/phi(d)) sum_{ord = d} chi(n)

(the excluded-prime inner sum deliberately includes d = 1, as displayed).

Every check is exact, with no float tolerance.  At n = g^k the sum over the
characters of exact order d is the Ramanujan sum c_d(k), an integer.  Only
squarefree d carry weight, and for those c_d(k) = prod_{q | d} c_q(k), with
c_q(k) = q-1 if q | k and -1 otherwise: both follow from Hölder's formula
c_d(k) = mu(d/(d,k)) phi(d)/phi(d/(d,k)) (O. Hölder, Prace Mat.-Fiz. 43
(1936) 13-23).  So c_d(k) depends only on the class of k, the set of key
primes dividing k, and one integer transform over the key primes gives
every class's right-hand side at once: the weight of each squarefree d
sits at d's bitmask, the subset of key primes whose product is d, and the
transform maps (x0, x1) -> (x0 - x1, x0 + (q-1) x1) across each key prime
q's bit.  Each check keeps its weights as integers over one denominator:
mu(d)/phi(d) is mu(d) phi(rad e)/phi(d) over phi(rad e).  The weights are
built straight at their masks, one doubling per prime of e (the subsets
with q are those without it, with d times q), and the lower bound places
the identity's weights once more for each excluded prime, at masks with
that prime's bit set.  The worst-slack checks visit every n by visiting
every class, and return one integer division, correctly rounded: the
float of the exact rational, which is built only for a breach's message.
The key primes are those of the indicator on the left (the primes of e in
the identity, every prime of p-1 in the bound, whose f is the
primitive-root indicator), so it is 1 exactly on class 0, where no key
prime divides k.  Their product P divides p-1, so every class occurs in
[0, p-1): its first k is the product of its primes, below P, except for
the class of every key prime, whose first k is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import ConfigError, ConsistencyError, DomainError
from .ntcore import PrimeContext, first_primes

# A right-hand side as integer weights over a denominator kept beside it,
# the weight of each squarefree d at d's bitmask over the key primes:
# sum_m a_m c_{d_m}(k), d_m the product of mask m's primes.
Terms = list[int]


def sieve_factor(omega: int, s: int, delta: Fraction) -> Fraction:
    """F = (2 + (s-1)/delta) 2^(omega-s); exact rational, F = 2^omega at s=0."""
    if omega < 1 or s < 0:
        raise ConfigError(f"need omega >= 1 and s >= 0, got omega = {omega}, s = {s}")
    if s == 0:
        return Fraction(2**omega)
    if delta <= 0:
        raise ConfigError(f"delta = {delta} <= 0")
    if s > omega:
        raise ConfigError(f"s = {s} exceeds omega = {omega}")
    return (2 + Fraction(s - 1) / delta) * 2 ** (omega - s)


def sieve_density(excluded) -> Fraction:
    """delta = 1 - sum 1/q over the excluded primes q; exact rational, in
    one division over P = prod q."""
    P = math.prod(excluded)
    return Fraction(P - sum(P // q for q in excluded), P)


@cache  # worst_case computes it, and __post_init__ again to check it
def worst_case_delta(omega: int, s: int) -> Fraction:
    """Lower bound for delta when the s largest of omega primes are excluded.

    The excluded primes, sorted, are at least q_(omega-s+1), ..., q_omega.
    """
    if not 0 <= s < omega:
        raise DomainError(f"need 0 <= s < omega, got s={s}, omega={omega}")
    return sieve_density(first_primes(omega)[omega - s :])


def _evidence(ctx: PrimeContext, e: int) -> dict:
    """The fields that the factorization of p-1 fixes for an even e | p-1."""
    if not isinstance(e, int) or e <= 0 or e % 2 != 0:
        raise ConfigError(f"e must be an even positive integer, got {e!r}")
    if (ctx.p - 1) % e != 0:
        raise ConfigError(f"e = {e} does not divide p-1 = {ctx.p - 1}")
    excluded = tuple(q for q in ctx.pm1_factors.primes if e % q != 0)
    return {
        "omega": ctx.omega,
        "s": len(excluded),
        "delta": sieve_density(excluded),
        "excluded": excluded,
    }


@dataclass(frozen=True)
class SieveConfig:
    """The sieve behind a certificate: s of the omega primes of p-1 are
    excluded, with density delta, and F = sieve_factor(omega, s, delta).

    Each constructor works from evidence, and __post_init__ derives or
    checks it, so a direct call cannot get round it:
    - `build(ctx, e)`, at one prime: e is an even divisor of p-1, and
      omega, the excluded primes and delta come from the proved
      factorization in ctx, in one pass; a field that a direct call
      passes must agree with them;
    - `worst_case(omega, s)`, over a threshold: no ctx, and delta is at
      most worst_case_delta(omega, s), its least value at any prime.
    """

    omega: int | None = None
    s: int | None = None
    delta: Fraction | None = None
    ctx: PrimeContext | None = None
    e: int | None = None
    excluded: tuple[int, ...] | None = None

    @classmethod
    def build(cls, ctx: PrimeContext, e: int) -> "SieveConfig":
        return cls(ctx=ctx, e=e)

    @classmethod
    def worst_case(cls, omega: int, s: int) -> "SieveConfig":
        return cls(omega=omega, s=s, delta=worst_case_delta(omega, s))

    def __post_init__(self):
        """A field left as None is filled in, once: from one _evidence pass
        at a prime, or () for the excluded primes of a ctx-less sieve.  A
        field the caller passed must agree with the evidence."""
        if self.ctx is None:
            if None in (self.omega, self.s, self.delta):
                raise ConfigError("a sieve without a prime needs omega, s and delta")
            if self.delta > worst_case_delta(self.omega, self.s):
                raise ConfigError(
                    f"delta = {self.delta} exceeds the worst case for omega = "
                    f"{self.omega}, s = {self.s}"
                )
            if self.excluded is None:
                object.__setattr__(self, "excluded", ())
            return
        for k, v in _evidence(self.ctx, self.e).items():
            given = getattr(self, k)
            if given is None:
                object.__setattr__(self, k, v)  # frozen, so set through object
            elif given != v:
                raise ConfigError(
                    f"sieve fields disagree with the factorization of p-1 = {self.ctx.p - 1}"
                )

    @property
    def e_desc(self) -> str:
        if self.ctx is None:
            return f"p-1 with the {self.s} largest primes excluded"
        return str(self.e) if self.excluded else "p-1"

    @cached_property
    def factor(self) -> Fraction:
        return sieve_factor(self.omega, self.s, self.delta)

    def to_json(self) -> dict:
        return {"e_desc": self.e_desc, "s": self.s, "delta": str(self.delta)}

    def require_positive_delta(self) -> None:
        if self.delta <= 0:
            raise ConfigError(f"delta = {self.delta} <= 0")


def admissible_configs(ctx: PrimeContext) -> list[SieveConfig]:
    """Every even divisor of p-1 whose excluded primes keep delta > 0."""
    out = []
    for e in ctx.divisors_of_pm1():
        if e % 2 != 0:
            continue
        cfg = SieveConfig.build(ctx, e)
        if cfg.delta > 0:
            out.append(cfg)
    return out


def _primes_of(ctx: PrimeContext, e: int) -> tuple[int, ...]:
    """The primes of e, taken from the factorization of p-1."""
    if not isinstance(e, int) or e <= 0 or (ctx.p - 1) % e != 0:
        raise DomainError(f"e = {e!r} must be a positive integer dividing p-1")
    return tuple(q for q in ctx.pm1_factors.primes if e % q == 0)


def e_free(ctx: PrimeContext, e: int, n: int) -> int:
    """Indicator that n is e-free: via discrete log, no prime of e divides k."""
    primes = _primes_of(ctx, e)
    k = ctx.dlog(n)
    return int(all(k % q != 0 for q in primes))


def _identity_terms(primes_e: tuple[int, ...]) -> Terms:
    """1 + sum_{d|e, d>1} (mu(d)/phi(d)) c_d over phi(rad e), with weights
    mu(d) phi(rad e)/phi(d) at d's bitmask over primes_e: d = 1 is the
    leading 1, and non-squarefree d have mu(d) = 0.  Each prime q doubles
    the list: the subsets with q are those without it, with d times q, so
    the weight divides by -(q - 1), exactly, since phi(rad e) holds q - 1."""
    terms = [math.prod(q - 1 for q in primes_e)]
    for q in primes_e:
        terms += [-a // (q - 1) for a in terms]
    return terms


def _lower_bound_check(config: SieveConfig, primes_e: tuple[int, ...]) -> tuple[Terms, int, int]:
    """The bound's terms over every prime of p-1, its left-hand side on
    class 0 and their denominator.  With delta = N/P for the product P of
    the excluded primes, N = P - sum P/q, the identity's terms count N
    times; p_i's excluded sum, d = 1 included, is the identity's terms
    negated with p_i's bit set in each mask (p_i does not divide e, so
    mu(p_i d) = -mu(d) and phi(p_i d) = (p_i - 1) phi(d)), and
    theta(p_i)/delta times it over (p_i - 1) phi(rad e) is P/p_i times it
    over N phi(rad e).  1/(delta theta(e)) is P rad(e) = rad(p-1) over
    N phi(rad e)."""
    primes = _context(config).pm1_factors.primes
    P = math.prod(config.excluded)
    N = P - sum(P // q for q in config.excluded)
    identity = _identity_terms(primes_e)
    masks = [0]  # the bitmask over the primes of p-1 of each subset of primes_e
    for i, q in enumerate(primes):
        if config.e % q == 0:
            masks += [m | 1 << i for m in masks]
    terms = [0] * (1 << len(primes))
    for m, a in zip(masks, identity):
        terms[m] = N * a
    for i, q in enumerate(primes):
        if config.e % q != 0:
            bit, weight = 1 << i, -(P // q)
            for m, a in zip(masks, identity):
                terms[m | bit] = weight * a
    return terms, math.prod(primes), N * identity[0]


def _class_of(k: int, key_primes: tuple[int, ...]) -> int:
    """The bitmask of k's class: bit i set iff key_primes[i] divides k."""
    return sum(1 << i for i, q in enumerate(key_primes) if k % q == 0)


def _rhs_by_class(terms: Terms, key_primes: tuple[int, ...]) -> list[int]:
    """sum_m a_m c_{d_m}(k), d_m the product of mask m's primes, for every
    class of k, indexed by _class_of.  Each step maps (x0, x1) ->
    (x0 - x1, x0 + (q-1) x1) across the lowest bit, q's, and writes the
    two halves one after the other, which moves every bit down by one: after
    one step per key prime each bit is back in place, transformed once."""
    x = terms
    for q in key_primes:
        lo, hi = x[0::2], x[1::2]
        x = [a - b for a, b in zip(lo, hi)] + [a + (q - 1) * b for a, b in zip(lo, hi)]
    return x


def _first_k(cls: int, key_primes: tuple[int, ...]) -> int:
    """The first k in [0, p-1) of a class: the product of its primes, or 0
    for the class of every key prime."""
    primes = [q for i, q in enumerate(key_primes) if cls >> i & 1]
    return 0 if len(primes) == len(key_primes) else math.prod(primes)


def _slacks_by_class(key_primes: tuple[int, ...], terms: Terms, lhs: int) -> list[int]:
    """Exact lhs - rhs on every class of k, indexed by _class_of, over the
    denominator of the terms: the lhs is `lhs` on class 0 and 0 elsewhere."""
    slacks = [-x for x in _rhs_by_class(terms, key_primes)]
    slacks[0] += lhs
    return slacks


def fe_identity_worst_slack(ctx: PrimeContext, e: int) -> float:
    """Worst |f_e(n)/theta(e) - RHS| over every n in [1, p-1], exactly:
    0.0 unless the identity fails."""
    primes_e = _primes_of(ctx, e)
    terms = _identity_terms(primes_e)
    # the lhs 1/theta(e) is rad(e) over phi(rad e), the weight of d = 1
    slacks = _slacks_by_class(primes_e, terms, math.prod(primes_e))
    return max(map(abs, slacks)) / terms[0]


def _context(config: SieveConfig) -> PrimeContext:
    """The prime a sieve was built at; a worst-case sieve has none."""
    if config.ctx is None:
        raise ConfigError("a worst-case sieve has no prime: use SieveConfig.build(ctx, e)")
    return config.ctx


def sieve_lower_bound_worst_slack(config: SieveConfig) -> float:
    """min over every n of f(n)/(delta theta(e)) - RHS, exactly; raises
    ConsistencyError on a breach."""
    config.require_positive_delta()
    ctx = _context(config)
    primes = ctx.pm1_factors.primes
    terms, lhs, den = _lower_bound_check(config, _primes_of(ctx, config.e))
    slacks = _slacks_by_class(primes, terms, lhs)
    worst = min(slacks)
    if worst < 0:
        n = pow(ctx.generator, _first_k(slacks.index(worst), primes), ctx.p)
        raise ConsistencyError(
            f"sieve lower bound violated at p={ctx.p}, e={config.e}, n={n}: "
            f"slack={Fraction(worst, den)}"
        )
    return worst / den


def intermediate_identities_check(config: SieveConfig, n: int) -> dict:
    """Check the two proof-level displays at one n, both in exact rationals.

    (a) f_{p-1}(n) >= sum_i (f_{p_i e}(n) - theta(p_i) f_e(n)) + delta f_e(n)
    (b) f_{p_i e}(n) - theta(p_i) f_e(n)
        = theta(p_i e) sum_{d|e} (mu(p_i d)/phi(p_i d)) sum_{ord = p_i d} chi(n)
    """
    ctx = _context(config)
    e = config.e
    primes_e = _primes_of(ctx, e)
    k = ctx.dlog(n)
    f_full = e_free(ctx, ctx.p - 1, n)
    f_e_val = e_free(ctx, e, n)

    # sum_{d|e} (mu(p_i d)/phi(p_i d)) c_{p_i d} over (p_i - 1) phi(rad e),
    # d = 1 included, has the identity's terms negated, with p_i's bit on
    # top of each mask; theta(p_i e) is (p_i - 1) phi(rad e)/(p_i rad e)
    identity = _identity_terms(primes_e)
    excluded_terms = [0] * len(identity) + [-a for a in identity]
    rhs_exact = Fraction(0)
    worst_expansion = Fraction(0)
    for p_i in config.excluded:
        theta_i = Fraction(p_i - 1, p_i)
        term = e_free(ctx, p_i * e, n) - theta_i * f_e_val
        rhs_exact += term
        key = (*primes_e, p_i)
        rhs = _rhs_by_class(excluded_terms, key)[_class_of(k, key)]
        expansion = Fraction(rhs, p_i * math.prod(primes_e))
        worst_expansion = max(worst_expansion, abs(term - expansion))
    rhs_exact += config.delta * f_e_val

    combinatorial_ok = Fraction(f_full) >= rhs_exact
    if not combinatorial_ok:
        raise ConsistencyError(
            f"combinatorial sieve inequality violated at p={ctx.p}, e={e}, n={n}"
        )
    if worst_expansion != 0:
        raise ConsistencyError(
            f"character expansion of f_pe - theta f_e off by {worst_expansion}"
        )
    return {
        "n": n,
        "combinatorial_ok": combinatorial_ok,
        "combinatorial_margin": float(Fraction(f_full) - rhs_exact),
        "expansion_worst_error": float(worst_expansion),
    }
