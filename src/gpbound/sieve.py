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
every class's right-hand side at once: put each term's weight at its d's
bitmask, then map (x0, x1) -> (x0 - x1, x0 + (q-1) x1) across each key
prime q's bit.  Each check keeps its weights as integers over one
denominator: mu(d)/phi(d) is mu(d) phi(rad e)/phi(d) over phi(rad e).  The
worst-slack checks visit every n by visiting every class.  The key primes
are those of the indicator on the left (the primes of e in the identity,
every prime of p-1 in the bound, whose f is the primitive-root indicator),
so it is 1 exactly on class 0, where no key prime divides k.  Their product
P divides p-1, so every class occurs in [0, p-1): its first k is the
product of its primes, below P, except for the class of every key prime,
whose first k is 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property

from .errors import ConfigError, ConsistencyError, DomainError
from .ntcore import PrimeContext, first_primes, squarefree_divisors

# A right-hand side as (integer weight a, character order d) over a
# denominator kept beside it: sum_j a_j c_{d_j}(k).
Terms = list[tuple[int, int]]


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

    Each constructor works from evidence, and __post_init__ checks it, so a
    direct call cannot get round it:
    - `build(ctx, e)`, at one prime: e is an even divisor of p-1, and
      omega, the excluded primes and delta come from the proved
      factorization in ctx;
    - `worst_case(omega, s)`, over a threshold: no ctx, and delta is at
      most worst_case_delta(omega, s), its least value at any prime.
    """

    omega: int
    s: int
    delta: Fraction
    ctx: PrimeContext | None = None
    e: int | None = None
    excluded: tuple[int, ...] = ()

    @classmethod
    def build(cls, ctx: PrimeContext, e: int) -> "SieveConfig":
        return cls(ctx=ctx, e=e, **_evidence(ctx, e))

    @classmethod
    def worst_case(cls, omega: int, s: int) -> "SieveConfig":
        return cls(omega=omega, s=s, delta=worst_case_delta(omega, s))

    def __post_init__(self):
        if self.ctx is None:
            if self.delta > worst_case_delta(self.omega, self.s):
                raise ConfigError(
                    f"delta = {self.delta} exceeds the worst case for omega = "
                    f"{self.omega}, s = {self.s}"
                )
        elif any(getattr(self, k) != v for k, v in _evidence(self.ctx, self.e).items()):
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


def _phi_rad(primes: tuple[int, ...]) -> int:
    """phi(rad e) for the e whose primes these are."""
    return math.prod(q - 1 for q in primes)


def e_free(ctx: PrimeContext, e: int, n: int) -> int:
    """Indicator that n is e-free: via discrete log, no prime of e divides k."""
    primes = _primes_of(ctx, e)
    k = ctx.dlog(n)
    return int(all(k % q != 0 for q in primes))


def _identity_terms(primes_e: tuple[int, ...]) -> Terms:
    """1 + sum_{d|e, d>1} (mu(d)/phi(d)) c_d over phi(rad e), with weights
    mu(d) phi(rad e)/phi(d): d = 1 is the leading 1, and non-squarefree d
    have mu(d) = 0."""
    phi_rad = _phi_rad(primes_e)
    return [(mu * (phi_rad // phi), d) for d, mu, phi in squarefree_divisors(primes_e)]


def _excluded_terms(p_i: int, primes_e: tuple[int, ...]) -> Terms:
    """sum_{d|e} (mu(p_i d)/phi(p_i d)) c_{p_i d} over (p_i - 1) phi(rad e),
    d = 1 included; p_i does not divide e, so mu(p_i d) = -mu(d) and
    phi(p_i d) = (p_i - 1) phi(d)."""
    return [(-a, p_i * d) for a, d in _identity_terms(primes_e)]


def _lower_bound_check(config: SieveConfig, primes_e: tuple[int, ...]) -> tuple[Terms, int, int]:
    """The bound's right-hand side, its left-hand side on class 0 and their
    denominator.  With delta = N/P for the product P of the excluded primes,
    theta(p_i)/delta times the excluded weights over (p_i - 1) phi(rad e) is
    P/p_i times them over N phi(rad e), and 1/(delta theta(e)) is P rad(e)
    over N phi(rad e)."""
    P = math.prod(config.excluded)
    N = (config.delta * P).numerator
    terms = [(N * a, d) for a, d in _identity_terms(primes_e)]
    for p_i in config.excluded:
        terms += [(P // p_i * a, d) for a, d in _excluded_terms(p_i, primes_e)]
    return terms, P * math.prod(primes_e), N * _phi_rad(primes_e)


def _class_of(k: int, key_primes: tuple[int, ...]) -> int:
    """The bitmask of k's class: bit i set iff key_primes[i] divides k."""
    return sum(1 << i for i, q in enumerate(key_primes) if k % q == 0)


def _rhs_by_class(coefs: list[tuple[int, int]], key_primes: tuple[int, ...]) -> list[int]:
    """sum_j a_j c_{d_j}(k) for integer weights a_j, for every class of k,
    indexed by _class_of; every d_j is squarefree over key_primes."""
    x = [0] * (1 << len(key_primes))
    for a, d in coefs:
        x[_class_of(d, key_primes)] += a
    for i, q in enumerate(key_primes):
        bit = 1 << i
        for m in range(len(x)):
            if not m & bit:
                x[m], x[m | bit] = x[m] - x[m | bit], x[m] + (q - 1) * x[m | bit]
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
    # the lhs 1/theta(e) is rad(e) over phi(rad e)
    slacks = _slacks_by_class(primes_e, _identity_terms(primes_e), math.prod(primes_e))
    return float(Fraction(max(map(abs, slacks)), _phi_rad(primes_e)))


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
    primes_e = _primes_of(ctx, config.e)
    primes = ctx.pm1_factors.primes
    terms, lhs, den = _lower_bound_check(config, primes_e)
    slacks = _slacks_by_class(primes, terms, lhs)
    cls = min(range(len(slacks)), key=slacks.__getitem__)
    worst = Fraction(slacks[cls], den)
    if worst < 0:
        n = pow(ctx.generator, _first_k(cls, primes), ctx.p)
        raise ConsistencyError(
            f"sieve lower bound violated at p={ctx.p}, e={config.e}, n={n}: "
            f"slack={worst}"
        )
    return float(worst)


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

    rhs_exact = Fraction(0)
    worst_expansion = Fraction(0)
    for p_i in config.excluded:
        theta_i = Fraction(p_i - 1, p_i)
        term = e_free(ctx, p_i * e, n) - theta_i * f_e_val
        rhs_exact += term
        # theta(p_i e) = (p_i - 1) phi(rad e)/(p_i rad e) times the excluded
        # terms over (p_i - 1) phi(rad e)
        key = (p_i, *primes_e)
        rhs = _rhs_by_class(_excluded_terms(p_i, primes_e), key)[_class_of(k, key)]
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
