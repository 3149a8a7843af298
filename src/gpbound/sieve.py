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
characters of exact order d is the Ramanujan sum c_d(k), an integer given by
Hölder's formula c_d(k) = mu(d/(d,k)) phi(d)/phi(d/(d,k)) (O. Hölder,
Prace Mat.-Fiz. 43 (1936) 13-23; see ntcore.ramanujan_sum).  Only
squarefree d carry weight, and for those c_d(k) depends only on which
primes of d divide k.  So each right-hand side takes one exact rational
value per class of k, the set of relevant primes dividing k.  The worst-slack
checks still visit every n: one strided pass over k in [0, p-1) pairs each
k's class with its independently computed indicator, and every
(class, indicator) pair that occurs is checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, ConsistencyError, DomainError
from .ntcore import PrimeContext, ramanujan_sum, squarefree_divisors

# A right-hand side as (weight w, character order d): sum_j w_j c_{d_j}(k).
Terms = list[tuple[Fraction, int]]


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
    """delta = 1 - sum 1/q over the excluded primes q; exact rational."""
    return 1 - sum(Fraction(1, q) for q in excluded)


@dataclass(frozen=True)
class SieveConfig:
    """An even divisor e of p-1 with the excluded primes and their density.

    The excluded set is recomputed from the factorization of p-1 rather than
    trusted from the caller: delta is safety-critical downstream.
    """

    ctx: PrimeContext
    e: int
    excluded: tuple[int, ...]
    s: int
    delta: Fraction

    @classmethod
    def build(cls, ctx: PrimeContext, e: int) -> "SieveConfig":
        if e % 2 != 0:
            raise ConfigError(f"e must be even, got {e}")
        if (ctx.p - 1) % e != 0:
            raise ConfigError(f"e = {e} does not divide p-1 = {ctx.p - 1}")
        excluded = tuple(q for q in ctx.pm1_factors.primes if e % q != 0)
        delta = sieve_density(excluded)
        return cls(ctx=ctx, e=e, excluded=excluded, s=len(excluded), delta=delta)

    def require_positive_delta(self) -> None:
        if self.delta <= 0:
            raise ConfigError(f"delta = {self.delta} <= 0")

    def to_json(self) -> dict:
        return {
            "e": self.e,
            "excluded": list(self.excluded),
            "s": self.s,
            "delta": str(self.delta),
        }


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
    if (ctx.p - 1) % e != 0:
        raise DomainError(f"e = {e} must divide p-1")
    return tuple(q for q in ctx.pm1_factors.primes if e % q == 0)


def _theta(primes: tuple[int, ...]) -> Fraction:
    """phi(e)/e for the e whose primes these are."""
    return math.prod((Fraction(q - 1, q) for q in primes), start=Fraction(1))


def e_free(ctx: PrimeContext, e: int, n: int) -> int:
    """Indicator that n is e-free: via discrete log, no prime of e divides k."""
    primes = _primes_of(ctx, e)
    k = ctx.dlog(n)
    return int(all(k % q != 0 for q in primes))


def e_free_all(ctx: PrimeContext, e: int):
    """numpy bool array: the e-free indicator for all k in [0, p-1), indexed
    by discrete log."""
    import numpy as np

    mask = np.ones(ctx.p - 1, dtype=bool)
    for q in _primes_of(ctx, e):
        mask[::q] = False
    return mask


def _identity_terms(primes_e: tuple[int, ...]) -> Terms:
    """1 + sum_{d|e, d>1} (mu(d)/phi(d)) c_d: d = 1 is the leading 1, and
    non-squarefree d have mu(d) = 0."""
    return [(Fraction(mu, phi), d) for d, mu, phi in squarefree_divisors(primes_e)]


def _excluded_terms(p_i: int, primes_e: tuple[int, ...]) -> Terms:
    """sum_{d|e} (mu(p_i d)/phi(p_i d)) c_{p_i d}, d = 1 included; p_i does
    not divide e, so mu(p_i d) = -mu(d) and phi(p_i d) = (p_i - 1) phi(d)."""
    return [
        (Fraction(-mu, (p_i - 1) * phi), p_i * d)
        for d, mu, phi in squarefree_divisors(primes_e)
    ]


def _lower_bound_terms(config: SieveConfig, primes_e: tuple[int, ...]) -> Terms:
    terms = _identity_terms(primes_e)
    for p_i in config.excluded:
        scale = Fraction(p_i - 1, p_i) / config.delta  # theta(p_i)/delta
        terms += [(scale * w, d) for w, d in _excluded_terms(p_i, primes_e)]
    return terms


def _class_rhs(coefs: list[tuple[int, int]], k: int, primes: tuple[int, ...]) -> int:
    """sum_j a_j c_{d_j}(k) for integer weights a_j."""
    return sum(a * ramanujan_sum(d, k, primes) for a, d in coefs)


def _scaled(terms: Terms, *extra: Fraction) -> tuple[int, list[tuple[int, int]]]:
    """One common denominator for the weights (and the extra values), with
    the weights as integer numerators over it."""
    den = math.lcm(*(w.denominator for w, _ in terms), *(x.denominator for x in extra))
    return den, [(w.numerator * (den // w.denominator), d) for w, d in terms]


def _evaluate(ctx: PrimeContext, terms: Terms, k: int) -> Fraction:
    den, coefs = _scaled(terms)
    return Fraction(_class_rhs(coefs, k, ctx.pm1_factors.primes), den)


def _slacks_by_class(
    ctx: PrimeContext,
    key_primes: tuple[int, ...],
    terms: Terms,
    lhs_unit: Fraction,
    mask,
) -> tuple:
    """Exact lhs - rhs for every (class, f) pair that occurs over k in [0, p-1).

    k is coded 2 class + f, with f = mask[k] and bit i of the class set iff
    key_primes[i] divides k; the lhs is f lhs_unit.  Every order d in the
    terms is squarefree over key_primes, so the rhs is constant on a class
    and is evaluated at the product of the class's primes.  Slacks are
    integer numerators over one common denominator, which is returned with
    them and with the code of every k (a numpy array, like `mask`).
    """
    import numpy as np

    codes = mask.astype(np.intp)
    for i, q in enumerate(key_primes):
        codes[::q] |= 2 << i
    den, coefs = _scaled(terms, lhs_unit)
    lhs = lhs_unit.numerator * (den // lhs_unit.denominator)
    primes = ctx.pm1_factors.primes
    slacks = {}
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        rep = math.prod(q for i, q in enumerate(key_primes) if code >> (i + 1) & 1)
        slacks[code] = (code & 1) * lhs - _class_rhs(coefs, rep, primes)
    return slacks, den, codes


def fe_character_identity_check(ctx: PrimeContext, e: int, n: int) -> float:
    """|f_e(n)/theta(e) - RHS| for the displayed identity, exactly (so 0.0);
    raises ConsistencyError if it is not zero."""
    primes_e = _primes_of(ctx, e)
    lhs = e_free(ctx, e, n) / _theta(primes_e)
    slack = abs(lhs - _evaluate(ctx, _identity_terms(primes_e), ctx.dlog(n)))
    if slack != 0:
        raise ConsistencyError(
            f"f_e identity violated at p={ctx.p}, e={e}, n={n}: slack={slack}"
        )
    return float(slack)


def fe_identity_worst_slack(ctx: PrimeContext, e: int) -> float:
    """Worst |f_e(n)/theta(e) - RHS| over every n in [1, p-1], exactly:
    0.0 unless the identity fails."""
    primes_e = _primes_of(ctx, e)
    slacks, den, _ = _slacks_by_class(
        ctx, primes_e, _identity_terms(primes_e), 1 / _theta(primes_e), e_free_all(ctx, e)
    )
    return float(Fraction(max(abs(s) for s in slacks.values()), den))


def sieve_lower_bound_check(config: SieveConfig, n: int) -> float:
    """Slack f(n)/(delta theta(e)) - RHS, exactly; raises ConsistencyError
    if it is negative."""
    config.require_positive_delta()
    ctx = config.ctx
    primes_e = _primes_of(ctx, config.e)
    f = e_free(ctx, ctx.p - 1, n)
    lhs = f / (config.delta * _theta(primes_e))
    rhs = _evaluate(ctx, _lower_bound_terms(config, primes_e), ctx.dlog(n))
    slack = lhs - rhs
    if slack < 0:
        raise ConsistencyError(
            f"sieve lower bound violated at p={ctx.p}, e={config.e}, n={n}: "
            f"lhs={lhs} rhs={rhs}"
        )
    return float(slack)


def sieve_lower_bound_worst_slack(config: SieveConfig) -> float:
    """min over every n of f(n)/(delta theta(e)) - RHS, exactly; raises
    ConsistencyError on a breach."""
    config.require_positive_delta()
    ctx = config.ctx
    primes_e = _primes_of(ctx, config.e)
    slacks, den, codes = _slacks_by_class(
        ctx,
        ctx.pm1_factors.primes,
        _lower_bound_terms(config, primes_e),
        1 / (config.delta * _theta(primes_e)),
        e_free_all(ctx, ctx.p - 1),
    )
    code = min(slacks, key=slacks.__getitem__)
    worst = Fraction(slacks[code], den)
    if worst < 0:
        k = int((codes == code).argmax())  # the first k of the class
        n = pow(ctx.generator, k, ctx.p)
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
    ctx = config.ctx
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
        expansion = theta_i * _theta(primes_e) * _evaluate(
            ctx, _excluded_terms(p_i, primes_e), k
        )
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
