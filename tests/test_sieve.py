"""Sieve: e-free indicators, the character identity, and the lower-bound
inequality, with the order-test oracle as the independent route.  Every
identity and bound is checked exactly: slacks are compared with 0, not with
a tolerance.  The class transform is pinned term by term against Hölder's
formula, and the enumeration of the classes, one representative each,
against the scan over every k in [0, p-1)."""

import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction
from functools import cache, partial

import numpy as np
import pytest
from hoelder import ramanujan_sum

from gpbound import sieve
from gpbound.errors import ConfigError, ConsistencyError, DomainError
from gpbound.ntcore import PrimeContext, first_primes, is_primitive_root, primes_upto
from gpbound.sieve import (
    SieveConfig,
    admissible_configs,
    e_free,
    fe_identity_worst_slack,
    intermediate_identities_check,
    sieve_density,
    sieve_factor,
    sieve_lower_bound_worst_slack,
    worst_case_delta,
)


def euler_criterion_square(ctx: PrimeContext, n: int) -> bool:
    return pow(n, (ctx.p - 1) // 2, ctx.p) == 1


@pytest.fixture(scope="module")
def ctx13():
    return PrimeContext(13)


@pytest.fixture(scope="module")
def ctx61():
    return PrimeContext(61)


def test_e_free_quadratic(ctx13):
    # e=2: e-free means non-square; check against Euler's criterion
    for n in range(1, 13):
        assert e_free(ctx13, 2, n) == (0 if euler_criterion_square(ctx13, n) else 1)
    assert e_free(ctx13, 2, 2) == 1
    assert e_free(ctx13, 2, 4) == 0


def test_full_e_freeness_is_primitive_root(ctx13, ctx61):
    for ctx in (ctx13, ctx61):
        for n in range(1, ctx.p):
            assert e_free(ctx, ctx.p - 1, n) == is_primitive_root(n, ctx.p)


def test_e_free_one_never(ctx13):
    assert e_free(ctx13, 2, 1) == 0  # 1 = y^d is always soluble


def test_e_free_monotone_in_divisibility(ctx61):
    # e | e' implies freeness for e' is at most freeness for e, at every n
    divisors = [e for e in ctx61.divisors_of_pm1() if e > 1]
    free = {e: [e_free(ctx61, e, n) for n in range(1, 61)] for e in divisors}
    for e in divisors:
        for e2 in divisors:
            if e2 % e == 0:
                assert all(a <= b for a, b in zip(free[e2], free[e])), (e, e2)


def test_config_recomputes_excluded(ctx61):
    cfg = SieveConfig.build(ctx61, 4)
    assert cfg.excluded == (3, 5)
    assert cfg.s == 2
    assert cfg.delta == Fraction(7, 15)
    factor = sieve_factor(ctx61.omega, cfg.s, cfg.delta)
    assert factor == (2 + Fraction(1) / Fraction(7, 15)) * 2


def test_sieve_density_matches_termwise_sum():
    qs = first_primes(400)
    slices = [qs[i:j] for i in range(0, 400, 23) for j in range(i + 1, 401, 29)]
    for excluded in [[], qs, *slices]:
        got = sieve_density(excluded)
        assert isinstance(got, Fraction)
        assert got == 1 - sum(Fraction(1, q) for q in excluded), excluded


def test_config_rejects_bad_e(ctx61):
    with pytest.raises(ConfigError):
        SieveConfig.build(ctx61, 3)  # odd
    with pytest.raises(ConfigError):
        SieveConfig.build(ctx61, 8)  # not a divisor
    for e in (0, -2, -60, None, 4.0, "4"):
        with pytest.raises(ConfigError, match="even positive integer"):
            SieveConfig.build(ctx61, e)
    # a direct call with a context but no e
    with pytest.raises(ConfigError, match="even positive integer, got None"):
        SieveConfig(omega=3, s=0, delta=Fraction(1), ctx=ctx61)


_FORGED = {"omega": 2, "s": 1, "delta": Fraction(1, 2), "excluded": (3,)}


@pytest.mark.parametrize("field", _FORGED)
def test_config_fields_must_agree_with_the_context(ctx61, field):
    # p-1 = 60 = 2^2 3 5, and e = 4 excludes 3 and 5: omega 3, s 2, delta 7/15
    fields = {"omega": 3, "s": 2, "delta": Fraction(7, 15), "excluded": (3, 5)}
    assert SieveConfig(ctx=ctx61, e=4, **fields) == SieveConfig.build(ctx61, 4)
    with pytest.raises(ConfigError, match="disagree with the factorization of p-1 = 60"):
        SieveConfig(ctx=ctx61, e=4, **{**fields, field: _FORGED[field]})


def test_config_fills_its_fields_from_one_evidence_pass(ctx61, monkeypatch):
    # build passes only ctx and e; __post_init__ derives the rest in one
    # pass.  A ctx-less sieve has no evidence, so it must be given them all
    passes = []
    evidence = sieve._evidence
    monkeypatch.setattr(sieve, "_evidence", lambda *args: passes.append(args) or evidence(*args))
    cfg = SieveConfig.build(ctx61, 4)
    assert len(passes) == 1
    assert (cfg.omega, cfg.s, cfg.delta, cfg.excluded) == (3, 2, Fraction(7, 15), (3, 5))
    assert SieveConfig.worst_case(12, 9).excluded == ()
    for fields in ({"s": 0, "delta": Fraction(1)}, {"omega": 3, "delta": Fraction(1)},
                   {"omega": 3, "s": 0}):
        with pytest.raises(ConfigError, match="needs omega, s and delta"):
            SieveConfig(**fields)


def test_worst_case_config_takes_no_delta_above_the_worst_case():
    cfg = SieveConfig.worst_case(12, 9)
    assert cfg.ctx is None and cfg.delta == worst_case_delta(12, 9) > 0
    # a smaller delta only raises F, so it is sound; a larger one is not
    low = SieveConfig(omega=12, s=9, delta=cfg.delta / 2)
    assert low.factor > cfg.factor
    with pytest.raises(ConfigError, match="exceeds the worst case"):
        SieveConfig(omega=12, s=9, delta=cfg.delta + Fraction(1, 10**9))
    with pytest.raises(ConfigError, match="exceeds the worst case"):
        SieveConfig(omega=3, s=0, delta=Fraction(2))
    for omega, s in ((3, 3), (3, -1), (0, 0)):
        with pytest.raises(DomainError, match="0 <= s < omega"):
            SieveConfig.worst_case(omega, s)


def test_identity_checks_need_a_sieve_built_at_a_prime(ctx61):
    worst = SieveConfig.worst_case(3, 1)
    for check in (sieve_lower_bound_worst_slack,
                  lambda cfg: intermediate_identities_check(cfg, 2)):
        with pytest.raises(ConfigError, match="worst-case sieve has no prime"):
            check(worst)
    assert sieve_lower_bound_worst_slack(SieveConfig.build(ctx61, 4)) >= 0


def test_config_e_desc(ctx61):
    assert SieveConfig.build(ctx61, 60).e_desc == "p-1"
    assert SieveConfig.build(ctx61, 30).e_desc == "p-1"  # same primes as p-1
    assert SieveConfig.build(ctx61, 4).to_json() == {"e_desc": "4", "s": 2, "delta": "7/15"}
    assert SieveConfig.worst_case(5, 0).e_desc == "p-1 with the 0 largest primes excluded"


def test_config_factor_s0(ctx13):
    cfg = SieveConfig.build(ctx13, 12)
    assert cfg.s == 0 and cfg.delta == 1
    assert sieve_factor(ctx13.omega, cfg.s, cfg.delta) == 2**ctx13.omega


def test_identity_examples(ctx13):
    for e in (2, 4, 12):
        assert fe_identity_worst_slack(ctx13, e) == 0


def test_identity_all_even_divisors_to_300():
    for p in primes_upto(300):
        if p < 3:
            continue
        ctx = PrimeContext(p)
        for e in ctx.divisors_of_pm1():
            if e % 2 == 0:
                assert fe_identity_worst_slack(ctx, e) == 0, (p, e)


def test_lower_bound_examples(ctx13, ctx61):
    cfg = SieveConfig.build(ctx13, 4)
    assert sieve_lower_bound_worst_slack(cfg) >= 0  # raises on breach
    cfg61 = SieveConfig.build(ctx61, 4)
    assert cfg61.delta == Fraction(7, 15)
    assert sieve_lower_bound_worst_slack(cfg61) >= 0


def test_lower_bound_s0_reduces_to_identity(ctx13):
    # empty excluded set: equality with the f_e identity at e = p-1
    cfg = SieveConfig.build(ctx13, 12)
    worst = sieve_lower_bound_worst_slack(cfg)
    assert worst == 0


def test_lower_bound_all_admissible_to_300():
    for p in primes_upto(300):
        if p < 3:
            continue
        ctx = PrimeContext(p)
        for cfg in admissible_configs(ctx):
            assert sieve_lower_bound_worst_slack(cfg) >= 0, (p, cfg.e)


def test_intermediate_identities(ctx61):
    cfg = SieveConfig.build(ctx61, 4)
    g = ctx61.generator
    assert intermediate_identities_check(cfg, g)["combinatorial_ok"]  # primitive root
    assert intermediate_identities_check(cfg, 1)["combinatorial_ok"]  # all zeros
    for n in (2, 3, 17, 59):
        rep = intermediate_identities_check(cfg, n)
        assert rep["combinatorial_margin"] >= 0
        assert rep["expansion_worst_error"] == 0


def _perturb_coprime_class(monkeypatch):
    """Add 1 to the right-hand-side numerator of the class of k coprime to
    every key prime: the e-free class of the identity, and the primitive
    roots, where the lower bound is tight."""
    original = sieve._rhs_by_class

    def perturbed(coefs, key_primes):
        rhs = original(coefs, key_primes)
        rhs[0] += 1
        return rhs

    monkeypatch.setattr(sieve, "_rhs_by_class", perturbed)


def test_exact_checks_catch_a_perturbed_class(ctx61, monkeypatch):
    cfg = SieveConfig.build(ctx61, 4)
    assert fe_identity_worst_slack(ctx61, 4) == 0
    assert sieve_lower_bound_worst_slack(cfg) >= 0
    _perturb_coprime_class(monkeypatch)
    assert fe_identity_worst_slack(ctx61, 4) != 0
    # the breach is reported at the first n of the class, the generator
    with pytest.raises(ConsistencyError, match=f"n={ctx61.generator}: "):
        sieve_lower_bound_worst_slack(cfg)


def test_sieve_checks_leave_context_unchanged():
    ctx = PrimeContext(61)
    before = dict(vars(ctx))
    lazy = {"_dlog", "_root_powers"}
    for e in ctx.divisors_of_pm1():
        if e % 2 == 0:
            fe_identity_worst_slack(ctx, e)
    for cfg in admissible_configs(ctx):
        sieve_lower_bound_worst_slack(cfg)
        for n in range(1, ctx.p):
            intermediate_identities_check(cfg, n)
    after = vars(ctx)
    assert set(after) == set(before)
    assert all(after[key] is before[key] for key in set(before) - lazy)


def _identity_checks(ctx, e_max):
    """(key primes, mask e, terms, lhs) of the identity at every even
    e <= e_max; the lhs 1/theta(e) is rad(e) over the terms' phi(rad e)."""
    out = []
    for e in ctx.divisors_of_pm1():
        if e % 2 == 0 and e <= e_max:
            primes_e = sieve._primes_of(ctx, e)
            out.append((primes_e, e, sieve._identity_terms(primes_e), math.prod(primes_e)))
    return out


def _lower_bound_checks(ctx):
    """The same for the lower bound at every admissible config."""
    out = []
    for cfg in admissible_configs(ctx):
        terms, lhs, _ = sieve._lower_bound_check(cfg, sieve._primes_of(ctx, cfg.e))
        out.append((ctx.pm1_factors.primes, ctx.p - 1, terms, lhs))
    return out


def _hoelder(ctx):
    """c_d(k) by Hölder's formula over the primes of p-1, memoized on (d, k):
    the checks at one prime share their orders and class representatives."""
    return cache(partial(ramanujan_sum, primes=ctx.pm1_factors.primes))


@cache
def _orders(key_primes):
    """d_m for every bitmask m over the key primes: the product of m's primes."""
    orders = [1]
    for q in key_primes:
        orders += [d * q for d in orders]
    return orders


def _hoelder_rhs(c, key_primes, coefs, k):
    """sum_m a_m c_{d_m}(k) for the weight a_m at each bitmask m."""
    return sum(a * c(d, k) for a, d in zip(coefs, _orders(key_primes)) if a)


def test_class_transform_matches_hoelder_termwise():
    # every class's right-hand side, at the product of the class's primes
    for p in primes_upto(2000)[1:]:
        ctx = PrimeContext(p)
        c = _hoelder(ctx)
        for key, _, coefs, _ in _identity_checks(ctx, p) + _lower_bound_checks(ctx):
            rhs = sieve._rhs_by_class(coefs, key)
            for cls, value in enumerate(rhs):
                rep = math.prod(q for i, q in enumerate(key) if cls >> i & 1)
                assert value == _hoelder_rhs(c, key, coefs, rep), (p, key, cls)


def _scan_every_k(ctx, c, key_primes, mask_e, coefs, lhs):
    """The scan over every k in [0, p-1), with the indicator from the
    primes of mask_e and each class's right-hand side by Hölder's formula:
    {(class, indicator): (slack, first k)} over the pairs that occur."""
    mask = np.ones(ctx.p - 1, dtype=bool)
    for q in sieve._primes_of(ctx, mask_e):
        mask[::q] = False
    codes = mask.astype(np.intp)
    for i, q in enumerate(key_primes):
        codes[::q] |= 2 << i
    out = {}
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        cls, f = code >> 1, code & 1
        rep = math.prod(q for i, q in enumerate(key_primes) if cls >> i & 1)
        slack = f * lhs - _hoelder_rhs(c, key_primes, coefs, rep)
        out[cls, f] = (slack, int((codes == code).argmax()))
    return out


def _enumerate_classes(key_primes, terms, lhs):
    """The same from the library's enumeration of the classes, whose
    indicator is 1 on class 0 alone."""
    return {
        (cls, int(cls == 0)): (slack, sieve._first_k(cls, key_primes))
        for cls, slack in enumerate(sieve._slacks_by_class(key_primes, terms, lhs))
    }


def test_class_enumeration_matches_the_scan_over_every_k():
    ctx = PrimeContext(960961)  # p-1 = 2^6 3 5 7 11 13
    c = _hoelder(ctx)
    for key, e, terms, lhs in _identity_checks(ctx, 30):
        got = _enumerate_classes(key, terms, lhs)
        assert got == _scan_every_k(ctx, c, key, e, terms, lhs), e
    for p in primes_upto(10**4)[1:]:
        ctx = PrimeContext(p)
        c = _hoelder(ctx)
        for key, e, terms, lhs in _lower_bound_checks(ctx):
            got = _enumerate_classes(key, terms, lhs)
            assert got == _scan_every_k(ctx, c, key, e, terms, lhs), p


@pytest.mark.parametrize("p", [61, 211])  # p-1 = 2^2 3 5, and 2 3 5 7
def test_a_breach_names_the_first_n_of_its_class(p, monkeypatch):
    ctx = PrimeContext(p)
    c = _hoelder(ctx)
    original = sieve._rhs_by_class
    for cls in range(1 << ctx.omega):
        # far above every numerator at these p: the class's slack is the least
        monkeypatch.setattr(sieve, "_rhs_by_class", lambda coefs, key: [
            x + 10**30 * (m == cls) for m, x in enumerate(original(coefs, key))
        ])
        for cfg, (key, e, terms, lhs) in zip(admissible_configs(ctx), _lower_bound_checks(ctx)):
            scan = _scan_every_k(ctx, c, key, e, terms, lhs)
            (k,) = (first for (m, _), (_, first) in scan.items() if m == cls)
            n = pow(ctx.generator, k, p)
            with pytest.raises(ConsistencyError, match=f"e={cfg.e}, n={n}: "):
                sieve_lower_bound_worst_slack(cfg)


@pytest.mark.parametrize("e", [0, -2, -60, 2.0])
def test_identity_checks_reject_e_that_is_not_a_positive_integer(ctx61, e):
    # -60 and 2.0 divide p-1 = 60 in Python's arithmetic, and 0 divides by 0
    for check in (fe_identity_worst_slack, partial(e_free, n=2)):
        with pytest.raises(DomainError, match="must be a positive integer dividing p-1"):
            check(ctx61, e)


def _peak_bytes(check):
    """The tracemalloc peak of a second call, after one call warms caches."""
    check()
    tracemalloc.start()
    try:
        check()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_check_memory_does_not_grow_with_p():
    # e = 30 has 2^3 classes at any p; a scan over [0, p-1) here holds
    # 8 MiB of codes
    ctx = PrimeContext(960961)
    assert fe_identity_worst_slack(ctx, 30) == 0
    assert _peak_bytes(partial(fe_identity_worst_slack, ctx, 30)) < 64 * 1024


def test_lower_bound_memory_does_not_grow_with_p():
    # p-1 = 2 500333 has 4 classes; a scan over one period of the class
    # pattern, P = p-1, holds 7.8 MiB of codes
    cfg = SieveConfig.build(PrimeContext(1000667), 1000666)
    assert sieve_lower_bound_worst_slack(cfg) >= 0
    assert _peak_bytes(partial(sieve_lower_bound_worst_slack, cfg)) < 64 * 1024


def test_exact_checks_run_without_numpy(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy", None)  # any import of numpy raises
    ctx = PrimeContext(960961)
    assert fe_identity_worst_slack(ctx, 30) == 0
    for cfg in admissible_configs(ctx):
        assert sieve_lower_bound_worst_slack(cfg) >= 0


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _worst_slack_lines():
    for p in primes_upto(2000)[1:]:
        ctx = PrimeContext(p)
        for e in ctx.divisors_of_pm1():
            if e % 2 == 0:
                yield f"identity {p} {e} {fe_identity_worst_slack(ctx, e)!r}"
        for cfg in admissible_configs(ctx):
            yield f"lower_bound {p} {cfg.e} {sieve_lower_bound_worst_slack(cfg)!r}"


def _class_slack_lines():
    for p in primes_upto(2000)[1:]:
        ctx = PrimeContext(p)
        for cfg in admissible_configs(ctx):
            terms, lhs, den = sieve._lower_bound_check(cfg, sieve._primes_of(ctx, cfg.e))
            slacks = sieve._slacks_by_class(ctx.pm1_factors.primes, terms, lhs)
            yield f"{p} {cfg.e} " + " ".join(str(Fraction(s, den)) for s in slacks)


def test_slacks_match_the_digests_recorded_by_the_term_list_checks():
    # Recorded from the checks that kept (weight, d) term lists and found
    # each term's class by a scan of the key primes.  The worst lower-bound
    # slack is 0 at every config (the bound is tight on the primitive
    # roots), so the exact slack of every class is pinned as well: 475 of
    # the 2,300 configs have a class with a non-zero slack.
    assert _digest(_worst_slack_lines()) == (
        "5ed222860acee339617e5cefe154beaf1b449008bab182a2b24572c7fd7363b5"
    )
    assert _digest(_class_slack_lines()) == (
        "32ce24f5d89ff61fef8fce87fc54ac915b89c0a8851e17027b17ea1feb229b89"
    )
