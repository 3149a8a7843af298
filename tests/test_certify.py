"""Certification engine: exact and threshold certificates, bound shapes,
the comparison table, and the parameter search with its soundness hook."""

import math
import random
from fractions import Fraction

import pytest

from gpbound.certify import (
    BURGESS_C,
    PowerShape,
    SieveConfig,
    Threshold,
    bound_sieved,
    bound_log_free,
    burgess_comparison_bound,
    compare_with_burgess,
    optimize_params,
    optimize_threshold,
    soundness_crosscheck,
    certify_bound,
)
import gpbound.certify.search as search_mod
from gpbound.certify.certifier import Check, _certify_exact, _hp_check, _verdict_from
from gpbound.certify.search import (
    R_SEARCH_RANGE,
    R_THRESHOLD_RANGE,
    OptimizeResult,
    ThresholdOptimizeResult,
    _h_candidates,
    _sieve_candidates,
    _threshold_h_shape,
)
from gpbound.enclosure import working_precision
from gpbound.errors import ConfigError, DomainError, ParameterError, UnsupportedRangeError
from gpbound.ntcore import (
    Factorization,
    PrimeContext,
    factorize,
    is_prime,
    iter_primes,
    least_primitive_root,
)
from gpbound.sieve import sieve_factor, worst_case_delta


def _sieve_at(p: int) -> SieveConfig:
    """The all-kept sieve at p, from the proved factorization of p-1."""
    return SieveConfig.build(PrimeContext(p), p - 1)


def test_sieve_factor_values():
    assert sieve_factor(8, 0, Fraction(1)) == 256
    assert sieve_factor(3, 1, Fraction(1, 2)) == 2 * 4  # (2+0/d) 2^(3-1)
    assert sieve_factor(4, 2, Fraction(1, 2)) == (2 + 2) * 4
    with pytest.raises(ConfigError):
        sieve_factor(4, 2, Fraction(0))


def test_sieve_factor_rejects_impossible_inputs():
    # omega(p-1) >= 1 for every odd prime, and s counts excluded primes
    with pytest.raises(ConfigError, match="omega"):
        sieve_factor(-1, 0, Fraction(1))
    with pytest.raises(ConfigError, match="s >= 0"):
        sieve_factor(3, -1, Fraction(1, 2))


def test_threshold_rejects_omega_below_one():
    for omega in (0, -2):
        with pytest.raises(DomainError, match="omega"):
            Threshold(10**56, omega)


def test_sieve_factor_implementations_agree():
    # one definition of the exact factor, in the sieve layer; the certify
    # name and a certificate's sieve both go through it
    from gpbound import certify, sieve

    assert sieve_factor is sieve.sieve_factor
    assert certify.SieveConfig is sieve.SieveConfig
    ctx = PrimeContext(61)
    for e in (2, 4, 6, 12, 60):
        cfg = SieveConfig.build(ctx, e)
        assert cfg.factor == sieve_factor(ctx.omega, cfg.s, cfg.delta)
    for omega, s in ((3, 0), (3, 2), (12, 9)):
        cfg = SieveConfig.worst_case(omega, s)
        assert cfg.factor == sieve_factor(omega, s, worst_case_delta(omega, s))


def test_sieve_factor_shape_over_s():
    """F(s) is flat from s=0 to s=1 (both give 2^omega), dips in the middle,
    and can climb back up as delta degrades; blanket monotonicity in s is
    false (omega=3 already gives 8, 8, 58/7).  What the case engines need is
    only that sieving beats s=0 from omega ~ 9 on, which does hold."""
    assert sieve_factor(3, 1, worst_case_delta(3, 1)) == 2**3
    assert sieve_factor(3, 2, worst_case_delta(3, 2)) == Fraction(58, 7) > 2**3
    for omega in range(4, 12):
        assert sieve_factor(omega, 1, worst_case_delta(omega, 1)) == 2**omega
    for omega in range(9, 20):
        best = min(
            sieve_factor(omega, s, worst_case_delta(omega, s))
            for s in range(0, omega)
            if s == 0 or worst_case_delta(omega, s) > 0
        )
        assert best < Fraction(2**omega)


def test_bound_log_free_value():
    # 2r 2^(r omega) p^(1/4+1/(4r)) at r=2, omega=10, p=1e56: 4 * 2^20 * 1e21
    bv = bound_log_free(Threshold(10**56, 10), 2, 10)
    expected = 4 * 2**20 * 10**21
    assert bv.value.lo <= expected <= bv.value.hi
    assert bv.exponent == Fraction(3, 8)
    assert bv.vacuous_vs_sqrt is False


def test_bound_sieved_s0_coincides_with_theorem1():
    a = bound_log_free(10**15 + 37, 3, 4)
    b = bound_sieved(10**15 + 37, 3, 4, 0, Fraction(1))
    assert a.value.lo == b.value.lo and a.value.hi == b.value.hi


def test_bound_vacuous_flag():
    # huge omega at modest p pushes the bound past sqrt(p)
    bv = bound_log_free(10**15 + 37, 2, 20)
    assert bv.vacuous_vs_sqrt is True


def test_burgess_constants_table():
    assert BURGESS_C[2] == ("3.5851", "12.8530")
    assert BURGESS_C[10] == ("1.5410", "75.5139")
    with pytest.raises(DomainError):
        burgess_comparison_bound(10**56, 11, 2)


def test_comparison_strictly_smaller_for_all_r():
    for r in range(2, 11):
        cmp = compare_with_burgess(Threshold(10**56, 10), r, 10)
        assert cmp.new_strictly_smaller is True, r


def test_comparison_ratio_r2():
    # ratio 4 / (12.8530 sqrt(log p)) < 1 at p = 1e56
    cmp = compare_with_burgess(Threshold(10**56, 10), 2, 10)
    ratio = cmp.new_bound.value.hi / cmp.burgess_bound.value.lo
    assert ratio == pytest.approx(4 / (12.8530 * math.sqrt(56 * math.log(10))), rel=1e-6)


# -- exact certificates ---------------------------------------------------------


def test_exact_certificate_and_brute_force():
    p = 10**9 + 7
    cert = certify_bound(p, _sieve_at(p), 2, 360, 150000)
    assert cert.certified
    assert least_primitive_root(p) < 150000
    assert cert.lhs.hi < cert.rhs.lo


def test_exact_certificate_failure_when_H_too_small():
    p = 10**9 + 7
    cert = certify_bound(p, _sieve_at(p), 2, 360, 5000)
    assert cert.verdict == "failed"


def test_exact_certificate_parameter_errors():
    sieve = _sieve_at(10**9 + 7)
    with pytest.raises(ParameterError):
        certify_bound(10**9 + 7, sieve, 2, 1, 100)
    with pytest.raises(ParameterError, match="H >= 2h"):
        certify_bound(10**9 + 7, sieve, 2, 400, 700)
    with pytest.raises(ParameterError, match="2H\\^2 < hp"):
        certify_bound(10**9 + 7, sieve, 2, 4, 10**6)


def test_certify_bound_takes_only_a_sieve_config():
    with pytest.raises(ConfigError, match="SieveConfig"):
        certify_bound(10**9 + 7, {"s": 0, "delta": 1, "omega": 2}, 2, 360, 150000)
    with pytest.raises(ConfigError, match="SieveConfig"):
        certify_bound(10**9 + 7, None, 2, 360, 150000)


def test_exact_certificate_rejects_a_sieve_without_the_primes_evidence():
    # omega(p-1) = 2 at p = 1e9+7: an omega of 1 would certify H = 40000,
    # which the true sieve factor fails
    p = 10**9 + 7
    assert certify_bound(p, _sieve_at(p), 2, 360, 40000).verdict == "failed"
    with pytest.raises(ConfigError, match="disagree"):
        SieveConfig(omega=1, s=0, delta=Fraction(1), ctx=PrimeContext(p), e=p - 1)
    for omega in (1, 2):
        with pytest.raises(DomainError, match="not built from the factorization of p-1"):
            certify_bound(p, SieveConfig.worst_case(omega, 0), 2, 360, 40000)


def test_exact_certificate_rejects_a_sieve_from_another_prime():
    # both are safe primes: the two sieves differ only in their prime
    q = 2000000579
    assert _sieve_at(q).factor == _sieve_at(10**9 + 7).factor
    with pytest.raises(DomainError, match="factorization of p-1 at p = 1000000007"):
        certify_bound(10**9 + 7, _sieve_at(q), 2, 360, 150000)


def test_exact_certificate_needs_a_proved_prime():
    sieve = _sieve_at(10**9 + 7)
    with pytest.raises(DomainError, match="1000000008 is not prime"):
        certify_bound(10**9 + 8, sieve, 2, 360, 150000)
    with pytest.raises(DomainError, match="1000000005 is not prime"):
        certify_bound(10**9 + 5, sieve, 2, 360, 150000)
    # past the deterministic primality range nothing is certified on trust
    with pytest.raises(UnsupportedRangeError):
        certify_bound(10**25 + 13, sieve, 2, 360, 150000)


def test_certificate_json_schema():
    cert = certify_bound(10**9 + 7, _sieve_at(10**9 + 7), 2, 360, 150000)
    blob = cert.to_json()
    assert set(blob) >= {"p_spec", "r", "h", "H", "sieve", "lhs", "rhs", "verdict"}
    assert set(blob["lhs"]) == {"lo", "hi"}
    assert set(blob["H"]) == {"lo", "hi"}
    assert set(blob["sieve"]) == {"e_desc", "s", "delta"}
    assert blob["sieve"] == {"e_desc": "p-1", "s": 0, "delta": "1"}
    assert blob["provenance"]["H_exact"] == "150000"


# -- threshold certificates --------------------------------------------------------


def _p58_shapes():
    h = PowerShape(coef=Fraction(2), expo=Fraction(1, 4))
    H = PowerShape(coef=Fraction(1), expo=Fraction(5, 8))
    return h, H


def test_threshold_p58_instance():
    h, H = _p58_shapes()
    cert = certify_bound(Threshold(10**22, 8), SieveConfig.worst_case(8, 0), 2, h, H)
    assert cert.certified
    assert "r=2 branch" in cert.provenance["W_sup"]


def test_threshold_fails_at_omega9():
    h, H = _p58_shapes()
    cert = certify_bound(Threshold(10**22, 9), SieveConfig.worst_case(9, 0), 2, h, H)
    assert cert.verdict == "failed"


def test_exact_lhs_nondecreasing_in_p():
    # at fixed (r, h, H) and sieve factor the condition's left side grows
    # like sqrt(p); each p is a safe prime, so F = 2^omega(p-1) = 4
    prev = None
    for p in (10**9 + 7, 2000000579, 4000000559):
        assert is_prime(p) and is_prime((p - 1) // 2)
        cert = certify_bound(p, _sieve_at(p), 2, 360, 150000)
        assert cert.sieve.factor == 4
        if prev is not None:
            assert cert.lhs.lo >= prev
        prev = cert.lhs.lo


def _p58_window_at_1e22():
    th = Threshold(10**22, 2)
    h = PowerShape(coef=Fraction(2), expo=Fraction(1, 4))
    H = PowerShape(coef=Fraction(99, 100), expo=Fraction(5, 8))
    return th, SieveConfig.worst_case(2, 0), h, H


def test_threshold_window_is_the_ceiling():
    # a shape names the window's real value; the certificate is the one for
    # its ceiling: X_min = 0.99 p^(5/8) / (2 p^(1/4) + 1) at p_min, not
    # 0.99 p^(5/8) / (2 p^(1/4)) = 88024830.80
    th, sieve, h, H = _p58_window_at_1e22()
    cert = certify_bound(th, sieve, 2, h, H)
    assert cert.certified
    assert cert.h == "ceil(2*p^(1/4))"
    assert cert.provenance["X_min"] == "88024691.61766876"
    assert cert.provenance["H_shape"] == "99/100*p^(5/8)"


def test_threshold_r_must_be_an_integer():
    th, sieve, h, H = _p58_window_at_1e22()
    with pytest.raises(ParameterError, match="r must be an integer"):
        certify_bound(th, sieve, Fraction(5, 2), h, H)


def test_exact_r_and_h_must_be_integers():
    p = 10**9 + 7
    sieve = _sieve_at(p)
    with pytest.raises(ParameterError, match="h must be an integer"):
        certify_bound(p, sieve, 2, 360.5, 150000)
    with pytest.raises(ParameterError, match="h must be an integer"):
        certify_bound(p, sieve, 2, Fraction(721, 2), 150000)
    with pytest.raises(ParameterError, match="r must be an integer"):
        certify_bound(p, sieve, 2.5, 360, 150000)
    # H need not be an integer
    assert certify_bound(p, sieve, 2, 360, Fraction(300001, 2)).certified


def test_threshold_lhs_monotone_in_p():
    h, H = _p58_shapes()
    prev = None
    for expo in (20, 22, 26, 30):
        cert = certify_bound(
            Threshold(10**expo, 6), SieveConfig.worst_case(6, 0), 2, h, H
        )
        assert cert.certified
        value = cert.lhs.lo
        if prev is not None:
            assert value <= prev  # normalized lhs/H^2 shrinks as p grows
        prev = value


def test_threshold_consistent_with_exact_instances():
    """A certified threshold must be confirmed by the exact certifier at
    concrete primes inside the range (found offline: p and the odd part of
    p-1 both prime, so omega(p-1) = 2)."""
    h_shape, H_shape = _p58_shapes()
    th = certify_bound(Threshold(10**22, 2), SieveConfig.worst_case(2, 0), 2, h_shape, H_shape)
    assert th.certified
    for p in (10000000000000000002479, 10000000000000000005053):
        assert is_prime(p)
        m = (p - 1) // ((p - 1) & -(p - 1))
        assert is_prime(m)  # omega(p-1) = 2
        h = 1 + math.isqrt(math.isqrt(16 * p))  # ceil(2 p^(1/4)): 16p is no 4th power
        H = math.isqrt(math.isqrt(math.isqrt(p**5)))  # floor(p^(5/8))
        cert = certify_bound(p, _sieve_at(p), 2, h, H)
        assert cert.certified, p


def test_precision_escalation_machinery():
    from gpbound.certify.certifier import _escalate

    calls = []

    def evaluator(bits):
        calls.append(bits)
        verdict = "certified" if bits >= 512 else "indeterminate"
        return type("C", (), {"verdict": verdict, "precision_bits": 0})()

    cert = _escalate(evaluator)
    assert calls == [128, 256, 512]
    assert cert.verdict == "certified"
    assert cert.precision_bits == 512

    calls.clear()

    def never(bits):
        calls.append(bits)
        return type("C", (), {"verdict": "indeterminate", "precision_bits": 0})()

    cert = _escalate(never)
    assert cert.verdict == "indeterminate"
    assert calls[-1] == 1024


def test_hp_check_needs_the_ceil_at_equal_exponents():
    # H = p^(5/8) gives 2H^2 = 2 p^(5/4) = hp exactly at h = 2 p^(1/4); only
    # the ceil of the irrational power makes the inequality strict.  At an
    # integer exponent the window h = 2 p^0 = 2 is its own ceil, and
    # H = p^(1/2) gives 2H^2 = 2p = hp
    with working_precision():
        assert _hp_check(
            10**20,
            PowerShape(coef=Fraction(2), expo=Fraction(1, 4)),
            PowerShape(coef=Fraction(1), expo=Fraction(5, 8)),
        ) == Check("2H^2 < hp (ceil strictness)", True)
        assert _hp_check(
            10**20,
            PowerShape(coef=Fraction(2), expo=Fraction(0)),
            PowerShape(coef=Fraction(1), expo=Fraction(1, 2)),
        ) == Check("2H^2 < hp coefficients", False)


def test_an_indeterminate_check_does_not_pass():
    assert [Check("x", ok).passed for ok in (True, False, None)] == [True, False, False]


def test_a_failed_check_decides_before_an_indeterminate_one():
    a, b = Check("a", False), Check("b", None)
    assert _verdict_from([a, b]) == _verdict_from([b, a]) == ("failed", ["a"])
    assert _verdict_from([Check("c", True), b]) == ("indeterminate", ["b"])
    assert _verdict_from([Check("c", True)]) == ("certified", [])


def _p38_shapes():
    return _threshold_h_shape(2), PowerShape(coef=Fraction(64), expo=Fraction(3, 8))


def test_threshold_rejects_a_sieve_for_another_omega():
    # a worst-case omega of 2 would certify H = 64 p^(3/8) over omega = 8
    th = Threshold(10**22, 8)
    h, H = _p38_shapes()
    assert certify_bound(th, SieveConfig.worst_case(8, 0), 2, h, H).verdict == "failed"
    with pytest.raises(DomainError, match="worst_case\\(8, s\\)"):
        certify_bound(th, SieveConfig.worst_case(2, 0), 2, h, H)


def test_threshold_rejects_a_sieve_built_at_one_prime():
    # same omega and factor as the worst case, but the evidence covers one p
    sieve = _sieve_at(10**9 + 7)
    assert sieve.factor == SieveConfig.worst_case(2, 0).factor
    with pytest.raises(DomainError, match="worst_case\\(2, s\\)"):
        certify_bound(Threshold(10**22, 2), sieve, 2, *_p38_shapes())


def test_threshold_rejects_H_below_2h_at_p_min():
    # H = 1.9 h with both like sqrt(p): X < 2 at every p
    h = PowerShape(coef=Fraction(1000), expo=Fraction(1, 2))
    H = PowerShape(coef=Fraction(1900), expo=Fraction(1, 2))
    cert = certify_bound(Threshold(10**40, 2), SieveConfig.worst_case(2, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == [
        "H >= 2h at p_min",
        "A > 0",
        "condition at worst case",
    ]


def test_threshold_requires_shapes():
    with pytest.raises(ParameterError):
        certify_bound(Threshold(10**22, 8), SieveConfig.worst_case(8, 0), 2, 100, 10**6)
    with pytest.raises(ParameterError, match="nonnegative"):
        certify_bound(
            Threshold(10**22, 8),
            SieveConfig.worst_case(8, 0),
            2,
            PowerShape(coef=Fraction(2), expo=Fraction(-1, 4)),
            PowerShape(coef=Fraction(1), expo=Fraction(5, 8)),
        )


def test_threshold_rejects_H_exponent_below_h_exponent():
    # every other check passes at p_min = 1e40, but H = 1e6 p^(11/20) falls
    # below 2h = 2 p^(3/5) for p past about 1e114, so only the exponent check
    # stands between this shape and a certificate
    h = PowerShape(coef=Fraction(1), expo=Fraction(3, 5))
    H = PowerShape(coef=Fraction(10**6), expo=Fraction(11, 20))
    cert = certify_bound(Threshold(10**40, 2), SieveConfig.worst_case(2, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == ["expo(H) >= expo(h)"]


def test_threshold_rejects_h_below_2_at_p_min():
    # the shape reads 0.5 at p_min = 1e40, so the window is ceil(0.5) = 1;
    # every check but the main condition passes.  Whenever h(p_min) < 2,
    # W >= (sqrt(2)/e) sqrt(p_min) and the main coefficient is >=
    # (pi^2/6)(3/2) 2^2, so the condition, which with 2H^2 < hp needs their
    # product below sqrt(p_min)/2, fails as well; the guard is pinned by its
    # report
    h = PowerShape(coef=Fraction(1, 2 * 10**10), expo=Fraction(1, 4))
    H = PowerShape(coef=Fraction(1, 2), expo=Fraction(1, 2))
    cert = certify_bound(Threshold(10**40, 2), SieveConfig.worst_case(2, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == ["h >= 2 at p_min", "condition at worst case"]


def test_threshold_rejects_growing_general_branch():
    # h = ceil(p^(1/5)) at r = 2 leaves sqrt(p)/h^2 growing like p^(1/10);
    # certifying it would take W's general branch past the threshold
    h = PowerShape(coef=Fraction(1), expo=Fraction(1, 5))
    H = PowerShape(coef=Fraction(1000), expo=Fraction(1, 2))
    cert = certify_bound(Threshold(10**40, 2), SieveConfig.worst_case(2, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == ["W unbounded over threshold (sqrt(p)/h^r grows)"]


def test_threshold_rejects_growing_condition():
    # h = ceil(p^(1/4)), H = 1e10 p^(3/10): the condition's left side grows
    # like p^0.15, so holding at p_min proves nothing past it
    h = PowerShape(coef=Fraction(1), expo=Fraction(1, 4))
    H = PowerShape(coef=Fraction(10**10), expo=Fraction(3, 10))
    cert = certify_bound(Threshold(10**40, 2), SieveConfig.worst_case(2, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == [
        "condition exponents nonincreasing in p",
        "condition at worst case",
    ]


def test_threshold_rejects_unbounded_w():
    # h constant in p leaves W unbounded over the threshold.  Every other
    # check passes, and W taken at p_min would certify this (lhs ~2.6e5
    # against 1e6), although W grows like sqrt(p)
    h = PowerShape(coef=Fraction(100), expo=Fraction(0))
    H = PowerShape(coef=Fraction(1000), expo=Fraction(3, 8))
    cert = certify_bound(Threshold(10**22, 1), SieveConfig.worst_case(1, 0), 2, h, H)
    assert cert.verdict == "failed"
    assert cert.provenance["failed_checks"] == ["W unbounded over threshold (sqrt(p)/h^r grows)"]


# -- search + soundness --------------------------------------------------------------


def test_optimize_on_safe_prime():
    p = 1000000007
    res = optimize_params(p)
    assert res.feasible
    assert res.H < p**0.7
    assert least_primitive_root(p) < res.H
    assert res.certificate.to_json()["verdict"] == "certified"


def test_optimize_sieves_divide_out_the_excluded_primes():
    # p-1 = 2 * 500000003; excluding 500000003 leaves e = 2
    sieves = _sieve_candidates(PrimeContext(10**9 + 7))
    assert [(c.e_desc, c.s) for c in sieves] == [("p-1", 0), ("2", 1)]
    # p-1 = 6300 = 2^2 3^2 5^2 7: 7, then 5^2, then 3^2 leave e
    sieves = _sieve_candidates(PrimeContext(6301))
    assert [c.e for c in sieves] == [6300, 900, 36, 4]
    assert [c.s for c in sieves] == [0, 1, 2, 3]


def test_optimize_proves_the_given_factorization():
    # omega(p-1) = 2; an unproved omega of 1 certified H ~ 3.14e4, not 1.216e5
    p = 10**9 + 7
    with pytest.raises(DomainError):
        optimize_params(p, Factorization(((2, 1),)))
    assert optimize_params(p, factorize(p - 1)).H == optimize_params(p).H


def test_optimize_infeasible_small_p_large_omega():
    # p - 1 = 11 * (2*3*5*7*11*13*17*19): eight distinct primes at p ~ 1e8
    p = 106696591
    assert is_prime(p)
    assert factorize(p - 1).omega == 8
    res = optimize_params(p)
    assert not res.feasible
    assert "infeasible" in res.reason


def test_optimize_needs_a_proved_prime(monkeypatch):
    import gpbound.certify.certifier as certifier_mod

    for p in (10**9 + 5, 10**9 + 8, 1):
        with pytest.raises(DomainError, match="optimize_params needs an odd prime"):
            optimize_params(p)
    with pytest.raises(UnsupportedRangeError):
        optimize_params(10**25 + 13)
    # one primality test per call, none per candidate
    calls = []

    def counting_is_prime(n):
        calls.append(n)
        return is_prime(n)

    monkeypatch.setattr(search_mod, "is_prime", counting_is_prime)
    monkeypatch.setattr(certifier_mod, "is_prime", counting_is_prime)
    res = optimize_params(10**9 + 7)
    assert res.feasible and res.tried > 1
    assert calls == [10**9 + 7]


def test_optimize_deterministic():
    a = optimize_params(10**9 + 7)
    b = optimize_params(10**9 + 7)
    assert a.H == b.H and a.h == b.h and a.certificate.r == b.certificate.r


def _exhaustive_params_search(p: int) -> OptimizeResult:
    """Certify every (r, sieve, h) candidate in enumeration order and keep
    the first with the least (H, r, s)."""
    best, tried = None, 0
    for r in R_SEARCH_RANGE:
        for sieve in _sieve_candidates(PrimeContext(p)):
            for h in _h_candidates(p, r):
                if 2 * (2 * h) ** 2 >= h * p:
                    continue
                tried += 1
                H0 = search_mod._presolve_H(p, sieve, r, h)
                found = None if H0 is None else search_mod._min_certified_H(p, sieve, r, h, H0)
                if found is None or found[0] >= p:
                    continue
                if best is None or (found[0], r, sieve.s) < best[:3]:
                    best = (found[0], r, sieve.s, h, found[1])
    if best is None:
        return OptimizeResult(
            p=p, certificate=None, h=None, H=None, tried=tried,
            reason="infeasible at this p: no (r, sieve, h) certifies H < p",
        )
    H, _, _, h, cert = best
    return OptimizeResult(p=p, certificate=cert, h=h, H=H, tried=tried, reason="certified")


def _seeded_primes(lo_exp: int, hi_exp: int, n: int, seed: int) -> list[int]:
    """n primes spread log-uniformly over [10^lo_exp, 10^hi_exp]."""
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        q = int(10 ** rng.uniform(lo_exp, hi_exp)) | 1
        while not is_prime(q):
            q += 2
        out.append(q)
    return out


def test_optimize_params_matches_exhaustive_search():
    # every prime below 3000 covers the infeasible and small-h cases
    for p in [*iter_primes(3, 3000), *_seeded_primes(4, 18, 24, seed=20)]:
        assert optimize_params(p).to_json() == _exhaustive_params_search(p).to_json(), p


def test_optimize_params_breaks_ties_in_enumeration_order(monkeypatch):
    """Equal (H, r, s): the candidate enumerated first wins, even when a
    later one has the smaller first H_try and so is certified first."""
    p = 10**9 + 7
    hs = _h_candidates(p, 2)

    def presolve(p, sieve, r, h):  # only r = 2, s = 0; larger h presolves lower
        return 10.0**5 - h if (r, sieve.s) == (2, 0) else None

    def certify(p, sieve, r, h, H):  # every candidate certifies the same H
        return Fraction(10**5), ("certificate", h)

    monkeypatch.setattr(search_mod, "_presolve_H", presolve)
    monkeypatch.setattr(search_mod, "_min_certified_H", certify)
    want = _exhaustive_params_search(p)
    res = optimize_params(p)
    assert (res.H, res.h, res.certificate) == (10**5, hs[0], ("certificate", hs[0]))
    assert (res.H, res.h, res.certificate, res.tried) == (want.H, want.h, want.certificate, want.tried)


def test_optimize_params_certifies_only_candidates_that_can_win(monkeypatch):
    # the exhaustive search makes 15 exact certificates at this prime
    p = 1000000000163
    calls = []

    def counting_certify_exact(*args):
        calls.append(args)
        return _certify_exact(*args)

    monkeypatch.setattr(search_mod, "_certify_exact", counting_certify_exact)
    res = optimize_params(p)
    assert res.feasible and res.tried == 231
    assert len(calls) == 1
    assert calls[0][2:] == (res.certificate.r, res.h, res.H)


def test_optimize_threshold_minimal_exponent():
    res = optimize_threshold(10**56, 20)
    assert res.feasible
    # larger r shrinks the exponent until 2HX < p blocks it; at omega=20 the
    # search bottoms out at r=4
    assert res.exponent == Fraction(5, 16)
    assert res.certificate.r == 4
    assert res.certificate.certified
    # at a tiny threshold with many prime factors nothing certifies
    res2 = optimize_threshold(10**7, 8)
    assert not res2.feasible


def _exhaustive_threshold_search(p_min: int, omega: int) -> ThresholdOptimizeResult:
    """Certify every (r, s) and keep the least (exponent, coefficient, s)."""
    th = Threshold(p_min=p_min, omega=omega)
    best = None
    for r in R_THRESHOLD_RANGE:
        expo = Fraction(1, 4) + Fraction(1, 4 * r)
        for s in range(omega):
            sieve = SieveConfig.worst_case(omega, s)
            if sieve.delta <= 0:
                break
            coef = 2 * r * sieve.factor**r
            shape = PowerShape(coef=coef, expo=expo)
            cert = certify_bound(th, sieve, r, _threshold_h_shape(r), shape)
            if cert.certified and (best is None or (expo, coef, s) < best[:3]):
                best = (expo, coef, s, cert)
    if best is None:
        return ThresholdOptimizeResult(
            threshold=th, certificate=None, exponent=None, coefficient=None,
            reason="infeasible: no (r, sieve) shape certifies over the range",
        )
    expo, coef, _, cert = best
    return ThresholdOptimizeResult(
        threshold=th, certificate=cert, exponent=expo, coefficient=coef,
        reason="certified",
    )


@pytest.mark.parametrize("k, omega", [(10, 2), (22, 15), (40, 3), (56, 20), (100, 25)])
def test_optimize_threshold_matches_exhaustive_search(k, omega):
    want = _exhaustive_threshold_search(10**k, omega).to_json()
    assert optimize_threshold(10**k, omega).to_json() == want


def _endpoints(wc) -> tuple:
    """Every enclosure of a WorstCase as exact endpoints, with its notes."""
    reals = (wc.h_lo, wc.h_hi, wc.H_lo, wc.x_lo, wc.a, wc.b, wc.w)
    return tuple((v.lo_mpf(), v.hi_mpf()) for v in reals), wc.w_note, wc.hp, wc.terms


def test_threshold_worst_case_memo_is_keyed_by_precision():
    """Powers of p_min and the W sup are cached per working precision: a
    worst case read through caches warmed at another precision equals a
    fresh computation, bit for bit, so escalation reads enclosures at the
    precision it asked for."""
    from gpbound.certify.certifier import _p_power_at, _w_threshold_sup, threshold_worst_case

    h, H = _threshold_h_shape(3), PowerShape(coef=Fraction(6 * 64**3), expo=Fraction(1, 3))

    def at(bits):
        with working_precision(bits):
            return _endpoints(threshold_worst_case(10**37, h, H, 3))

    def fresh(bits):
        _p_power_at.cache_clear()
        _w_threshold_sup.cache_clear()
        return at(bits)

    cold = {bits: fresh(bits) for bits in (128, 256)}
    fresh(128)
    assert at(256) == cold[256]
    fresh(256)
    assert at(128) == cold[128]
    # the 256-bit enclosure of H at p_min is the narrower one
    (lo128, hi128), (lo256, hi256) = cold[128][0][2], cold[256][0][2]
    assert hi256 - lo256 < hi128 - lo128


def test_optimize_threshold_computes_each_power_of_p_min_once(monkeypatch):
    import gpbound.certify.certifier as certifier_mod
    from gpbound.enclosure import pow_frac

    calls = []

    def counting_pow_frac(base, expo):
        calls.append((base, expo))
        return pow_frac(base, expo)

    monkeypatch.setattr(certifier_mod, "pow_frac", counting_pow_frac)
    certifier_mod._p_power_at.cache_clear()
    certifier_mod._w_threshold_sup.cache_clear()
    optimize_threshold(10**37, 30)
    # 225 certificates, all at 128 bits; per r the exponents 1/(2r),
    # 1/4 + 1/(4r) and -1/(2r), and exponent 0 shared by all nine r
    assert len(calls) == 28


def test_soundness_crosscheck_small_batch():
    primes = [p for p in iter_primes(10**8, 10**8 + 10**5) if is_prime((p - 1) // 2)]
    report = soundness_crosscheck(primes[:5])
    assert report.checked == 5
    assert not report.fatal
    assert report.certified >= 1
    assert all(m > 0 for m in report.margins)
