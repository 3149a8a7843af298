"""Certification engine: exact and threshold certificates, bound shapes,
the comparison table, and the parameter search with its soundness hook."""

import math
from fractions import Fraction

import pytest

from gpbound.certify import (
    BURGESS_C,
    PowerShape,
    SieveSummary,
    Threshold,
    bound_sieved,
    bound_log_free,
    burgess_comparison_bound,
    compare_with_burgess,
    optimize_params,
    soundness_crosscheck,
    certify_bound,
)
from gpbound.errors import ConfigError, DomainError, ParameterError, UnsupportedRangeError
from gpbound.ntcore import factorize, is_prime, iter_primes, least_primitive_root
from gpbound.sieve import sieve_factor


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
    # name and a certificate's summary both go through it
    from gpbound import sieve
    from gpbound.ntcore import PrimeContext
    from gpbound.sieve import SieveConfig

    assert sieve_factor is sieve.sieve_factor
    ctx = PrimeContext(61)
    for e in (2, 4, 6, 12, 60):
        cfg = SieveConfig.build(ctx, e)
        summary = SieveSummary.from_config(cfg)
        assert summary.factor == sieve_factor(ctx.omega, cfg.s, cfg.delta)


def test_sieve_factor_shape_over_s():
    """F(s) is flat from s=0 to s=1 (both give 2^omega), dips in the middle,
    and can climb back up as delta degrades; blanket monotonicity in s is
    false (omega=3 already gives 8, 8, 58/7).  What the case engines need is
    only that sieving beats s=0 from omega ~ 9 on, which does hold."""
    from gpbound.certify import worst_case_delta

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
    summary = SieveSummary.all_kept(factorize(p - 1).omega)
    cert = certify_bound(p, summary, 2, 360, 150000)
    assert cert.certified
    assert least_primitive_root(p) < 150000
    assert cert.lhs.hi < cert.rhs.lo


def test_exact_certificate_failure_when_H_too_small():
    p = 10**9 + 7
    summary = SieveSummary.all_kept(2)
    cert = certify_bound(p, summary, 2, 360, 5000)
    assert cert.verdict == "failed"


def test_burgess_params_invariants():
    from gpbound.certify import BurgessParams

    params = BurgessParams(r=2, h=360, H=Fraction(150000))
    assert params.X == Fraction(150000, 360)
    params.validate(10**9 + 7)
    with pytest.raises(ParameterError):
        BurgessParams(r=2, h=360, H=Fraction(500)).validate(10**9 + 7)
    with pytest.raises(ParameterError):
        BurgessParams(r=2, h=4, H=Fraction(10**6)).validate(10**9 + 7)


def test_exact_certificate_parameter_errors():
    summary = SieveSummary.all_kept(2)
    with pytest.raises(ParameterError):
        certify_bound(10**9 + 7, summary, 2, 1, 100)
    with pytest.raises(ParameterError, match="H >= 2h"):
        certify_bound(10**9 + 7, summary, 2, 400, 700)
    with pytest.raises(ParameterError, match="2H\\^2 < hp"):
        certify_bound(10**9 + 7, summary, 2, 4, 10**6)


def test_certify_bound_takes_only_a_sieve_summary():
    # a SieveConfig is converted by the caller (SieveSummary.from_config)
    from gpbound.ntcore import PrimeContext
    from gpbound.sieve import SieveConfig

    config = SieveConfig.build(PrimeContext(10**9 + 7), 2)
    with pytest.raises(ConfigError, match="SieveSummary"):
        certify_bound(10**9 + 7, config, 2, 360, 150000)
    with pytest.raises(ConfigError, match="SieveSummary"):
        certify_bound(10**9 + 7, None, 2, 360, 150000)


def test_exact_certificate_needs_a_proved_prime():
    summary = SieveSummary.all_kept(2)
    with pytest.raises(DomainError, match="1000000008 is not prime"):
        certify_bound(10**9 + 8, summary, 2, 360, 150000)
    with pytest.raises(DomainError, match="1000000005 is not prime"):
        certify_bound(10**9 + 5, summary, 2, 360, 150000)
    # past the deterministic primality range nothing is certified on trust
    with pytest.raises(UnsupportedRangeError):
        certify_bound(10**25 + 13, summary, 2, 360, 150000)


def test_certificate_json_schema():
    summary = SieveSummary.all_kept(2)
    cert = certify_bound(10**9 + 7, summary, 2, 360, 150000)
    blob = cert.to_json()
    assert set(blob) >= {"p_spec", "r", "h", "H", "sieve", "lhs", "rhs", "verdict"}
    assert set(blob["lhs"]) == {"lo", "hi"}
    assert set(blob["H"]) == {"lo", "hi"}
    assert set(blob["sieve"]) == {"e_desc", "s", "delta"}
    assert blob["sieve"]["s"] == 0
    assert blob["provenance"]["H_exact"] == "150000"


# -- threshold certificates --------------------------------------------------------


def _p58_shapes():
    h = PowerShape(coef=Fraction(2), expo=Fraction(1, 4), ceil=True)
    H = PowerShape(coef=Fraction(1), expo=Fraction(5, 8))
    return h, H


def test_threshold_p58_instance():
    h, H = _p58_shapes()
    cert = certify_bound(Threshold(10**22, 8), SieveSummary.all_kept(8), 2, h, H)
    assert cert.certified
    assert "r=2 branch" in cert.provenance["W_sup"]


def test_threshold_fails_at_omega9():
    h, H = _p58_shapes()
    cert = certify_bound(Threshold(10**22, 9), SieveSummary.all_kept(9), 2, h, H)
    assert cert.verdict == "failed"


def test_exact_lhs_nondecreasing_in_p():
    # at fixed (r, h, H, sieve) the condition's left side grows like sqrt(p)
    summary = SieveSummary.all_kept(2)
    prev = None
    for p in (10**9 + 7, 2 * 10**9 + 11, 4 * 10**9 + 7):
        assert is_prime(p)
        cert = certify_bound(p, summary, 2, 360, 150000)
        if prev is not None:
            assert cert.lhs.lo >= prev
        prev = cert.lhs.lo


def test_threshold_lhs_monotone_in_p():
    h, H = _p58_shapes()
    prev = None
    for expo in (20, 22, 26, 30):
        cert = certify_bound(
            Threshold(10**expo, 6), SieveSummary.all_kept(6), 2, h, H
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
    th = certify_bound(Threshold(10**22, 2), SieveSummary.all_kept(2), 2, h_shape, H_shape)
    assert th.certified
    for p in (10000000000000000002479, 10000000000000000005053):
        assert is_prime(p)
        m = (p - 1) // ((p - 1) & -(p - 1))
        assert is_prime(m)  # omega(p-1) = 2
        h = 1 + math.isqrt(math.isqrt(16 * p))  # ceil(2 p^(1/4)): 16p is no 4th power
        H = math.isqrt(math.isqrt(math.isqrt(p**5)))  # floor(p^(5/8))
        cert = certify_bound(p, SieveSummary.all_kept(2), 2, h, H)
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
    # H = p^(5/8) gives 2H^2 = 2 p^(5/4) = hp exactly for h = 2 p^(1/4); only
    # the ceil of the irrational power makes the inequality strict
    from gpbound.certify.certifier import _hp_check
    from gpbound.enclosure import working_precision

    H = PowerShape(coef=Fraction(1), expo=Fraction(5, 8))
    bare = PowerShape(coef=Fraction(2), expo=Fraction(1, 4))
    ceiled = PowerShape(coef=Fraction(2), expo=Fraction(1, 4), ceil=True)
    with working_precision():
        assert _hp_check(10**20, bare, H) == ("2H^2 < hp coefficients", False)
        assert _hp_check(10**20, ceiled, H) == ("2H^2 < hp (ceil strictness)", True)


def test_threshold_requires_shapes():
    with pytest.raises(ParameterError):
        certify_bound(Threshold(10**22, 8), SieveSummary.all_kept(8), 2, 100, 10**6)
    with pytest.raises(ParameterError, match="nonnegative"):
        certify_bound(
            Threshold(10**22, 8),
            SieveSummary.all_kept(8),
            2,
            PowerShape(coef=Fraction(2), expo=Fraction(-1, 4)),
            PowerShape(coef=Fraction(1), expo=Fraction(5, 8)),
        )


def test_threshold_rejects_unbounded_w():
    # h constant in p leaves W unbounded over the threshold
    h = PowerShape(coef=Fraction(100), expo=Fraction(0))
    H = PowerShape(coef=Fraction(1), expo=Fraction(5, 8))
    cert = certify_bound(Threshold(10**22, 4), SieveSummary.all_kept(4), 2, h, H)
    assert cert.verdict == "failed"


# -- search + soundness --------------------------------------------------------------


def test_optimize_on_safe_prime():
    p = 1000000007
    res = optimize_params(p)
    assert res.feasible
    assert res.H < p**0.7
    assert least_primitive_root(p) < res.H
    assert res.certificate.to_json()["verdict"] == "certified"


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
    import gpbound.certify.search as search_mod

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


def test_optimize_threshold_minimal_exponent():
    from gpbound.certify import optimize_threshold

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


def test_soundness_crosscheck_small_batch():
    primes = [p for p in iter_primes(10**8, 10**8 + 10**5) if is_prime((p - 1) // 2)]
    report = soundness_crosscheck(primes[:5])
    assert report.checked == 5
    assert not report.fatal
    assert report.certified >= 1
    assert all(m > 0 for m in report.margins)
