"""Case engines: per-omega certification tables for the two threshold targets.

Two defects of the source case analysis are pinned down here deliberately
(see the acceptance suite for the full accounting): the omega = 17 case of
the p^(5/8) analysis misses its 1e11 target even under the favorable
worst-case delta, and the 0.999 sqrt(p) analogue's tail regime cannot be
closed by the stated s = 0 argument.  Both are reported verbatim by the
engine; these tests freeze that behavior.
"""

from fractions import Fraction

import pytest

from gpbound.certify import SieveConfig, Threshold, case_engine, certify_bound, worst_case_delta
from gpbound.certify import cases
from gpbound.certify.cases import TARGETS
from gpbound.certify.certifier import Check
from gpbound.errors import DomainError
from gpbound.ntcore import primorial
from gpbound.sieve import sieve_factor


def test_worst_case_delta_values():
    # omega=9, s=6: excluded at least {7,11,13,17,19,23}
    expected = 1 - sum(Fraction(1, q) for q in [7, 11, 13, 17, 19, 23])
    assert worst_case_delta(9, 6) == expected
    assert worst_case_delta(5, 0) == 1
    with pytest.raises(DomainError):
        worst_case_delta(5, 5)


@pytest.fixture(scope="module")
def cor2():
    return case_engine("cor2")


@pytest.fixture(scope="module")
def lonely():
    return case_engine("lonely")


def test_cor2_side_conditions_certify(cor2):
    by_name = {c.name: c for c in cor2.reduction}
    assert by_name["X >= 1e7 at p_min"].passed
    assert by_name["h >= 2e5 at p_min"].passed
    assert by_name["A(X) >= 1 - 1e-6"].passed
    assert by_name["B(X) <= 1 + 1e-5"].passed
    assert by_name["reduction constant <= 13"].passed


def test_cor2_omega8_exact(cor2):
    row = next(r for r in cor2.rows if r.omega == 8)
    assert row.lhs == 13 * 2**32 == 55834574848
    assert row.lhs < 10**11
    assert row.passed


def test_cor2_small_omega_all_pass(cor2):
    for row in cor2.rows:
        if row.omega <= 16:
            assert row.passed, row


def test_cor2_omega17_fails_verbatim(cor2):
    """The 9<=omega<=17 regime breaks at its endpoint: with s=14 the best
    worst-case delta is 1 - sum_{i=4..17} 1/q_i ~= 0.3359, giving
    13 F^4 ~= 1.46e11 > 1e11.  No choice of s repairs it at p = 1e22."""
    row = next(r for r in cor2.rows if r.omega == 17)
    assert not row.passed
    assert float(row.lhs) == pytest.approx(1.4619e11, rel=1e-3)
    # exhaustive: every s fails at omega = 17
    for s in range(0, 17):
        delta = worst_case_delta(17, s)
        if s > 0 and delta <= 0:
            continue
        lhs = 13 * sieve_factor(17, s, delta) ** 4
        assert lhs**2 >= 10**22, s
    assert not cor2.overall_pass
    assert cor2.failures == ["omega=17 (s=omega-3)"]


def test_cor2_primorial_regime(cor2):
    for row in cor2.rows:
        if 18 <= row.omega <= 50:
            assert row.passed, row
            assert (13 * sieve_factor(row.omega, row.s, row.delta_lo) ** 4) ** 2 < max(
                10**22, primorial(row.omega)
            )


def test_cor2_large_omega_regime(cor2):
    rows = [r for r in cor2.rows if r.omega > 50]
    assert len(rows) == 149
    assert all(r.passed for r in rows)
    assert all(r.s == r.omega - 5 for r in rows)


def test_cor2_robin_branch(cor2):
    robin = [c for c in cor2.reduction if "Robin" in c.name]
    assert len(robin) == 1 and robin[0].passed


def test_robin_row_needs_log_log_p_above_2(monkeypatch):
    """Value and derivative positive at u0 suffice only where (log u - 1)/log^2 u
    decreases, i.e. log u > 2.  With p_min = 17, log log 17 = 1.04 and both
    are positive (const 1e-6, root 1), yet the row must fail; at p_min = 1e4,
    log log p = 2.22, the same row passes."""
    monkeypatch.setattr(cases, "ROBIN_P_MIN", 17)
    assert not cases._robin_check(Fraction(1, 10**6), 1).passed
    monkeypatch.setattr(cases, "ROBIN_P_MIN", 10**4)
    assert cases._robin_check(Fraction(1, 10**6), 1).passed


def test_cor2_coverage_note(cor2, lonely):
    assert any("coverage gap" in n for n in cor2.notes)
    # the true omega capacity below 1e1000 exceeds the stated 199 cutoff
    assert primorial(350) < 10**1000 < primorial(351)
    for report in (cor2, lonely):
        assert any("can have omega up to 350, " in n for n in report.notes)


def test_lonely_per_omega_cases_pass(lonely):
    assert all(r.passed for r in lonely.rows)
    row8 = next(r for r in lonely.rows if r.omega == 8)
    assert row8.lhs**4 < 10**56


def test_lonely_stated_constant_insufficient(lonely):
    """The stated reduced condition uses 7, but the derivation needs
    (pi^2/6) * 6 * (1+eps) / 0.999^2 ~= 9.889; the engine certifies the
    per-omega table against 9.9 and reports the 7 as not sufficient."""
    by_name = {c.name: c for c in lonely.reduction}
    stated = by_name["stated reduction constant 7 is sufficient"]
    assert not stated.passed
    assert "9.889" in stated.value
    used = [c for c in lonely.reduction if "used for the case table" in c.name]
    assert used and used[0].passed


def test_lonely_robin_tail_fails(lonely):
    """With the p^(1/4) target the s=0 Robin branch misses by hundreds of
    orders of magnitude at p = 1e1000; the engine reports it failing."""
    robin = [c for c in lonely.reduction if "Robin" in c.name]
    assert len(robin) == 1
    assert not robin[0].passed
    assert not lonely.overall_pass


@pytest.mark.parametrize("target", sorted(TARGETS))
def test_every_passing_row_is_a_threshold_certificate(target, cor2, lonely):
    """Each row's reduced check against its p_min agrees with a certificate
    of the target's shapes over the same threshold, with the worst-case
    sieve of the row: the table and the certifier give one verdict."""
    report, spec = {"cor2": cor2, "lonely": lonely}[target], TARGETS[target]
    for row in report.rows:
        floor = primorial(row.omega) if "primorial" in row.regime else 0
        th = Threshold(max(spec.p_base, floor), row.omega)
        sieve = SieveConfig.worst_case(row.omega, row.s)
        cert = certify_bound(th, sieve, 2, spec.h_shape, spec.H_shape)
        assert cert.certified == row.passed, (row, cert.provenance)


def test_tsv_table_shape(cor2):
    lines = cor2.to_tsv().splitlines()
    assert lines[0].split("\t") == [
        "omega",
        "s",
        "delta_lo",
        "lhs_hi",
        "rhs_lo",
        "margin_log10",
        "verdict",
    ]
    assert len(lines) == 1 + len(cor2.rows)


def test_json_report_content(lonely):
    blob = lonely.to_json()
    assert blob["target"] == "lonely"
    assert blob["overall_pass"] is False
    assert len(blob["cases"]) == len(lonely.rows)
    assert any("Robin" in f for f in blob["failures"])


def test_an_indeterminate_reduction_row_fails_the_report():
    report = cases.CaseReport("t", "c", reduction=[Check("a", True), Check("b", None)])
    blob = report.to_json()
    assert not report.overall_pass and blob["overall_pass"] is False
    assert report.failures == blob["failures"] == ["reduction: b"]
    assert [c["pass"] for c in blob["reduction"]] == [True, False]


def test_unknown_target():
    with pytest.raises(DomainError):
        case_engine("nope")
