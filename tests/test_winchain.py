"""Win-chain derivations: every intermediate constant of the bootstrap proof
certifies at its stated cap, across the full r sweep."""

import json
import math
import pathlib
import sys
from fractions import Fraction

import pytest

from gpbound.certify import winchain, win_chain_sieved_derive, win_chain_derive, win_chain_sweep
from gpbound.certify.certifier import Check
from gpbound.enclosure import pow_frac, recipe_coefficient, window_recipe
from gpbound.errors import DomainError

# to_json() of both chains at r = 2, 10 and 128: each row's value and
# requirement text, which no CLI golden prints.  Re-record it with
#   json.dumps([fn(r).to_json() for fn in (win_chain_derive,
#              win_chain_sieved_derive) for r in (2, 10, 128)], indent=1)
CHAIN_GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "chains.json").read_text())


def _check(report, name):
    matches = [c for c in report.checks if c.name.startswith(name)]
    assert matches, f"no check named {name!r}"
    return matches[0]


def test_win_chain_r2_values():
    rep = win_chain_derive(2)
    assert rep.all_certified
    # h recipe at p = 1e15: (4/e)(2p)^(1/4) / sqrt(3) ~= 5681.5
    h = _check(rep, "h >= 33")
    expected = (4 / math.e) * (2e15) ** 0.25 * (1 / 3) ** 0.5
    assert float(h.value) == pytest.approx(expected, rel=1e-6)
    x = _check(rep, "X >= 2000")
    assert float(x.value) == pytest.approx(2 * 16 * (1e15) ** 0.125, rel=1e-6)
    closing = _check(rep, "closing constant < 4")
    assert float(closing.value) == pytest.approx(3.38307, abs=1e-4)


def test_win_chain_constant_caps_across_sweep():
    for r in (2, 3, 7, 25, 100):
        rep = win_chain_derive(r)
        assert rep.all_certified, (r, rep.failed())
        assert float(_check(rep, "A(X)^r").value) >= 0.998
        assert float(_check(rep, "rY <=").value) <= 0.129
        assert float(_check(rep, "B(X)^r").value) <= 1.145
        assert float(_check(rep, "closing constant").value) < 4


def test_win2_chain_constant_caps():
    for r in (2, 3, 7, 50):
        rep = win_chain_sieved_derive(r)
        assert rep.all_certified, (r, rep.failed())
        assert float(_check(rep, "X >= 500").value) >= 500
        assert float(_check(rep, "A(X)^r").value) >= 0.992
        assert float(_check(rep, "rY <=").value) <= 0.138
        assert float(_check(rep, "B(X)^r").value) <= 1.158


def test_win2_caps_weaker_than_win():
    # the sieved caps are consistent relaxations of the plain ones
    assert Fraction(992, 1000) <= Fraction(998, 1000)
    assert Fraction(1158, 1000) >= Fraction(1145, 1000)
    assert Fraction(138, 1000) >= Fraction(129, 1000)
    rep1 = win_chain_derive(2)
    rep2 = win_chain_sieved_derive(2)
    assert rep1.all_certified and rep2.all_certified


def test_fallback_constant_tightest_at_r2():
    # the row depends on r alone: pin its value where it is tightest and far out
    values = []
    for r in (2, 3, 5, 20, 100):
        check = _check(win_chain_derive(r), "fallback constant")
        assert check.passed
        values.append(float(check.value))
    assert values == sorted(values)
    assert values[0] == pytest.approx((math.sqrt(2) / 3) ** 0.25, rel=1e-9)
    assert values[-1] == pytest.approx((math.sqrt(2) * 99 / 199) ** (1 / 200), rel=1e-9)
    assert values[0] >= math.sqrt(math.e) / 2


def test_closing_constant_row_fails_at_or_above_4():
    # the plain chain's caps, but 1.29 on B(X)^r: the closing constant is 4.29
    rep = winchain._chain("plain", 2, factor_min=Fraction(4), x_floor=2000,
                          a_floor=Fraction(998, 1000), ry_cap=Fraction(129, 1000),
                          b_cap=Fraction(129, 100))
    closing = _check(rep, "closing constant")
    assert 4 <= float(closing.value) < 5
    assert rep.failed() == ["closing constant < 4"]


def test_b_power_row_needs_ry_at_most_035(monkeypatch):
    # At p_min = 1e15 every x_floor keeps rY below 0.29 (r/h <= 1/8 and
    # log(X)/X <= 1/e), so the chain starts at 2^16 here: with X >= 3 the
    # sieved rY is 0.41, inside its cap 1/2, and B(X)^r = 1.58 <= 2 would
    # pass but for the rY <= 0.35 precondition of (1+Y)^r <= 1 + rY + (rY)^2.
    monkeypatch.setattr(winchain, "P_MIN", 2**16)
    rep = winchain._chain("sieved", 2, factor_min=Fraction(3), x_floor=3,
                          a_floor=Fraction(992, 1000), ry_cap=Fraction(1, 2),
                          b_cap=Fraction(2))
    ry, b_r = _check(rep, "rY <="), _check(rep, "B(X)^r")
    assert ry.passed and 0.35 < float(ry.value) <= 0.5
    assert float(b_r.value) <= 2
    assert not b_r.passed


def test_full_sweep():
    summary = win_chain_sweep(range(2, 101))
    assert summary["all_certified"], summary["failures"]


def test_chains_certify_past_float_range():
    # 2^(8r) exceeds the largest float from r = 128 on
    for r in (128, 500):
        for fn in (win_chain_derive, win_chain_sieved_derive):
            rep = fn(r)
            assert rep.all_certified, (fn.__name__, r, rep.failed())
    assert win_chain_derive(128).notes == [
        "main chain evaluated at worst case p = 2^(8r) = 1.798e+308"
    ]


def test_window_recipe_float_lies_in_enclosure():
    # enclosure.window_recipe (float, used by the searches) against the
    # enclosure 2r c p^(1/(2r)) the chains certify with
    for r in range(2, 101):
        c = recipe_coefficient(r)
        for p in (10**15, 10**22, 10**56):
            recipe = 2 * r * c * pow_frac(p, Fraction(1, 2 * r))
            value = window_recipe(p, r)
            slack = 64 * sys.float_info.epsilon * value
            assert recipe.lo - slack <= value <= recipe.hi + slack, (r, p)


def test_trivial_branch_appears_for_large_r():
    rep = win_chain_derive(10)  # 2^80 > 1e15
    names = [c.name for c in rep.checks]
    assert any("trivial branch" in n for n in names)
    assert rep.all_certified


def test_input_validation():
    with pytest.raises(DomainError):
        win_chain_derive(1)


@pytest.mark.parametrize("blob", CHAIN_GOLDEN, ids=lambda b: f"{b['kind']} r={b['r']}")
def test_chain_report_matches_golden(blob):
    fn = win_chain_derive if blob["kind"] == "plain" else win_chain_sieved_derive
    assert fn(blob["r"]).to_json() == blob


def test_an_indeterminate_chain_row_fails_the_report():
    report = winchain.ChainReport("plain", 2, checks=[Check("a", True), Check("b", None)])
    blob = report.to_json()
    assert not report.all_certified and blob["all_certified"] is False
    assert report.failed() == ["b"]
    assert [c["pass"] for c in blob["checks"]] == [True, False]


def test_report_json():
    blob = win_chain_derive(3).to_json()
    assert blob["all_certified"] is True
    assert blob["kind"] == "plain"
    assert any(c["name"] == "h >= 33" for c in blob["checks"])
