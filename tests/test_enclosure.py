"""Enclosure arithmetic: containment soundness on random rational expression
trees, three-valued comparisons, and the shared coefficient enclosures."""

import math
import random
from fractions import Fraction

from mpmath import iv

from gpbound.enclosure import (
    CertifiedReal,
    emax,
    emin,
    enclose,
    envelope_a,
    envelope_b,
    envelope_b_sup,
    envelopes,
    pow_frac,
    w_factor,
    w_factor_enclosure,
    working_precision,
)


def random_tree(rng, depth):
    """(Fraction value, CertifiedReal enclosure) for a random expression."""
    if depth == 0 or rng.random() < 0.3:
        v = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        return v, enclose(v)
    op = rng.choice("+-*/")
    lv, le = random_tree(rng, depth - 1)
    rv, re = random_tree(rng, depth - 1)
    if op == "+":
        return lv + rv, le + re
    if op == "-":
        return lv - rv, le - re
    if op == "*":
        return lv * rv, le * re
    if rv == 0:
        return lv, le
    return lv / rv, le / re


def test_containment_on_random_trees():
    rng = random.Random(0)
    for _ in range(10_000):
        value, enc = random_tree(rng, 3)
        assert enc.contains(value)


def test_exact_integers_are_points():
    x = enclose(12345678901234567890)
    assert x.contains(12345678901234567890)
    assert enclose(7).hi_mpf() - enclose(7).lo_mpf() == 0


def test_rational_and_float_construction():
    third = enclose(Fraction(1, 3))
    assert third.lo < 1 / 3 < third.hi or third.contains(Fraction(1, 3))
    f = enclose(0.1)  # exact binary value of the double
    assert f.contains(Fraction(0.1))


def test_three_valued_comparisons():
    assert enclose(1).lt(2) is True
    assert enclose(3).lt(2) is False
    straddle = CertifiedReal.from_endpoints(1, 3)
    assert straddle.lt(2) is None
    assert straddle.gt(0) is True
    assert enclose(2).le(2) is True


def test_sqrt_log_exp_contain_truth():
    two = enclose(2)
    s = two.sqrt()
    assert s.lo <= math.sqrt(2) <= s.hi
    assert (s * s).contains(2)
    # the interval exp of the enclosure of log(2) must contain 2
    e2 = iv.exp(two.log().ival)
    assert e2.a <= 2 <= e2.b


def test_pow_frac_huge_threshold():
    v = pow_frac(10**56, Fraction(5, 8))
    assert v.lo <= 10 ** (56 * 5 / 8) <= v.hi * (1 + 1e-9)
    w = pow_frac(10**1000, Fraction(1, 2))
    assert w.lo > 0


def test_precision_context_narrows_width():
    with working_precision(64):
        third = enclose(1) / 3
        wide = third.hi_mpf() - third.lo_mpf()
    with working_precision(256):
        third = enclose(1) / 3
        narrow = third.hi_mpf() - third.lo_mpf()
    assert narrow < wide


def test_constants_and_min_max():
    pi = CertifiedReal.pi()
    assert pi.lo <= math.pi <= pi.hi
    e = CertifiedReal.euler_e()
    assert e.lo <= math.e <= e.hi
    a, b = enclose(3), enclose(5)
    assert float(emin(a, b)) == 3
    assert float(emax(a, b)) == 5


def test_endpoints_are_directed_bounds():
    """.lo and .hi bound the exact value, also through emin and emax; checked
    exactly as Fraction(lo)^2 <= k/3 <= Fraction(hi)^2 for x = sqrt(k/3)."""
    with working_precision():
        for k in range(1, 2000):
            x = enclose(Fraction(k, 3)).sqrt()
            for enc in (x, emin(x, x + 1), emax(x, x - 1)):
                assert Fraction(enc.lo) ** 2 <= Fraction(k, 3) <= Fraction(enc.hi) ** 2, k


def test_envelope_enclosures_match_floats():
    a_float, b_float = envelopes(10, 10)
    a = envelope_a(10)
    b = envelope_b(10, 10)
    assert a.lo <= a_float <= a.hi
    assert b.lo <= b_float <= b.hi
    # sup version dominates the pointwise value for X >= x_min
    bsup = envelope_b_sup(10, 10)
    for x in (10, 20, 100):
        assert bsup.hi >= envelope_b(x, 10).lo


def test_envelope_b_sup_covers_the_log_peak_at_e():
    # log(X)/X peaks at X = e, so from x_min = 5/2 the sup must reach the
    # envelope at e.  For h >= 1 the 2 pi^2/(9X) term alone keeps B(5/2)
    # above B(e); only a small h_min exposes a sup that skips the peak.
    e = CertifiedReal.euler_e()
    for h_min in (Fraction(1, 20), 1, 2):
        bsup = envelope_b_sup(Fraction(5, 2), h_min)
        for x in (Fraction(5, 2), e, 3, 10):
            assert bsup.hi >= envelope_b(x, h_min).lo, (h_min, x)


def test_w_factor_enclosure_contains_float():
    for p, h, r in [(10**20, 2 * 10**5, 2), (10**15, 600, 3), (101, 5, 1)]:
        enc = w_factor_enclosure(p, h, r)
        assert enc.lo <= w_factor(p, h, r) <= enc.hi * (1 + 1e-12)


def test_json_and_repr():
    x = enclose(Fraction(1, 3))
    blob = x.to_json()
    assert set(blob) == {"lo", "hi"}
    assert "CertifiedReal" in repr(x)
