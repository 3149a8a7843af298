"""Enclosure arithmetic: containment soundness on random rational expression
trees, endpoints equal to mpmath's `iv` context on a seeded corpus, directed
rounding, three-valued comparisons, and the shared coefficient enclosures."""

import math
import operator
import random
import re
from fractions import Fraction

import mpmath
import pytest
from mpmath import iv
from mpmath.libmp import ComplexResult, to_rational

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
from gpbound.errors import DomainError


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


def _corpus(rng):
    """(operand, its iv.mpf) pairs at the working precision: ints past 2^128
    up to 10^200, Fractions, floats, and intervals from from_endpoints."""
    ints = [rng.choice((-1, 1)) * rng.randrange(10 ** rng.randint(1, 200)) for _ in range(8)]
    ints += [2**128 + 1, -(2**129) - 3, 10**200, 3]
    out = [(n, iv.mpf(n)) for n in ints]
    for _ in range(6):
        q = Fraction(rng.randint(-(10**40), 10**40), rng.randint(1, 10 ** rng.randint(1, 40)))
        out.append((q, iv.mpf(q.numerator) / iv.mpf(q.denominator)))
    for _ in range(5):
        f = rng.uniform(-1, 1) * 2.0 ** rng.randint(-60, 60)
        out.append((f, iv.mpf(f)))
    for _ in range(5):
        lo = rng.randint(-(10**30), 10**30)
        hi = lo + rng.randrange(10 ** rng.randint(1, 30))
        out.append((CertifiedReal.from_endpoints(lo, hi), iv.mpf([lo, hi])))
    return out


def _same(kernel, reference):
    """kernel() has reference()'s endpoints exactly; where the reference has
    no real value the kernel raises DomainError."""
    try:
        ref = reference()
    except ComplexResult:
        ref = None
    if ref is None or isinstance(ref, iv.mpc):
        with pytest.raises(DomainError):
            kernel()
        return
    got = kernel()
    assert (got.lo_mpf()._mpf_, got.hi_mpf()._mpf_) == ref._mpi_


BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)
COMPARISONS = (("lt", operator.lt), ("le", operator.le), ("gt", operator.gt), ("ge", operator.ge))


@pytest.mark.parametrize("bits", [128, 256, 1024])
def test_endpoints_equal_mpmath_iv(bits):
    rng = random.Random(bits)
    with working_precision(bits):
        corpus = _corpus(rng)
        for a, ra in corpus:
            x = enclose(a)
            _same(lambda: x, lambda: ra)
            _same(lambda: -x, lambda: -ra)
            _same(lambda: abs(x), lambda: abs(ra))
            _same(x.sqrt, lambda: iv.sqrt(ra))
            _same(x.log, lambda: iv.log(ra))
            for k in (-3, -1, 0, 2, 3, 5):
                _same(lambda: x**k, lambda: ra**k)
            for q in (Fraction(1, 3), Fraction(5, 8), Fraction(-1, 2), Fraction(4)):
                rq = iv.mpf(q.numerator) / iv.mpf(q.denominator)
                _same(lambda: x**q, lambda: ra**rq)
                _same(lambda: pow_frac(a, q), lambda: ra ** (int(q) if q.denominator == 1 else rq))
            for lo, hi in ((1, 2), (-1, 1)):
                _same(lambda: x ** CertifiedReal.from_endpoints(lo, hi), lambda: ra ** iv.mpf([lo, hi]))
            _same(lambda: x**0.5, lambda: ra ** iv.mpf(0.5))
            for b, rb in corpus:
                y = enclose(b)
                for op in BINARY:
                    _same(lambda: op(x, b), lambda: op(ra, rb))
                    _same(lambda: op(a, y), lambda: op(ra, rb))
                for name, op in COMPARISONS:
                    assert getattr(x, name)(b) is op(ra, rb), (name, a, b)
        _same(CertifiedReal.pi, lambda: +iv.pi)
        _same(CertifiedReal.euler_e, lambda: +iv.e)


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
    # at touching endpoints only the non-strict verdicts hold
    assert enclose(2).lt(2) is False and enclose(2).gt(2) is False
    assert enclose(2).ge(2) is True
    assert enclose(3).gt(2) is True and enclose(2).gt(3) is False


def test_sqrt_log_exp_contain_truth():
    two = enclose(2)
    s = two.sqrt()
    assert s.lo <= math.sqrt(2) <= s.hi
    assert (s * s).contains(2)
    # the interval exp of the enclosure of log(2) must contain 2
    log2 = two.log()
    e2 = iv.exp(iv.mpf([log2.lo_mpf(), log2.hi_mpf()]))
    assert e2.a <= 2 <= e2.b


def test_non_real_results_raise_domain_error():
    for op, result in (
        ("sqrt", lambda: CertifiedReal(-2).sqrt()),
        ("log", lambda: CertifiedReal(-1).log()),
        ("**", lambda: CertifiedReal(-2) ** CertifiedReal(0.5)),
        ("**", lambda: CertifiedReal.from_endpoints(-1, 4) ** Fraction(1, 3)),
    ):
        with pytest.raises(DomainError, match=re.escape(op)):
            result()


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


def _exact(x) -> Fraction:
    """An mpmath mpf as the exact rational it is."""
    return Fraction(*to_rational(x._mpf_))


def test_integer_conversion_rounds_outward():
    n = 10**200 + 1  # 665 bits, not representable at 128
    with working_precision(128):
        x, minus = enclose(n), enclose(-n)
    assert _exact(x.lo_mpf()) < n < _exact(x.hi_mpf())
    assert _exact(minus.hi_mpf()) == -_exact(x.lo_mpf())


@pytest.mark.parametrize("bits", [128, 256])
def test_integer_conversion_is_a_point_exactly_when_it_fits(bits):
    # odd integers of `bits` and `bits + 1` bits, of either sign: those that
    # fit are points, the others lie strictly between their two roundings
    rng = random.Random(bits)
    for size in (bits, bits + 1):
        odd = [2**size - 1, 2 ** (size - 1) + 1]
        odd += [rng.getrandbits(size - 1) | 2 ** (size - 1) | 1 for _ in range(20)]
        for n in odd + [-n for n in odd]:
            with working_precision(bits):
                x = enclose(n)
            lo, hi = _exact(x.lo_mpf()), _exact(x.hi_mpf())
            assert lo <= n <= hi
            assert (lo == hi) == (size <= bits), (size, n)


def test_constants_strictly_bracket_higher_precision_values():
    # the 128-bit endpoints must sit on either side of a 256-bit value; the
    # doubles around math.pi cannot tell floor from ceiling here
    with mpmath.workprec(256):
        pi, e = _exact(+mpmath.pi), _exact(+mpmath.e)
    with working_precision(128):
        constants = ((CertifiedReal.pi(), pi), (CertifiedReal.euler_e(), e))
    for enc, ref in constants:
        assert _exact(enc.lo_mpf()) < ref < _exact(enc.hi_mpf())


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
