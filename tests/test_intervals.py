"""Interval system: exact construction, counting, envelopes, and the
piecewise sweeps behind the two computational claims.

The counting oracle below enumerates integer points directly from the
rational endpoints, independent of count_points' floor/ceil bookkeeping.
"""

import math
import random
from fractions import Fraction
from math import ceil, floor, gcd

import pytest

from gpbound.errors import ParameterError
from gpbound.intervals import (
    build_intervals,
    count_points,
    envelope_bounds_enclosure,
    envelopes,
    sum_S,
    sum_T,
    verify_external_inputs,
    verify_S_envelope,
    verify_T_envelope,
)


def count_oracle(p: int, H: Fraction, h: int):
    """Distinct-integer enumeration across all (q,t); returns (count, points)."""
    H = Fraction(H)
    X = H / h
    pts = set()
    for q in range(1, floor(X) + 1):
        for t in range(q):
            if gcd(t, q) != 1:
                continue
            a = Fraction(t * p, q)
            i_lo, i_hi = a, a + H / q - h + 1
            j_lo, j_hi = a - H / q, a - h + 1
            z = floor(i_lo) + 1
            while z <= i_hi:
                pts.add(z)
                z += 1
            z = ceil(j_lo)
            while z < j_hi:
                pts.add(z)
                z += 1
    return len(pts), pts


def phi_direct(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_build_single_entry_shape():
    system = build_intervals(10007, 100, 10)
    e = next(entry for entry in system.entries if entry.q == 1)
    assert e.t == 0
    assert (e.i_lo, e.i_hi) == (0, 91)  # (0, H-h+1]
    assert (e.j_lo, e.j_hi) == (-100, -9)  # [-H, -h+1)
    assert e.count_i() == 91 and e.count_j() == 91


def test_build_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="2HX"):
        build_intervals(101, 60, 10)
    with pytest.raises(ParameterError, match="X = H/h"):
        build_intervals(10007, 15, 10)
    with pytest.raises(ParameterError, match="h >= 2"):
        build_intervals(10007, 100, 1)
    with pytest.raises(ParameterError, match="0 < H < p"):
        build_intervals(101, 200, 2)


def test_count_points_frozen_and_oracle():
    system = build_intervals(10007, 100, 10)
    n = count_points(system)
    assert n == 670  # enumeration oracle value
    oracle_n, _ = count_oracle(10007, Fraction(100), 10)
    assert n == oracle_n  # equality also witnesses disjointness


def test_count_points_degenerate_x2():
    # smallest admissible X: H = 2h, q runs over {1, 2} only
    system = build_intervals(10007, 20, 10)
    assert float(system.X) == 2.0
    assert {e.q for e in system.entries} == {1, 2}
    assert count_points(system) == count_oracle(10007, Fraction(20), 10)[0]


def test_count_points_matches_oracle_on_samples():
    rng = random.Random(1)
    for _ in range(25):
        p = rng.choice([10007, 65537, 1000003])
        x = rng.randint(2, 40)
        h = rng.choice([2, 3, 7, 12])
        H = Fraction(x * h) + Fraction(rng.randint(0, 13), 14)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        assert count_points(system) == count_oracle(p, H, h)[0]


def test_shift_property_random_samples():
    rng = random.Random(7)
    system = build_intervals(10007, Fraction(301, 2), 10)
    entries = system.entries
    hits = 0
    for _ in range(1000):
        e = rng.choice(entries)
        n = rng.randrange(10)
        z = rng.randint(floor(e.i_lo) - 2, ceil(e.i_hi) + 2)
        if e.i_contains(z):
            hits += 1
            assert 0 < e.q * (z + n) - 10007 * e.t <= system.H
        z = rng.randint(floor(e.j_lo) - 2, ceil(e.j_hi) + 2)
        if e.j_contains(z):
            hits += 1
            assert -system.H <= e.q * (z + n) - 10007 * e.t < 0
    assert hits > 100  # sanity: the sampler actually exercised membership


def test_envelope_values():
    a, b = envelopes(10, 10)
    assert a == pytest.approx(0.7806754577535698)
    assert b == pytest.approx(1.3950765554720863)
    # A crosses zero at X = 2 pi^2 / 9
    x0 = 2 * math.pi**2 / 9
    assert envelopes(x0, 10)[0] == pytest.approx(0.0, abs=1e-12)
    # p^(5/8)-threshold regime: A within 1e-6 of 1, B within 1e-5
    a, b = envelopes(10**7, 2 * 10**5)
    assert a >= 1 - 1e-6
    assert b <= 1 + 1e-5


def test_envelope_sandwich_on_grid():
    # A(X)(6/pi^2)X^2 h <= N(X) <= B(X)(6/pi^2)X^2 h, certified endpoints
    rng = random.Random(3)
    primes = (10007, 65537, 1000003)
    checked = 0
    while checked < 100:
        p = primes[checked % 3]
        x = rng.randint(2, 50)
        h = rng.choice([2, 3, 5, 10, 20])
        H = Fraction(x * h) + Fraction(rng.randint(0, 9), 10)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        n = count_points(system)
        lo, hi = envelope_bounds_enclosure(system.X, h)
        assert lo.hi <= n <= hi.lo, (p, str(H), h)
        checked += 1


def test_sandwich_midline_with_ceiling_correction():
    # per-interval counts sit in [L-1, ceil(L)] for L = H/q - h + 1, so
    # 2hS <= N < 2hS + 4T always; the tighter 2hS + 2T can be exceeded
    rng = random.Random(11)
    exceeded_2t = 0
    for _ in range(40):
        p = rng.choice([10007, 65537])
        x = rng.randint(2, 30)
        h = rng.choice([2, 5, 10])
        H = Fraction(x * h)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        n = count_points(system)
        s, t = sum_S(system.X), sum_T(system.X)
        assert 2 * h * s <= n < 2 * h * s + 4 * t
        if n > 2 * h * s + 2 * t:
            exceeded_2t += 1
    assert exceeded_2t > 0  # the stated 2T headroom is genuinely too tight


def test_sum_values():
    assert sum_T(10) == 32
    assert sum_T(1) == 1
    assert sum_S(10) == Fraction(635, 21)
    assert sum_S(1) == 0
    assert sum_T(25) == sum(phi_direct(q) for q in range(1, 26))
    x = Fraction(25, 2)
    expected = x * sum(Fraction(phi_direct(q), q) for q in range(1, 13)) - sum_T(x)
    assert sum_S(x) == expected


def test_S_envelope_sweep():
    report = verify_S_envelope()
    assert report.passed
    assert report.worst_slack > 0
    # spot value at X=10: |S - 3 X^2/pi^2| = |30.238 - 30.396| well under 20/3
    diff = abs(float(sum_S(10)) - 3 * 100 / math.pi**2)
    assert diff == pytest.approx(0.1580, abs=1e-3)
    assert diff <= 20 / 3


def test_T_envelope_sweep():
    report = verify_T_envelope()
    assert report.passed
    assert report.worst_slack > 0
    diff = abs(sum_T(2) - 3 * 4 / math.pi**2)
    assert diff == pytest.approx(0.78409, abs=1e-4)
    assert diff <= 2 * math.log(2)


def test_external_input_checks():
    reports = verify_external_inputs(20000)
    assert len(reports) == 4
    for rep in reports:
        assert rep.passed, rep.claim
    # |sum mu(d)/d| at X=7: 1 - 1/2 - 1/3 - 1/5 + 1/6 - 1/7 = -2/210
    from gpbound.intervals import _mobius_table

    mu = _mobius_table(7)
    val = sum(int(mu[d]) / d for d in range(1, 8))
    assert abs(val) == pytest.approx(2 / 210, abs=1e-12)
    assert abs(val) <= 0.1 + 2 / 7
    # squarefree count at X=4: {1,2,3} -> 3 <= 6*4/pi^2 + 0.679091*2
    assert sum(1 for d in range(1, 5) if mu[d] != 0) == 3
    assert 3 <= 6 * 4 / math.pi**2 + 0.679091 * 2
