"""Interval system: exact construction, counting, envelopes, and the
piecewise sweeps behind the two computational claims.

The oracles below work from the rational endpoints, built with Fractions
per (q, t) as in the definition, not from IntervalSystem.ends: the counting
oracle enumerates integer points directly, independent of count_points'
integer floor divisions, and the sorted-span oracle checks disjointness
and containment without the Farey-neighbour argument build_intervals relies
on.
"""

import math
import random
from fractions import Fraction
from math import ceil, floor, gcd, isqrt

import pytest

from gpbound.enclosure import envelopes
from gpbound.errors import ParameterError, VerificationFailure
from gpbound.intervals import (
    IntervalSystem,
    _check_farey_family,
    _farey_pairs,
    _mobius_table,
    build_intervals,
    count_points,
    envelope_bounds_enclosure,
    sum_S,
    sum_T,
    verify_external_inputs,
    verify_S_envelope,
    verify_T_envelope,
)
from gpbound.ntcore import iter_primes, moebius


def definition_ends(p: int, H: Fraction, h: int, t: int, q: int) -> tuple:
    """(i_lo, i_hi, j_lo, j_hi) of I(q,t) = (tp/q, (tp+H)/q - h + 1] and
    J(q,t) = [(tp-H)/q, tp/q - h + 1), as Fractions."""
    a = Fraction(t * p, q)
    return a, a + Fraction(H) / q - h + 1, a - Fraction(H) / q, a - h + 1


def endpoints_oracle(p: int, H: Fraction, h: int) -> dict:
    """{(q, t): (i_lo, i_hi, j_lo, j_hi)} for every reduced t/q, q <= H/h."""
    X = Fraction(H) / h
    return {
        (q, t): definition_ends(p, H, h, t, q)
        for q in range(1, floor(X) + 1)
        for t in range(q)
        if gcd(t, q) == 1
    }


def count_oracle(p: int, H: Fraction, h: int):
    """Distinct-integer enumeration across all (q,t); returns (count, points)."""
    pts = set()
    for i_lo, i_hi, j_lo, j_hi in endpoints_oracle(p, H, h).values():
        z = floor(i_lo) + 1
        while z <= i_hi:
            pts.add(z)
            z += 1
        z = ceil(j_lo)
        while z < j_hi:
            pts.add(z)
            z += 1
    return len(pts), pts


def sorted_spans_oracle(system: IntervalSystem) -> None:
    """Disjointness and containment in [-H, p-H) by sorting all 2N spans;
    raises VerificationFailure like build_intervals' own check."""
    # (left, right, right_closed) for every interval, exact comparisons
    spans = []
    for t, q in system.entries:
        i_lo, i_hi, j_lo, j_hi = definition_ends(system.p, system.H, system.h, t, q)
        spans.append((j_lo, j_hi, False))
        spans.append((i_lo, i_hi, True))
    spans.sort(key=lambda s: (s[0], s[1]))
    lo_bound, hi_bound = -system.H, system.p - system.H
    for left, right, _closed in spans:
        if left < lo_bound or right > hi_bound:
            raise VerificationFailure(
                f"interval [{left},{right}] escapes [-H, p-H) at p={system.p}"
            )
    for (l1, r1, closed1), (l2, _r2, _c2) in zip(spans, spans[1:]):
        # open/closed mix: touching endpoints collide only if both sides close
        if r1 > l2 or (r1 == l2 and closed1):
            raise VerificationFailure(
                f"intervals overlap near {float(l2):.6g} at p={system.p}"
            )


def system_of(p: int, H: Fraction, h: int, pairs) -> IntervalSystem:
    """An IntervalSystem on arbitrary (t, q) pairs, bypassing build_intervals'
    preconditions, so both checks can be fed crafted input."""
    n, d = Fraction(H).as_integer_ratio()
    return IntervalSystem(p, n, d, h, tuple(pairs))


def phi_direct(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_build_single_entry_shape():
    system = build_intervals(10007, 100, 10)
    assert [(t, q) for t, q in system.entries if q == 1] == [(0, 1)]
    i_lo, i_hi, j_lo, j_hi = system.ends(0, 1)
    assert (i_lo, i_hi) == (0, 91)  # (0, H-h+1]
    assert (j_lo, j_hi) == (-100, -9)  # [-H, -h+1)
    assert count_points(system_of(10007, Fraction(100), 10, [(0, 1)])) == 91 + 91


def test_build_rejects_bad_parameters():
    with pytest.raises(ParameterError, match="2HX"):
        build_intervals(101, 60, 10)
    with pytest.raises(ParameterError, match="X = H/h"):
        build_intervals(10007, 15, 10)
    with pytest.raises(ParameterError, match="h >= 2"):
        build_intervals(10007, 100, 1)
    with pytest.raises(ParameterError, match="0 < H < p"):
        build_intervals(101, 200, 2)


def test_build_rejects_non_integer_h():
    # a float h made X and every endpoint a float, and counts came from
    # float floors
    for h in (2.5, 10.0, Fraction(10)):
        with pytest.raises(ParameterError, match="h must be an int"):
            build_intervals(10007, 100, h)


def test_build_rejects_non_integer_p():
    # a float p made every count a float: 10007.0 counted 670.0, and
    # 10007.5 was accepted and counted 671.0
    for p in (10007.0, 10007.5, Fraction(10007)):
        with pytest.raises(ParameterError, match="p must be an int"):
            build_intervals(p, 100, 10)


def test_farey_pairs_match_brute_force():
    for n in range(1, 61):
        brute = sorted(
            ((t, q) for q in range(1, n + 1) for t in range(q) if gcd(t, q) == 1),
            key=lambda tq: Fraction(tq[0], tq[1]),
        )
        assert _farey_pairs(n) == brute, n


def _grid_families():
    """Every prime 5 <= p <= 2000, h in {2, 3, 5, 10, 20}, at H = 2h and at
    the largest integer H with 2H^2/h < p, where admissible."""
    for p in iter_primes(5, 2001):
        for h in (2, 3, 5, 10, 20):
            H_max = isqrt(p * h // 2)
            while 2 * H_max * H_max >= p * h:
                H_max -= 1
            for H in sorted({2 * h, H_max}):
                if H >= 2 * h and 2 * H * H < p * h:
                    yield p, H, h


def test_farey_check_agrees_with_sorted_spans_oracle():
    families = list(_grid_families())
    assert len(families) == 2847
    rng = random.Random(17)
    sampled = set(rng.sample(range(len(families)), 60))
    for k, (p, H, h) in enumerate(families):
        system = build_intervals(p, H, h)  # raises unless the Farey check passes
        sorted_spans_oracle(system)
        if k in sampled:
            ends = endpoints_oracle(p, H, h)
            assert len(system.entries) == len(ends)
            for t, q in system.entries:
                den = q * system.H_den
                assert tuple(Fraction(x, den) for x in system.ends(t, q)) == ends[q, t]
            assert count_points(system) == count_oracle(p, H, h)[0]


@pytest.mark.parametrize("p, H, h", [(31, Fraction(11), 2), (30, Fraction(32, 3), 2)])
def test_pair_check_boundary(p, H, h):
    # 0/1 and 1/2: H(q + q') - (h - 1) q q' = 3H - 2(h - 1) equals p, so the
    # closed right end of I(1,0) touches the closed left end of J(2,1)
    pairs = [(0, 1), (1, 2)]
    assert H * 3 - (h - 1) * 2 == p
    with pytest.raises(VerificationFailure, match="overlap"):
        _check_farey_family(system_of(p, H, h, pairs))
    with pytest.raises(VerificationFailure, match="overlap"):
        sorted_spans_oracle(system_of(p, H, h, pairs))
    # one more unit of p separates them; I(2,1) then ends short of p - H
    _check_farey_family(system_of(p + 1, H, h, pairs))
    sorted_spans_oracle(system_of(p + 1, H, h, pairs))
    # one less pushes the right end of the last I past p - H
    with pytest.raises(VerificationFailure, match="escapes"):
        _check_farey_family(system_of(p - 1, H, h, pairs))
    with pytest.raises(VerificationFailure, match="escapes"):
        sorted_spans_oracle(system_of(p - 1, H, h, pairs))


def test_pair_check_asserts_farey_neighbours():
    p, H, h = 10007, Fraction(100), 10
    pairs = _farey_pairs(10)
    _check_farey_family(system_of(p, H, h, pairs))
    # a repeated entry overlaps itself, though 2H - (h - 1) < p
    doubled = pairs[:5] + pairs[4:]
    with pytest.raises(VerificationFailure, match="not Farey neighbours"):
        _check_farey_family(system_of(p, H, h, doubled))
    with pytest.raises(VerificationFailure, match="overlap"):
        sorted_spans_oracle(system_of(p, H, h, doubled))
    # a gap or a swap also breaks t'q - tq' = 1
    for broken in (pairs[:5] + pairs[6:], pairs[:5] + [pairs[6], pairs[5]] + pairs[7:]):
        with pytest.raises(VerificationFailure, match="not Farey neighbours"):
            _check_farey_family(system_of(p, H, h, broken))


def test_build_and_count_construct_no_fraction(monkeypatch):
    H = Fraction(960961, 400)
    constructed = []
    real_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        constructed.append(args)
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    system = build_intervals(960961, H, 20)
    points = count_points(system)
    monkeypatch.undo()
    assert constructed == []
    assert (len(system.entries), points) == (4386, 184234)


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
    assert {q for _, q in system.entries} == {1, 2}
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
    hits = 0
    for _ in range(1000):
        t, q = rng.choice(system.entries)
        i_lo, i_hi, j_lo, j_hi = system.ends(t, q)
        den = q * system.H_den
        n = rng.randrange(10)
        z = rng.randint(i_lo // den - 2, -(-i_hi // den) + 2)
        if i_lo < z * den <= i_hi:
            hits += 1
            assert 0 < q * (z + n) - 10007 * t <= system.H
        z = rng.randint(j_lo // den - 2, -(-j_hi // den) + 2)
        if j_lo <= z * den < j_hi:
            hits += 1
            assert -system.H <= q * (z + n) - 10007 * t < 0
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


def test_sweeps_reject_x_max_below_their_least():
    # below the least x_max a sweep has no segment: it raised TypeError on
    # an empty worst candidate
    for fn, least in ((verify_S_envelope, 2), (verify_T_envelope, 3)):
        for x_max in (least - 1, 0, -3):
            with pytest.raises(ParameterError, match=f"x_max >= {least}"):
                fn(x_max)
        report = fn(least)
        assert (report.checked, report.passed) == (2, True)
        assert report.x_range == (least - 1.0, float(least))


def test_external_input_checks():
    reports = verify_external_inputs(20000)
    assert len(reports) == 4
    for rep in reports:
        assert rep.passed, rep.claim
    # |sum mu(d)/d| at X=7: 1 - 1/2 - 1/3 - 1/5 + 1/6 - 1/7 = -2/210
    mu = _mobius_table(7)
    val = sum(int(mu[d]) / d for d in range(1, 8))
    assert abs(val) == pytest.approx(2 / 210, abs=1e-12)
    assert abs(val) <= 0.1 + 2 / 7
    # squarefree count at X=4: {1,2,3} -> 3 <= 6*4/pi^2 + 0.679091*2
    assert sum(1 for d in range(1, 5) if mu[d] != 0) == 3
    assert 3 <= 6 * 4 / math.pi**2 + 0.679091 * 2


def test_mobius_table_matches_moebius():
    n = 3000
    mu = _mobius_table(n)
    assert mu.shape == (n + 1,)
    assert mu.tolist() == [0] + [moebius(d) for d in range(1, n + 1)]


def test_external_inputs_reject_x_max_below_2():
    for x_max in (1, 0, -3):
        with pytest.raises(ParameterError, match="x_max >= 2"):
            verify_external_inputs(x_max)
    assert [rep.checked for rep in verify_external_inputs(2)] == [2, 2, 1, 2]
