"""The Burgess interval family around the rationals tp/q.

For 0 <= t < q <= X with gcd(t,q)=1, the intervals

    I(q,t) = ( tp/q,        (tp+H)/q - h + 1 ]
    J(q,t) = [ (tp-H)/q,    tp/q - h + 1     )

are pairwise disjoint subsets of [-H, p-H) whenever X = H/h >= 2 and
2HX < p, and shifting any integer point by n < h stays within (0,H] resp.
[-H,0) after clearing denominators.  Endpoints are exact rationals: the
counting envelopes are tight enough that floating endpoints could flip
integer counts.

The family is built and checked in integers.  With n = floor(X), the pairs
(t, q) run through the Farey fractions t/q of order n in [0, 1), generated
in increasing order by the next-term recurrence

    (a/b, c/d) -> (c/d, (kc - a)/(kd - b)),   k = floor((n + b)/d),

from 0/1 and its neighbour 1/n, stopping before 1/1.  So `entries` is in
Farey order (increasing t/q), not grouped by q.  Adjacent Farey fractions
t/q < t'/q' satisfy t'q - tq' = 1 (Hardy & Wright, An Introduction to the
Theory of Numbers, ch. III), so their centres tp/q and t'p/q' lie exactly
p/(qq') apart, and the closed right end of I(q,t) lies strictly left of
the closed left end of J(q',t') if and only if, with H = Hn/Hd,

    Hn (q + q') - (h - 1) q q' Hd < p Hd.

Every J(q,t) lies left of I(q,t), so these inequalities make the whole
family disjoint; containment in [-H, p-H) then needs only the first J and
the last I.  Each end is an integer numerator over q Hd, written once in
`IntervalSystem.ends`; counts and checks read those numerators, and
Fractions are built only for an error message.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from math import floor

import numpy as np
from mpmath.libmp import from_float, mpf_lt

from .enclosure import CertifiedReal, enclose, envelope_a, envelope_b, working_precision
from .errors import ParameterError, VerificationFailure
from .ntcore import primes_upto


@dataclass(frozen=True)
class IntervalSystem:
    """The family for p, H = H_num/H_den (lowest terms) and h; `entries`
    holds the (t, q) of every reduced t/q in [0, 1) with q <= X, in
    increasing order."""

    p: int
    H_num: int
    H_den: int
    h: int
    entries: tuple[tuple[int, int], ...]

    @property
    def H(self) -> Fraction:
        return Fraction(self.H_num, self.H_den)

    @property
    def X(self) -> Fraction:
        return Fraction(self.H_num, self.H_den * self.h)

    def ends(self, t: int, q: int) -> tuple[int, int, int, int]:
        """(i_lo, i_hi, j_lo, j_hi) of I(q,t) and J(q,t) as numerators over
        q H_den; i_lo and j_hi are open, i_hi and j_lo closed."""
        tp = t * self.p * self.H_den
        shift = (self.h - 1) * q * self.H_den
        return tp, tp + self.H_num - shift, tp - self.H_num, tp - shift


def build_intervals(p: int, H, h: int) -> IntervalSystem:
    """Construct the full (q,t) family, in Farey order.

    H is an int or an exact rational; p and h must be ints.  Preconditions
    are checked by name: h >= 2, 0 < H < p, X = H/h >= 2, 2HX < p.
    Disjointness and containment in [-H, p-H) are asserted on the built
    system.
    """
    if not isinstance(p, int):
        raise ParameterError(f"p must be an int, got p = {p!r}")
    if not isinstance(h, int):
        raise ParameterError(f"h must be an int, got h = {h!r}")
    if h < 2:
        raise ParameterError(f"h >= 2 required, got h = {h}")
    H_num, H_den = H.as_integer_ratio()
    if not (0 < H_num < p * H_den):
        raise ParameterError(f"0 < H < p required, got H = {H}, p = {p}")
    X_den = H_den * h
    if H_num < 2 * X_den:
        raise ParameterError(f"X = H/h >= 2 required, got X = {H_num / X_den:.6g}")
    if 2 * H_num * H_num >= p * H_den * X_den:
        raise ParameterError(
            f"2HX < p required, got 2HX = {2 * H_num * H_num / (H_den * X_den):.6g} >= {p}"
        )
    system = IntervalSystem(p, H_num, H_den, h, tuple(_farey_pairs(H_num // X_den)))
    _check_farey_family(system)
    return system


def _farey_pairs(n: int) -> list[tuple[int, int]]:
    """(t, q) for every reduced t/q in [0, 1) with q <= n, increasing."""
    pairs = [(0, 1)]
    a, b, c, d = 0, 1, 1, n
    while d > 1:  # c/d = 1/1 ends the sequence
        pairs.append((c, d))
        k = (n + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    return pairs


def _check_farey_family(system: IntervalSystem) -> None:
    """Raise VerificationFailure unless the intervals of `system.entries`,
    (t, q) in increasing order of t/q, are disjoint and lie in [-H, p-H).

    Each adjacent pair must be Farey neighbours, t'q - tq' = 1, and satisfy
    Hn (q + q') - (h - 1) q q' Hd < p Hd.  A right end equal to p - H is
    inside; touching closed ends collide.  The chain argument needs every
    interval to have length H/q - h + 1 >= 0, which q <= H/h guarantees.
    """
    p, H_num, H_den, h1 = system.p, system.H_num, system.H_den, system.h - 1
    pairs = system.entries
    (t0, q0), (t1, q1) = pairs[0], pairs[-1]
    _, _, j_lo, j_hi = system.ends(t0, q0)
    i_lo, i_hi, _, _ = system.ends(t1, q1)
    for q, lo, hi, escapes in (
        (q0, j_lo, j_hi, j_lo < -q0 * H_num),  # j_lo < -H
        (q1, i_lo, i_hi, i_hi > q1 * (p * H_den - H_num)),  # i_hi > p - H
    ):
        if escapes:
            den = q * H_den
            raise VerificationFailure(
                f"interval [{Fraction(lo, den)},{Fraction(hi, den)}] escapes [-H, p-H) at p={p}"
            )
    bound = p * H_den
    for (t, q), (t2, q2) in zip(pairs, pairs[1:]):
        if t2 * q - t * q2 != 1:
            raise VerificationFailure(
                f"{t}/{q} and {t2}/{q2} are not Farey neighbours at p={p}"
            )
        if H_num * (q + q2) - h1 * q * q2 * H_den >= bound:
            raise VerificationFailure(
                f"intervals overlap near {(t2 * p * H_den - H_num) / (q2 * H_den):.6g} at p={p}"
            )


def count_points(system: IntervalSystem) -> int:
    """Exact number of integer points in the union: floor(i_hi) - floor(i_lo)
    in each I and ceil(j_hi) - ceil(j_lo) in each J, by integer floor
    division of the ends' numerators."""
    total = 0
    for t, q in system.entries:
        i_lo, i_hi, j_lo, j_hi = system.ends(t, q)
        den = q * system.H_den
        total += i_hi // den - i_lo // den + (-j_lo) // den - (-j_hi) // den
    return total


def envelope_bounds_enclosure(X, h) -> tuple[CertifiedReal, CertifiedReal]:
    """Enclosures of A(X)(6/pi^2)X^2 h and B(X)(6/pi^2)X^2 h."""
    x = enclose(Fraction(X))
    scale = 6 / CertifiedReal.pi() ** 2 * x**2 * h
    return envelope_a(x) * scale, envelope_b(x, h) * scale


# -- phi summatories ---------------------------------------------------------


def _phi_table(n: int) -> np.ndarray:
    ph = np.arange(n + 1, dtype=np.int64)
    for i in range(2, n + 1):
        if ph[i] == i:
            ph[i::i] -= ph[i::i] // i
    return ph


def sum_T(X) -> int:
    """T(X) = sum_{q <= X} phi(q), exact."""
    n = floor(Fraction(X))
    if n < 1:
        return 0
    return int(_phi_table(n)[1:].sum())


def sum_S(X) -> Fraction:
    """S(X) = X sum_{q<=X} phi(q)/q - sum_{q<=X} phi(q), exact rational."""
    X = Fraction(X)
    n = floor(X)
    if n < 1:
        return Fraction(0)
    ph = _phi_table(n)
    acc = Fraction(0)
    for q in range(1, n + 1):
        acc += Fraction(int(ph[q]), q)
    return X * acc - int(ph[1:].sum())


@dataclass(frozen=True)
class SweepReport:
    claim: str
    x_range: tuple[float, float]
    worst_slack: float
    worst_x: float
    checked: int
    passed: bool

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "X_range": list(self.x_range),
            "worst_slack": self.worst_slack,
            "worst_x": self.worst_x,
            "checked": self.checked,
            "pass": self.passed,
        }


def _check_x_max(x_max: int, least: int) -> int:
    """x_max as an int, at least `least`."""
    try:
        x_max = operator.index(x_max)
    except TypeError:
        raise ParameterError(f"x_max must be an int, got x_max = {x_max!r}") from None
    if x_max < least:
        raise ParameterError(f"need x_max >= {least}, got x_max = {x_max}")
    return x_max


def _sweep_report(claim: str, x_range: tuple[float, float], candidates) -> SweepReport:
    """Report on the (slack enclosure, X) candidates of a sweep: the worst
    is the first with the least lower end, and the claim passes when its
    slack is certainly positive.  Candidates are read one at a time, so only
    the worst is kept.  Only a new worst's lower end is rounded to a float:
    rounding toward -inf is monotone, so for the worst's float w a lower end
    x rounds below w exactly when x < w, ties included."""
    worst, checked = None, 0
    for checked, (slack, where) in enumerate(candidates, 1):
        if worst is None or mpf_lt(slack._mpi[0], bar):
            worst = (slack.lo, slack, where)
            bar = from_float(worst[0])
    lo, slack, where = worst
    return SweepReport(claim, x_range, lo, where, checked, slack.gt(0) is True)


def verify_S_envelope(x_max: int = 38) -> SweepReport:
    """Check |S(X) - 3 X^2/pi^2| <= (2/3) X for all real X in [1, x_max).

    S is piecewise linear on [k, k+1) with S(X) = a X - b, a = sum phi(q)/q,
    b = T(k), and is continuous at integers.  On each segment the difference
    D(X) = S - 3X^2/pi^2 gives two one-sided constraints:
      D - (2/3)X is concave -> sup at the stationary point or endpoints;
      -D - (2/3)X is convex -> sup at endpoints.
    The stationary value has the closed form (a - 2/3)^2 pi^2/12 - b.
    """
    x_max = _check_x_max(x_max, 2)
    ph = _phi_table(x_max)

    def candidates():
        pi2 = CertifiedReal.pi() ** 2
        a = Fraction(0)
        b = 0
        for k in range(1, x_max):
            a += Fraction(int(ph[k]), k)
            b += int(ph[k])
            for x in (Fraction(k), Fraction(k + 1)):
                d = enclose(a * x - b) - 3 * enclose(x) ** 2 / pi2
                yield enclose(Fraction(2, 3) * x) - abs(d), float(x)
            # stationary point of D - (2/3)X at X* = (a - 2/3) pi^2 / 6; its
            # value bounds the segment sup, so include it unless X* is
            # certainly outside (conservative when X* straddles an endpoint)
            xs = enclose(a - Fraction(2, 3)) * pi2 / 6
            if not (xs.le(k) is True or xs.ge(k + 1) is True):
                yield -(enclose(a - Fraction(2, 3)) ** 2 * pi2 / 12 - b), xs.lo

    with working_precision():
        return _sweep_report("|S - 3X^2/pi^2| <= (2/3) X", (1.0, float(x_max)), candidates())


def verify_T_envelope(x_max: int = 1000) -> SweepReport:
    """Check |T(X) - 3 X^2/pi^2| <= X log X for all real X in [2, x_max).

    T is constant on [k, k+1).  With u(X) = T(k) - 3X^2/pi^2:
      u - X log X is decreasing -> sup at the left endpoint;
      -u - X log X is convex for X >= pi^2/6 -> sup at endpoints.
    So both segment endpoints are the only candidates.  Each integer X
    ends one segment and opens the next, so X log X and 3X^2/pi^2 are
    enclosed once per X.
    """
    x_max = _check_x_max(x_max, 3)
    t_cum = np.cumsum(_phi_table(x_max)[1:])  # t_cum[k-1] = T(k)

    def candidates():
        pi2 = CertifiedReal.pi() ** 2

        def ends(x):
            xe = enclose(x)
            return x, xe * xe.log(), 3 * xe**2 / pi2

        right = ends(2)
        for k in range(2, x_max):
            t_val = enclose(int(t_cum[k - 1]))
            left, right = right, ends(k + 1)
            for x, x_log_x, main in (left, right):
                yield x_log_x - abs(t_val - main), float(x)

    with working_precision():
        return _sweep_report("|T - 3X^2/pi^2| <= X log X", (2.0, float(x_max)), candidates())


def _mobius_table(n: int) -> np.ndarray:
    mu = np.ones(n + 1, dtype=np.int64)
    mu[0] = 0
    for q in primes_upto(n):
        mu[::q] *= -1
        mu[:: q * q] = 0
    return mu


def verify_external_inputs(x_max: int = 10**6) -> list[SweepReport]:
    """Desk-scale empirical checks of the trusted external estimates.

    At every integer X <= x_max:
      1. |sum_{d<=X} mu(d)/d| <= 1/10 + 2/X
      2. sum_{d<=X} mu(d)^2 <= (6/pi^2) X + 0.679091 sqrt(X)
      3. sum_{d<=X} mu(d)^2/d <= (6/pi^2) log X + 2          (X >= 2)
      4. |sum_{d>X} mu(d)/d^2| <= 1/X  (tail via 6/pi^2 minus the partial sum)

    These are trusted external estimates, not re-proved here; float
    evaluation with generous slack is appropriate.
    """
    x_max = _check_x_max(x_max, 2)
    mu = _mobius_table(x_max)
    d = np.arange(x_max + 1, dtype=float)
    d[0] = 1.0
    mu_f = mu.astype(float)
    c1 = np.cumsum(mu_f[1:] / d[1:])
    c2 = np.cumsum((mu[1:] != 0).astype(float))
    c3 = np.cumsum(mu_f[1:] ** 2 / d[1:])
    c4 = np.cumsum(mu_f[1:] / d[1:] ** 2)
    xs = np.arange(1, x_max + 1, dtype=float)
    six_pi2 = 6 / math.pi**2

    reports = []

    def summarize(claim, slack, lo=1):
        sl = slack[lo - 1 :]
        i = int(np.argmin(sl))
        reports.append(
            SweepReport(
                claim=claim,
                x_range=(float(lo), float(x_max)),
                worst_slack=float(sl[i]),
                worst_x=float(i + lo),
                checked=len(sl),
                passed=bool(sl[i] > 0),
            )
        )

    summarize("|sum mu(d)/d| <= 1/10 + 2/X", (0.1 + 2 / xs) - np.abs(c1))
    summarize(
        "sum mu^2(d) <= 6X/pi^2 + 0.679091 sqrt(X)",
        six_pi2 * xs + 0.679091 * np.sqrt(xs) - c2,
    )
    summarize(
        "sum mu^2(d)/d <= 6 log(X)/pi^2 + 2",
        six_pi2 * np.log(np.maximum(xs, 2)) + 2 - c3,
        lo=2,
    )
    summarize("|sum_{d>X} mu(d)/d^2| <= 1/X", 1 / xs - np.abs(six_pi2 - c4))
    return reports
