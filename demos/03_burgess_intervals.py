"""The interval family around tp/q: exact counting between its envelopes,
and the two piecewise sweeps with their worst slack.

Run:  python demos/03_burgess_intervals.py
"""

from fractions import Fraction

from gpbound.enclosure import envelopes
from gpbound.intervals import (
    build_intervals,
    count_points,
    envelope_bounds_enclosure,
    sum_S,
    sum_T,
    verify_S_envelope,
    verify_T_envelope,
)

p, H, h = 10007, Fraction(100), 10
system = build_intervals(p, H, h)
n = count_points(system)
lo, hi = envelope_bounds_enclosure(system.X, h)
a, b = envelopes(system.X, h)
print(f"p={p}, H={H}, h={h}  (X = {float(system.X)}):")
print(f"  {len(system.entries)} (q,t) pairs, N(X) = {n} integer points")
print(f"  envelope: [{lo.lo_str(8)}, {hi.hi_str(8)}]  A={a:.5f} B={b:.5f}")
print(f"  midline sums: S = {float(sum_S(system.X)):.4f}, T = {sum_T(system.X)}")
print(f"  2hS = {float(2*h*sum_S(system.X)):.2f} <= {n} < 2hS + 4T ✓")

print("\npiecewise sweeps behind the envelope constants:")
s_rep = verify_S_envelope()
print(f"  {s_rep.claim}: pass={s_rep.passed}, worst slack {s_rep.worst_slack:.4f} at X={s_rep.worst_x}")
t_rep = verify_T_envelope()
print(f"  {t_rep.claim}: pass={t_rep.passed}, worst slack {t_rep.worst_slack:.4f} at X={t_rep.worst_x}")
