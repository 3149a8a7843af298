"""Moment sums of character window sums against their explicit bounds.

The 2r-th moment S(p,h,r) = sum_x |sum_{n<h} chi(x+n)|^(2r) is computed
exactly and compared with the completing-the-sum bounds; the scaled
coefficient W makes the comparison p-free.

Run:  python demos/02_character_moments.py
"""

from gpbound.characters import (
    CharacterIndex,
    moment_sum_exact,
    moment_sums_all,
    stirling_sandwich,
    weil_bound,
)
from gpbound.enclosure import w_factor
from gpbound.ntcore import PrimeContext

ctx = PrimeContext(13)
quad = CharacterIndex(ctx, 6)
print(f"p = 13, quadratic character (order {quad.order}):")
res = moment_sum_exact(quad, 2, 2)
print(f"  exact S(13,2,2)     = {res.value:.6f}  (error bound {res.error_bound:.1e})")
print(f"  quadratic-class cap = {weil_bound(13, 2, 2, 'quadratic'):.4f}")
print(f"  general cap         = {weil_bound(13, 2, 2):.4f}")

print("\nworst character at p = 499, h = 5:")
ctx = PrimeContext(499)
sums = moment_sums_all(ctx, 5, (1, 2, 3, 4))
for r in (1, 2, 3, 4):
    worst = float(sums[r][1:].max())
    cap = weil_bound(499, 5, r)
    print(f"  r={r}: exact max {worst:12.4e}  cap {cap:12.4e}  ratio {worst/cap:.3f}")

print("\nscaled coefficient W(p,h,r) with S <= W sqrt(p) h^(2r):")
for p, h, r in [(10**20, 2 * 10**5, 2), (10**15, 5682, 2), (10**15, 577, 3)]:
    print(f"  W({p:.0e}, {h}, {r}) = {w_factor(p, h, r):.4f}")

print("\nfactorial sandwich (2r/e)^r < (2r)!/(2^r r!) < sqrt(2)(2r/e)^r:")
for r in (1, 2, 10):
    lo, mid, hi = stirling_sandwich(r)
    print(f"  r={r}: {lo:.4f} < {mid:.4f} < {hi:.4f}")
