"""The e-free sieve: indicators, the character identity, and the lower
bound that powers sieved certificates.  Both are checked exactly: the
character sums are Ramanujan sums (Hölder's formula), so every slack is an
exact rational and no float tolerance is involved.

Run:  python demos/04_sieve_identities.py
"""

from fractions import Fraction

from gpbound.errors import ConfigError
from gpbound.ntcore import PrimeContext
from gpbound.sieve import (
    SieveConfig,
    admissible_configs,
    e_free,
    fe_identity_worst_slack,
    sieve_lower_bound_worst_slack,
)

ctx = PrimeContext(61)
print("p = 61, p-1 =", ctx.pm1_factors.entries)

print("\ne-freeness of 2 for each even divisor e | 60:")
for e in ctx.divisors_of_pm1():
    if e % 2 == 0:
        print(f"  e={e:3d}: e_free(2) = {e_free(ctx, e, 2)}, "
              f"exact identity slack over all n = {fe_identity_worst_slack(ctx, e)}")

print("\nadmissible sieve configurations (delta > 0) and the exact bound slack:")
for cfg in admissible_configs(ctx):
    slack = sieve_lower_bound_worst_slack(cfg)
    print(
        f"  e={cfg.e:3d} excluded={str(cfg.excluded):10s} delta={cfg.delta} "
        f"factor={float(cfg.factor):7.3f} worst slack={slack}"
    )

cfg = SieveConfig.build(ctx, 4)
print(f"\nconfig e=4: excluding {cfg.excluded} leaves density delta = {cfg.delta}")
print("the inequality is tight (slack exactly 0) at primitive roots")

print("\nthe fields are checked against p-1 on construction, not trusted:")
try:
    SieveConfig(omega=1, s=0, delta=Fraction(1), ctx=ctx, e=60)
except ConfigError as exc:
    print(f"  ConfigError: {exc}")

worst = SieveConfig.worst_case(12, 9)
print(f"\nover a threshold, omega=12 with the 9 largest primes excluded: "
      f"delta >= {worst.delta}, factor = {float(worst.factor):.3f}")
