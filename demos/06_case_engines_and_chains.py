"""The omega case engines and the bootstrap chains, failures included.

The engines re-derive the threshold bounds' case analyses with
certified arithmetic and report each case verbatim.  Three defects of the
source analysis show up here on purpose: the omega=17 case of the p^(5/8)
target, and the stated constant plus the tail regime of the
0.999 sqrt(p) target.  See the README for the accounting.

Run:  python demos/06_case_engines_and_chains.py
"""

from gpbound.certify import (
    compare_with_burgess,
    case_engine,
    win_chain_derive,
    Threshold,
    win_chain_sweep,
)

for target in ("cor2", "lonely"):
    report = case_engine(target)
    print(f"=== case engine: {target} ===")
    print(f"condition: {report.condition}")
    print(f"overall pass: {report.overall_pass}")
    if report.failures:
        print("failures:", report.failures)
    shown = [r for r in report.rows if not r.passed or r.omega in (8, 9, 17, 18, 51)]
    print(report.to_tsv().splitlines()[0])
    for row in shown:
        print(row.tsv())
    print()

print("=== bootstrap chain at r = 2 (p >= 1e15) ===")
rep = win_chain_derive(2)
for c in rep.checks:
    print(f"  {'ok ' if c.passed else 'BAD'} {c.name}: {c.value}")

print("\n=== full sweep r in [2, 100], both variants ===")
print(win_chain_sweep(range(2, 101)))

print("\n=== headline bound vs the Burgess-style shape at p >= 1e56 ===")
for r in (2, 5, 10):
    cmp = compare_with_burgess(Threshold(10**56, 10), r, 10)
    print(
        f"  r={r}: new in [{cmp.new_bound.value.lo_str(6)}, {cmp.new_bound.value.hi_str(6)}], "
        f"burgess in [{cmp.burgess_bound.value.lo_str(6)}, {cmp.burgess_bound.value.hi_str(6)}], "
        f"strictly smaller: {cmp.new_strictly_smaller}"
    )
