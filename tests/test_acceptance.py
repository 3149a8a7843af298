"""Acceptance suite: one test per criterion, each printing a verdict line.

Criteria and their budgets:
  1. character-bound dominance on all primes 5..500, h in 2..8, r in 1..4 (< 5 min)
  2. interval envelopes on >= 200 grid triples, X in [2, 50] (< 2 min)
  3. the two computational sweeps with strictly positive worst slack
  4. sieve identity + lower bound for all p <= 2000, all even e | p-1, all n (< 10 min)
  5. case engines for both threshold targets exit clean
  6. win-chain constants certify for r in 2..100 (both variants)
  7. certified primes always beat brute force (>= 100 primes, zero contradictions)
  8. bound table reproduces the published constants and wins the comparison

Criterion 5 is expected red and left red: the omega = 17 case of the
p^(5/8) target and the tail regime of the 0.999 sqrt(p) target fail
as stated in the source analysis; the engine reports both verbatim.  The
failure is asserted against the criterion as written, not weakened.
"""

import math
import random
import time
from fractions import Fraction

from gpbound.certify import (
    BURGESS_C,
    compare_with_burgess,
    case_engine,
    soundness_crosscheck,
    Threshold,
    win_chain_sweep,
)
from gpbound.characters import character_orders, moment_sums_all, weil_bound
from gpbound.intervals import (
    build_intervals,
    count_points,
    envelope_bounds_enclosure,
    verify_S_envelope,
    verify_T_envelope,
)
from gpbound.ntcore import PrimeContext, is_prime, iter_primes, primes_upto
from gpbound.sieve import (
    admissible_configs,
    fe_identity_worst_slack,
    sieve_lower_bound_worst_slack,
)


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_character_bound_dominance():
    t0 = time.time()
    cases = violations = 0
    worst = math.inf
    for p in primes_upto(500):
        if p < 5:
            continue
        ctx = PrimeContext(p)
        orders = character_orders(p)
        for h in range(2, 9):
            sums = moment_sums_all(ctx, h, (1, 2, 3, 4))
            for r, values in sums.items():
                general = weil_bound(p, h, r)
                rel = (general - values[1:]) / general
                cases += len(values) - 1
                violations += int((rel < -1e-6).sum())
                worst = min(worst, float(rel.min()))
                if r == 2:
                    quad = weil_bound(p, h, 2, "quadratic")
                    high = weil_bound(p, h, 2, "higher")
                    import numpy as np

                    bound = np.where(orders[1:] == 2, quad, high)
                    rel2 = (bound - values[1:]) / bound
                    cases += len(values) - 1
                    violations += int((rel2 < -1e-6).sum())
                    worst = min(worst, float(rel2.min()))
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 300
    assert _verdict(
        1, ok, f"{cases} cases, {violations} violations, worst rel slack "
        f"{worst:.4f}, {elapsed:.1f}s"
    )


def test_criterion_2_interval_envelopes():
    t0 = time.time()
    rng = random.Random(0)
    checked = violations = 0
    primes = (10007, 65537, 1000003)
    while checked < 200:
        p = primes[checked % 3]
        x = rng.randint(2, 50)
        h = rng.choice([2, 3, 5, 10, 20])
        H = Fraction(x * h) + Fraction(rng.randint(0, 9), 10)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        n = count_points(system)
        lo, hi = envelope_bounds_enclosure(system.X, h)
        checked += 1
        if not (lo.hi <= n <= hi.lo):
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 120
    assert _verdict(2, ok, f"{checked} triples, {violations} violations, {elapsed:.1f}s")


def test_criterion_3_computational_sweeps():
    s_rep = verify_S_envelope()
    t_rep = verify_T_envelope()
    ok = s_rep.passed and s_rep.worst_slack > 0 and t_rep.passed and t_rep.worst_slack > 0
    assert _verdict(
        3,
        ok,
        f"S sweep worst slack {s_rep.worst_slack:.4f} at X={s_rep.worst_x}; "
        f"T sweep worst slack {t_rep.worst_slack:.4f} at X={t_rep.worst_x}",
    )


def test_criterion_4_sieve_correctness():
    t0 = time.time()
    worst_identity = 0.0
    worst_lb = math.inf
    primes_checked = configs = 0
    for p in iter_primes(3, 2001):
        ctx = PrimeContext(p)
        primes_checked += 1
        for e in ctx.divisors_of_pm1():
            if e % 2 == 0:
                worst_identity = max(worst_identity, fe_identity_worst_slack(ctx, e))
        for config in admissible_configs(ctx):
            configs += 1
            worst_lb = min(worst_lb, sieve_lower_bound_worst_slack(config))
    elapsed = time.time() - t0
    ok = worst_identity == 0 and worst_lb >= 0 and elapsed < 600
    assert _verdict(
        4,
        ok,
        f"{primes_checked} primes, {configs} configs, identity slack "
        f"{worst_identity:.2e}, lower-bound slack {worst_lb:.2e}, {elapsed:.1f}s",
    )


def test_criterion_5_case_engines():
    cor2 = case_engine("cor2")
    lonely = case_engine("lonely")
    detail = (
        f"cor2 overall={cor2.overall_pass} failures={cor2.failures}; "
        f"lonely overall={lonely.overall_pass} failures={lonely.failures}"
    )
    ok = cor2.overall_pass and lonely.overall_pass
    _verdict(5, ok, detail)
    # Red as stated: the omega=17 case misses 1e11 by a factor ~1.46 under
    # the best sound worst-case delta, and the lonely tail regime cannot be
    # closed with s=0; the README's rigor notes carry the accounting and
    # test_cases.py pins each failing step exactly.
    assert ok, detail


def test_criterion_6_win_chains():
    t0 = time.time()
    summary = win_chain_sweep(range(2, 101))
    elapsed = time.time() - t0
    ok = summary["all_certified"]
    assert _verdict(
        6, ok, f"r in [2,100], both variants; failures={summary['failures']}; "
        f"{elapsed:.1f}s"
    )


def test_criterion_7_end_to_end_soundness():
    # safe primes certify from p ~ 1e7 on; omega(p-1) = 3 only from
    # p ~ 1.7e9 (below that 2H^2 < hp caps H under the condition's floor),
    # so the random tail is drawn where certificates genuinely exist and
    # smaller random primes exercise the honest "skipped" path
    t0 = time.time()
    primes = []
    for p in iter_primes(10**8, 10**8 + 10**7):
        if is_prime((p - 1) // 2):
            primes.append(p)
        if len(primes) >= 105:
            break
    rng = random.Random(0)
    randoms = []
    while len(randoms) < 20:
        n = rng.randrange(17 * 10**8, 4 * 10**9) | 1
        if is_prime(n):
            randoms.append(n)
    while len(randoms) < 30:
        n = rng.randrange(10**7, 10**9) | 1
        if is_prime(n):
            randoms.append(n)
    report = soundness_crosscheck(primes + randoms)
    elapsed = time.time() - t0
    ok = (
        report.checked >= 100
        and report.certified >= 100
        and not report.fatal
        and all(m > 0 for m in report.margins)
    )
    assert _verdict(
        7,
        ok,
        f"{report.checked} primes, {report.certified} certified, "
        f"{report.skipped} skipped, {len(report.contradictions)} contradictions, "
        f"min margin 10^{min(report.margins):.2f}, {elapsed:.1f}s",
    )


def test_criterion_8_bound_tables():
    assert BURGESS_C[2][1] == "12.8530"
    assert BURGESS_C[10][1] == "75.5139"
    results = []
    for r in range(2, 11):
        cmp = compare_with_burgess(Threshold(10**56, 10), r, 10)
        results.append(cmp.new_strictly_smaller is True)
    ok = all(results)
    assert _verdict(
        8, ok, f"C(2)^2..C(10)^10 reproduced; log-free bound certified below the "
        f"Burgess shape for r in [2,10] at p >= 1e56"
    )
