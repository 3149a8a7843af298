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

import random
import time

from gpbound import verify
from gpbound.certify import (
    BURGESS_C,
    compare_with_burgess,
    case_engine,
    soundness_crosscheck,
    Threshold,
    win_chain_sweep,
)
from gpbound.intervals import verify_S_envelope, verify_T_envelope
from gpbound.ntcore import is_prime, iter_primes


def _verdict(num, ok, detail):
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def test_criterion_1_character_bound_dominance():
    t0 = time.time()
    report = verify.charsum(pmax=500, hmax=8, rmax=4)
    elapsed = time.time() - t0
    ok = report["pass"] and elapsed < 300
    assert _verdict(
        1, ok, f"{report['cases']} cases, {report['violations']} violations, worst rel "
        f"slack {report['worst']['slack']:.4f}, {elapsed:.1f}s"
    )


def test_criterion_2_interval_envelopes():
    t0 = time.time()
    report = verify.interval_grid(grid=200, seed=0)
    elapsed = time.time() - t0
    ok = report["pass"] and report["checked"] == 200 and elapsed < 120
    assert _verdict(
        2, ok, f"{report['checked']} triples, {report['violations']} violations, "
        f"{elapsed:.1f}s"
    )


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
    report = verify.sieve(pmax=2000)
    elapsed = time.time() - t0
    worst_identity = report["worst_slack"]
    worst_lb = report["lower_bound_worst_slack"]
    ok = report["pass"] and worst_identity == 0 and worst_lb >= 0 and elapsed < 600
    assert _verdict(
        4,
        ok,
        f"{report['primes_checked']} primes, {report['configs_checked']} configs, "
        f"identity slack {worst_identity:.2e}, lower-bound slack {worst_lb}, "
        f"failures {report['failures']}, {elapsed:.1f}s",
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
