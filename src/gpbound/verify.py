"""Verification suites, run by both the CLI `verify` subcommand and the
acceptance criteria.

Each suite takes its sizes and returns the payload the CLI prints: a dict,
keys in output order (`--format human` keeps it), whose `pass` entry is the
verdict.
"""

from __future__ import annotations

import math
import random
import sys
from fractions import Fraction

from .errors import ConsistencyError, GpboundError
from .ntcore import PrimeContext, iter_primes
from .sieve import admissible_configs, fe_identity_worst_slack, sieve_lower_bound_worst_slack

# numpy, and the characters and intervals modules that load it, are imported
# inside the suites that use them: `verify sieve` runs without numpy

_GRID_PRIMES = (10007, 65537, 10**6 + 3)
# weil_bound's float result is a sum of positive terms after at most six
# roundings, so it exceeds the exact bound by under 4 eps relative; rounding
# it down by 8 eps also absorbs the rounding of this product and of the sum
# value + error bound it is compared with
_BOUND_ROUNDING = 8 * sys.float_info.epsilon


def charsum(pmax: int, hmax: int, rmax: int) -> dict:
    """Nonprincipal S_chi(p,h,r) against its explicit bound (at r = 2 the
    smaller of the general and the order-class bound) for 5 <= p <= pmax,
    2 <= h <= hmax, r <= rmax.

    A case passes when value + moment_error_bound <= bound, with the float
    bound rounded down by _BOUND_ROUNDING; `worst` is the case of least
    relative slack (bound - value) / bound.  Within one (p, h, r) it is the
    smallest j whose slack lies within 2 moment_error_bound / bound of the
    least: two computed values whose exact moments are equal differ by at
    most twice the error bound, so ties do not break by rounding noise.
    """
    import numpy as np

    from .characters import character_orders, moment_error_bound, moment_sums_all, weil_bound

    worst = None
    violations = 0
    cases = 0
    for p in iter_primes(5, pmax + 1):
        ctx = PrimeContext(p)
        orders = character_orders(p)
        for h in range(2, hmax + 1):
            sums = moment_sums_all(ctx, h, tuple(range(1, rmax + 1)))
            for r, values in sums.items():
                bound = np.full(p - 2, weil_bound(p, h, r))
                if r == 2:
                    quad = weil_bound(p, h, 2, "quadratic")
                    high = weil_bound(p, h, 2, "higher")
                    bound = np.minimum(bound, np.where(orders[1:] == 2, quad, high))
                err = moment_error_bound(p, h, r)
                cases += p - 2
                violations += int((values[1:] + err > bound * (1 - _BOUND_ROUNDING)).sum())
                slack = (bound - values[1:]) / bound
                j = int(np.flatnonzero(slack <= slack.min() + 2 * err / bound)[0]) + 1
                record = {
                    "p": p,
                    "j": j,
                    "order": int(orders[j]),
                    "h": h,
                    "r": r,
                    "exact": float(values[j]),
                    "bound": float(bound[j - 1]),
                    "slack": float(slack[j - 1]),
                }
                if worst is None or record["slack"] < worst["slack"]:
                    worst = record
    return {
        "cases": cases,
        "violations": violations,
        "worst": worst,
        "pass": violations == 0,
    }


def interval_grid(grid: int, seed: int) -> dict:
    """The point count N(X) of the interval family between its envelopes,
    on `grid` seeded (p, H, h) triples with X in [2, 50]."""
    from .intervals import build_intervals, count_points, envelope_bounds_enclosure

    violations = 0
    checked = 0
    rng = random.Random(seed)
    while checked < grid:
        p = _GRID_PRIMES[checked % len(_GRID_PRIMES)]
        x = rng.randint(2, 50)
        h = rng.choice([2, 3, 5, 10, 20])
        H = Fraction(x * h) + Fraction(rng.randint(0, 9), 10)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        n_pts = count_points(system)
        lo, hi = envelope_bounds_enclosure(system.X, h)
        checked += 1
        if not (lo.hi <= n_pts <= hi.lo):
            violations += 1
    return {
        "claim": "A(X)(6/pi^2)X^2 h <= N(X) <= B(X)(6/pi^2)X^2 h",
        "X_range": [2, 50],
        "checked": checked,
        "violations": violations,
        "pass": violations == 0,
    }


def intervals(xmax: int, grid: int, seed: int) -> dict:
    """The S and T sweeps, the external estimates up to xmax, and the grid."""
    from .intervals import verify_external_inputs, verify_S_envelope, verify_T_envelope

    sweeps = [verify_S_envelope(), verify_T_envelope(), *verify_external_inputs(xmax)]
    reports = [r.to_json() for r in sweeps]
    reports.append(interval_grid(grid, seed))
    return {"reports": reports, "pass": all(r["pass"] for r in reports)}


def sieve(pmax: int) -> dict:
    """Exact sieve checks for every odd prime p <= pmax: each identity slack
    must be 0 and each lower-bound slack >= 0; a (p, e) that fails, or
    raises, is listed in `failures`."""
    worst = 0.0
    lb_worst = None
    failures = []
    primes_checked = 0
    configs_checked = 0
    for p in iter_primes(3, pmax + 1):
        ctx = PrimeContext(p)
        primes_checked += 1
        for e in ctx.divisors_of_pm1():
            if e % 2 != 0:
                continue
            slack = fe_identity_worst_slack(ctx, e)
            worst = max(worst, slack)
            if slack != 0:
                failures.append({"p": p, "e": e, "check": "identity", "slack": slack})
        for config in admissible_configs(ctx):
            configs_checked += 1
            try:
                slack = sieve_lower_bound_worst_slack(config)
            except ConsistencyError as exc:
                failures.append(
                    {"p": p, "e": config.e, "check": "lower_bound", "error": str(exc)}
                )
                continue
            if lb_worst is None or slack < lb_worst:
                lb_worst = slack
    return {
        "primes_checked": primes_checked,
        "configs_checked": configs_checked,
        "worst_slack": worst,
        "lower_bound_worst_slack": lb_worst,
        "failures": failures,
        "pass": not failures,
    }


def stirling(rmax: int) -> dict:
    """The Stirling sandwich for r = 1..rmax, with its last finite triple."""
    from .characters import stirling_sandwich

    last_finite = None
    ok = True
    checked = 0
    for r in range(1, rmax + 1):
        try:
            lower, mid, upper = stirling_sandwich(r)  # asserts ordering in logs
        except GpboundError:
            ok = False
            break
        checked += 1
        if math.isfinite(upper):
            if not lower < mid < upper:
                ok = False
                break
            last_finite = {"r": r, "lower": lower, "mid": mid, "upper": upper}
    return {"checked": checked, "pass": ok, "last_finite": last_finite}
