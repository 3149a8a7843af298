"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error.  Output is machine-readable (JSON by default, TSV for case
tables); every floating quantity that feeds a verdict is printed as an
enclosure.  Identical argv and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from fractions import Fraction

from . import certify as cert
from .characters import character_orders, moment_sums_all, stirling_sandwich, weil_bound
from .errors import ConsistencyError, GpboundError
from .intervals import (
    build_intervals,
    count_points,
    envelope_bounds_enclosure,
    verify_external_inputs,
    verify_S_envelope,
    verify_T_envelope,
)
from .ntcore import PrimeContext, factorize, is_prime, iter_primes, least_primitive_root
from .sieve import (
    admissible_configs,
    fe_identity_worst_slack,
    sieve_lower_bound_worst_slack,
)

ENV_PRECISION = "GPBOUND_PRECISION_BITS"


def _parse_p_spec(text: str, omega: int | None):
    """'1e56' style input is an exact power-of-ten threshold; digits are an
    exact prime."""
    if "e" in text.lower():
        mant, expo = text.lower().split("e")
        if mant not in ("1", "10") and mant != "":
            raise argparse.ArgumentTypeError(
                "threshold inputs must be powers of ten like 1e56"
            )
        p_min = 10 ** int(expo) * (10 if mant == "10" else 1)
        if omega is None:
            raise argparse.ArgumentTypeError("threshold p needs --omega")
        return cert.Threshold(p_min=p_min, omega=omega)
    return int(text)


def _emit(args, payload, tsv: str | None = None) -> None:
    if args.format == "tsv" and tsv is not None:
        print(tsv)
    elif args.format == "human":
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True))


def _precision(args) -> int:
    bits = args.precision_bits
    if bits is None:
        bits = int(os.environ.get(ENV_PRECISION, "128"))
    if not 64 <= bits <= 4096:
        raise argparse.ArgumentTypeError("precision bits must lie in [64, 4096]")
    return bits


# -- subcommands -------------------------------------------------------------


def cmd_gp(args) -> int:
    p = int(args.p)
    g = least_primitive_root(p, candidate_limit=args.budget)
    print(g)
    return 0


def cmd_bound(args) -> int:
    bits = _precision(args)
    p_spec = _parse_p_spec(args.p, args.omega)
    if args.omega is None and not isinstance(p_spec, cert.Threshold) and p_spec >= 2**64:
        print("huge exact p needs --omega (p-1 will not be factored here)", file=sys.stderr)
        return 2
    omega = args.omega if args.omega is not None else _omega_of(p_spec)
    if args.kind == "thm1":
        value = cert.bound_log_free(p_spec, args.r, omega, bits)
        payload = {"bound": "log_free", **value.to_json()}
    elif args.kind == "sieved":
        if args.s is None or args.delta is None:
            print("bound sieved needs --s and --delta", file=sys.stderr)
            return 2
        value = cert.bound_sieved(p_spec, args.r, omega, args.s, Fraction(args.delta), bits)
        payload = {"bound": "sieved", **value.to_json()}
    else:
        comparison = cert.compare_with_burgess(p_spec, args.r, omega, bits)
        payload = comparison.to_json()
    _emit(args, payload)
    return 0


def _omega_of(p_spec) -> int:
    if isinstance(p_spec, cert.Threshold):
        return p_spec.omega
    return factorize(p_spec - 1).omega


def cmd_certify(args) -> int:
    bits = _precision(args)
    p = int(args.p)
    if p >= 2**64:
        print(
            "error: the CLI factors p-1 itself, which is only sized for desk-scale "
            "primes; for huge p build a SieveSummary in the library",
            file=sys.stderr,
        )
        return 2
    pm1 = factorize(p - 1)
    if args.e is not None:
        ctx = PrimeContext(p, pm1)
        from .sieve import SieveConfig

        summary = cert.SieveSummary.from_config(SieveConfig.build(ctx, args.e))
    else:
        summary = cert.SieveSummary.all_kept(pm1.omega)
    certificate = cert.certify_bound(p, summary, args.r, args.h, Fraction(args.H), bits)
    _emit(args, certificate.to_json())
    return 0 if certificate.certified else 1


_VERIFY_RMAX_DEFAULT = {"charsum": 4, "stirling": 1000, "win-chain": 100}


def cmd_verify(args) -> int:
    bits = _precision(args)
    if args.rmax is None:
        args.rmax = _VERIFY_RMAX_DEFAULT.get(args.what, 4)
    if args.what == "charsum":
        return _verify_charsum(args)
    if args.what == "intervals":
        return _verify_intervals(args, bits)
    if args.what == "sieve":
        return _verify_sieve(args)
    if args.what == "cases":
        report = cert.case_engine(args.target, bits)
        _emit(args, report.to_json(), tsv=report.to_tsv())
        return 0 if report.overall_pass else 1
    if args.what == "stirling":
        import math as _math

        last_finite = None
        ok = True
        checked = 0
        for r in range(1, args.rmax + 1):
            try:
                lower, mid, upper = stirling_sandwich(r)  # asserts ordering in logs
            except GpboundError:
                ok = False
                break
            checked += 1
            if _math.isfinite(upper):
                if not lower < mid < upper:
                    ok = False
                    break
                last_finite = {"r": r, "lower": lower, "mid": mid, "upper": upper}
        _emit(args, {"checked": checked, "pass": ok, "last_finite": last_finite})
        return 0 if ok else 1
    if args.what == "win-chain":
        summary = cert.win_chain_sweep(range(args.rmin, args.rmax + 1), precision_bits=bits)
        _emit(args, summary)
        return 0 if summary["all_certified"] else 1
    return 2


def _verify_charsum(args) -> int:
    import numpy as np

    worst = None
    records = []
    violations = 0
    cases = 0
    for p in iter_primes(5, args.pmax + 1):
        ctx = PrimeContext(p)
        orders = character_orders(p)
        for h in range(2, args.hmax + 1):
            sums = moment_sums_all(ctx, h, tuple(range(1, args.rmax + 1)))
            for r, values in sums.items():
                bound = np.full(p - 2, weil_bound(p, h, r))
                if r == 2:
                    quad = weil_bound(p, h, 2, "quadratic")
                    high = weil_bound(p, h, 2, "higher")
                    bound = np.minimum(bound, np.where(orders[1:] == 2, quad, high))
                slack = (bound - values[1:]) / bound
                cases += p - 2
                violations += int((slack < -1e-6).sum())
                j = int(slack.argmin()) + 1
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
                if args.emit == "all":
                    records.append(record)
    payload = {
        "cases": cases,
        "violations": violations,
        "worst": worst,
        "pass": violations == 0,
    }
    if records:
        payload["records"] = records
    _emit(args, payload)
    return 0 if violations == 0 else 1


def _verify_intervals(args, bits) -> int:
    reports = [
        verify_S_envelope(precision_bits=bits).to_json(),
        verify_T_envelope(precision_bits=bits).to_json(),
    ]
    reports += [r.to_json() for r in verify_external_inputs(args.xmax)]
    grid_fail = 0
    grid_checked = 0
    rng = random.Random(args.seed)
    primes = [10007, 65537, 10**6 + 3]
    while grid_checked < args.grid:
        p = primes[grid_checked % len(primes)]
        x = rng.randint(2, 50)
        h = rng.choice([2, 3, 5, 10, 20])
        H = Fraction(x * h) + Fraction(rng.randint(0, 9), 10)
        if 2 * H * H / h >= p:
            continue
        system = build_intervals(p, H, h)
        n_pts = count_points(system)
        lo, hi = envelope_bounds_enclosure(system.X, h)
        grid_checked += 1
        if not (lo.hi <= n_pts <= hi.lo):
            grid_fail += 1
    reports.append(
        {
            "claim": "A(X)(6/pi^2)X^2 h <= N(X) <= B(X)(6/pi^2)X^2 h",
            "X_range": [2, 50],
            "checked": grid_checked,
            "violations": grid_fail,
            "pass": grid_fail == 0,
        }
    )
    ok = all(r.get("pass") for r in reports)
    _emit(args, {"reports": reports, "pass": ok})
    return 0 if ok else 1


def _verify_sieve(args) -> int:
    """Exact checks: every identity slack must be 0 and every lower-bound
    slack >= 0; each (p, e) that fails, or raises, is reported."""
    worst = 0.0
    lb_worst = None
    failures = []
    primes_checked = 0
    configs_checked = 0
    for p in iter_primes(3, args.pmax + 1):
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
    payload = {
        "primes_checked": primes_checked,
        "configs_checked": configs_checked,
        "worst_slack": worst,
        "lower_bound_worst_slack": lb_worst,
        "failures": failures,
        "pass": not failures,
    }
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def cmd_scan(args) -> int:
    bits = _precision(args)
    primes = []
    if args.shape == "safe-prime":
        for p in iter_primes(args.start, args.stop):
            if is_prime((p - 1) // 2):
                primes.append(p)
            if len(primes) >= args.limit:
                break
    else:
        rng = random.Random(args.seed)
        span = args.stop - args.start
        seen = set()
        while len(primes) < args.limit:
            n = args.start + rng.randrange(span) | 1
            if n in seen:
                continue
            seen.add(n)
            if is_prime(n):
                primes.append(n)
    report = cert.soundness_crosscheck(primes, bits)
    _emit(args, report.to_json())
    return 1 if report.fatal else 0


def cmd_optimize(args) -> int:
    bits = _precision(args)
    p_spec = _parse_p_spec(args.p, args.omega)
    if isinstance(p_spec, cert.Threshold):
        result = cert.optimize_threshold(p_spec.p_min, p_spec.omega, precision_bits=bits)
    else:
        result = cert.optimize_params(p_spec, precision_bits=bits)
    _emit(args, result.to_json())
    return 0 if result.feasible else 1


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gpbound", description=__doc__)
    top.add_argument("--format", choices=["json", "tsv", "human"], default="json")
    top.add_argument("--precision-bits", type=int, default=None)
    top.add_argument("--seed", type=int, default=0)
    sub = top.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("gp", help="brute-force least primitive root")
    sp.add_argument("p", type=int)
    sp.add_argument("--budget", type=int, default=None)
    sp.set_defaults(fn=cmd_gp)

    sp = sub.add_parser("bound", help="closed-form bound enclosures")
    sp.add_argument("kind", choices=["thm1", "sieved", "burgess"])
    sp.add_argument("--p", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--omega", type=int, default=None)
    sp.add_argument("--s", type=int, default=None)
    sp.add_argument("--delta", default=None)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("certify", help="certificate at an exact prime")
    sp.add_argument("--p", required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--H", required=True)
    sp.add_argument("--e", type=int, default=None)
    sp.set_defaults(fn=cmd_certify)

    sp = sub.add_parser("verify", help="verification suites")
    sp.add_argument(
        "what",
        choices=["charsum", "intervals", "sieve", "cases", "stirling", "win-chain"],
    )
    sp.add_argument("--pmax", type=int, default=500)
    sp.add_argument("--hmax", type=int, default=8)
    sp.add_argument("--rmax", type=int, default=None)
    sp.add_argument("--rmin", type=int, default=2)
    sp.add_argument("--xmax", type=int, default=10**5)
    sp.add_argument("--grid", type=int, default=200)
    sp.add_argument("--target", choices=["cor2", "lonely"], default="cor2")
    sp.add_argument("--emit", choices=["worst", "all"], default="worst")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("scan", help="soundness sweep over a prime range")
    sp.add_argument("--from", dest="start", type=int, required=True)
    sp.add_argument("--to", dest="stop", type=int, required=True)
    sp.add_argument("--shape", choices=["safe-prime", "random"], default="safe-prime")
    sp.add_argument("--limit", type=int, default=50)
    sp.set_defaults(fn=cmd_scan)

    sp = sub.add_parser("optimize", help="smallest certified H at a prime or threshold")
    sp.add_argument("--p", required=True)
    sp.add_argument("--omega", type=int, default=None)
    sp.set_defaults(fn=cmd_optimize)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GpboundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except argparse.ArgumentTypeError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
