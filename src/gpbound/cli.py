"""Command-line front end.

Exit codes: 0 success / all checks pass, 1 verification failure,
2 usage error.  Output is machine-readable (JSON by default, TSV for case
tables); every floating quantity that feeds a verdict is printed as an
enclosure.  Identical argv and seed give byte-identical output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from fractions import Fraction

from . import certify as cert
from .errors import DomainError, GpboundError
from .ntcore import PrimeContext, factorize, is_prime, iter_primes, least_primitive_root


def _fraction(text: str) -> Fraction:
    """An exact rational such as 150000, 7/15 or 0.999."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _parse_p_spec(text: str, omega: int | None):
    """'1e56' style input is an exact power-of-ten threshold, which needs
    --omega; digits are an exact prime, whose omega comes from p-1."""
    if "e" in text.lower():
        mant, expo = text.lower().split("e", 1)
        if mant not in ("", "1", "10") or not expo.isdecimal():
            raise argparse.ArgumentTypeError(
                "threshold inputs must be powers of ten like 1e56"
            )
        p_min = 10 ** int(expo) * (10 if mant == "10" else 1)
        if omega is None:
            raise argparse.ArgumentTypeError("threshold p needs --omega")
        return cert.Threshold(p_min=p_min, omega=omega)
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--p must be an integer, got {text!r}") from None
    if omega is not None:
        raise argparse.ArgumentTypeError(
            "--omega is for threshold p only; an exact p's omega(p-1) is computed"
        )
    return p


def _factor_exact_prime(p: int):
    """The factorization of p-1, once p is proved an odd prime."""
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p == 2:
        raise DomainError("the bounds need an odd prime, got 2")
    return factorize(p - 1)


def _emit(args, payload, tsv: str | None = None) -> None:
    if args.format == "tsv" and tsv is not None:
        print(tsv)
    elif args.format == "human":
        print(json.dumps(payload, indent=2))
    else:
        print(json.dumps(payload, sort_keys=True))


# -- subcommands -------------------------------------------------------------


def cmd_gp(args) -> int:
    if args.budget is not None and args.budget < 2:
        raise argparse.ArgumentTypeError(f"--budget must be at least 2, got {args.budget}")
    p = int(args.p)
    g = least_primitive_root(p, candidate_limit=args.budget)
    print(g)
    return 0


def cmd_bound(args) -> int:
    p_spec = _parse_p_spec(args.p, args.omega)
    if isinstance(p_spec, cert.Threshold):
        omega = p_spec.omega
    else:
        omega = _factor_exact_prime(p_spec).omega
    if args.kind == "thm1":
        value = cert.bound_log_free(p_spec, args.r, omega)
        payload = {"bound": "log_free", **value.to_json()}
    elif args.kind == "sieved":
        if args.s is None or args.delta is None:
            print("bound sieved needs --s and --delta", file=sys.stderr)
            return 2
        value = cert.bound_sieved(p_spec, args.r, omega, args.s, args.delta)
        payload = {"bound": "sieved", **value.to_json()}
    else:
        comparison = cert.compare_with_burgess(p_spec, args.r, omega)
        payload = comparison.to_json()
    _emit(args, payload)
    return 0


def cmd_certify(args) -> int:
    p = args.p
    ctx = PrimeContext(p, _factor_exact_prime(p))
    sieve = cert.SieveConfig.build(ctx, p - 1 if args.e is None else args.e)
    certificate = cert.certify_bound(p, sieve, args.r, args.h, args.H)
    _emit(args, certificate.to_json())
    return 0 if certificate.certified else 1


_VERIFY_RMAX_DEFAULT = {"charsum": 4, "stirling": 1000, "win-chain": 100}
# the least value of each size below which a suite would check nothing
_VERIFY_SIZE_MIN = {
    "charsum": {"pmax": 5, "hmax": 2, "rmax": 1},
    "intervals": {"xmax": 2},
    "sieve": {"pmax": 3},
    "stirling": {"rmax": 1},
}


def cmd_verify(args) -> int:
    rmax = args.rmax if args.rmax is not None else _VERIFY_RMAX_DEFAULT.get(args.what, 4)
    if args.what == "cases":
        report = cert.case_engine(args.target)
        _emit(args, report.to_json(), tsv=report.to_tsv())
        return 0 if report.overall_pass else 1
    if args.what == "win-chain":
        if not 2 <= args.rmin <= rmax:
            raise argparse.ArgumentTypeError(
                f"need 2 <= --rmin <= --rmax, got --rmin {args.rmin} and --rmax {rmax}"
            )
        summary = cert.win_chain_sweep(range(args.rmin, rmax + 1))
        _emit(args, summary)
        return 0 if summary["all_certified"] else 1
    sizes = {"pmax": args.pmax, "hmax": args.hmax, "rmax": rmax, "xmax": args.xmax}
    for name, least in _VERIFY_SIZE_MIN[args.what].items():
        if sizes[name] < least:
            raise argparse.ArgumentTypeError(
                f"--{name} must be at least {least}, got {sizes[name]}"
            )
    from . import verify  # its numpy suites load numpy; `verify sieve` does not

    suites = {
        "charsum": lambda: verify.charsum(args.pmax, args.hmax, rmax),
        "intervals": lambda: verify.intervals(args.xmax, args.grid, args.seed),
        "sieve": lambda: verify.sieve(args.pmax),
        "stirling": lambda: verify.stirling(rmax),
    }
    payload = suites[args.what]()
    _emit(args, payload)
    return 0 if payload["pass"] else 1


def scan_primes(start: int, stop: int, shape: str, limit: int, seed: int) -> list[int]:
    """Up to `limit` primes in [start, stop) for `scan`: the first safe
    primes, or (shape "random") seeded draws of distinct odd candidates,
    which stop once every one has been drawn."""
    if shape == "safe-prime":
        safe = (p for p in iter_primes(start, stop) if is_prime((p - 1) // 2))
        return list(itertools.islice(safe, max(limit, 0)))
    primes = []
    rng = random.Random(seed)
    span = stop - start
    odd_candidates = len(range(start | 1, stop, 2))
    seen = set()
    while len(primes) < limit and len(seen) < odd_candidates:
        n = start + rng.randrange(span) | 1
        if n >= stop or n in seen:
            continue
        seen.add(n)
        if is_prime(n):
            primes.append(n)
    return primes


def cmd_scan(args) -> int:
    if args.start >= args.stop:
        raise argparse.ArgumentTypeError(
            f"empty range: --from {args.start} must be below --to {args.stop}"
        )
    primes = scan_primes(args.start, args.stop, args.shape, args.limit, args.seed)
    report = cert.soundness_crosscheck(primes)
    _emit(args, report.to_json())
    return 1 if report.fatal else 0


def cmd_optimize(args) -> int:
    p_spec = _parse_p_spec(args.p, args.omega)
    if isinstance(p_spec, cert.Threshold):
        result = cert.optimize_threshold(p_spec.p_min, p_spec.omega)
    else:
        result = cert.optimize_params(p_spec)
    _emit(args, result.to_json())
    return 0 if result.feasible else 1


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="gpbound", description=__doc__)
    top.add_argument("--format", choices=["json", "tsv", "human"], default="json")
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
    sp.add_argument("--delta", type=_fraction, default=None)
    sp.set_defaults(fn=cmd_bound)

    sp = sub.add_parser("certify", help="certificate at an exact prime")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--h", type=int, required=True)
    sp.add_argument("--H", type=_fraction, required=True)
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
