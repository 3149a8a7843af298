"""gpbound benchmark: seeded verdict workloads, end-to-end and per-layer.

One workload per run, one process, one thread (numpy's thread pools are
pinned to one thread before anything imports it):

    python3 bench/run.py --workload large-prime --seed 3 --seconds 15 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced and
traced passes of the same inputs in turn and prints the per-layer metrics
(median per traced pass) and the tracing overhead.  The last line of
standard output is one JSON object {correct, attempted, failed, metrics};
the full record (stamp, per-item latencies and failures, spans) goes to
bench/out/runs/ or --out.  `failed / attempted` is the share of items that
raised, failed their verdict check or disagreed with the recorded golden;
the end-to-end metric `ok_frac` is one minus that share.

    python3 bench/run.py --workload all            # every workload in turn
    python3 bench/run.py --compare BASE_DIR NEW_DIR  # judge two sets of runs
    python3 bench/run.py --workload W --record-golden  # rewrite goldens (seed 0)

For --compare, run the parent and the change alternately (swap which goes
first on every pair) with seeds 1..10 and a separate --out directory per
side.

Set-up time is measured in fresh child processes (`--setup-probe`): import
of the modules the workload calls, generation of the first pass's inputs,
and the lazy tables the library fills on first use.  Items then measure
steady work.  Runs measure whole passes until --seconds of CPU time are
measured.

Every time is CPU time, scaled to a reference machine speed by a probe run
between items (see clock.py): the work is single-threaded and does no I/O,
and on a shared host both the time given to other tenants and their load on
the core would otherwise swamp the changes the benchmark is meant to see.
Raw CPU times and wall time per pass are kept in the run record.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}
os.environ.update(THREAD_PINS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(BENCH_DIR, "golden.json")
DEFAULT_OUT = os.path.join(BENCH_DIR, "out", "runs")
SETUP_SAMPLES = 5
DEFAULT_SEED = 0

sys.path.insert(0, BENCH_DIR)
from clock import Speedometer, cpu_clock, probe_scale  # noqa: E402
from spans import LAYER_METRICS, Tracer, summarize_passes  # noqa: E402
from workloads import SIZES, WORKLOADS, CheckFailed  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, the source tree is missing)."""


def _import_gpbound() -> None:
    """Put this checkout's src/ first on the path; refuse any other gpbound."""
    if not os.path.isfile(os.path.join(SRC, "gpbound", "__init__.py")):
        raise BenchError(f"no gpbound source tree at {SRC}")
    sys.path.insert(0, SRC)
    import gpbound

    if os.path.dirname(os.path.dirname(os.path.abspath(gpbound.__file__))) != SRC:
        raise BenchError(f"imported gpbound from {gpbound.__file__}, not from {SRC}")


def tail_percentile(items_per_pass: int) -> int:
    """Highest whole percentile with ten items of one pass beyond it (p50 at least)."""
    return max(50, min(99, int(100 * (1 - 10 / items_per_pass)))) if items_per_pass else 50


def _percentile(values, q):
    """Nearest-rank percentile q (0-100) of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-q * len(ordered) // 100))
    return ordered[int(rank) - 1]


# -- set-up ----------------------------------------------------------------------


def setup_probe(workload, seed, size) -> dict:
    """Time, in this fresh process, the imports and inputs a workload needs."""
    before = probe_scale()
    t0 = time.process_time()
    _import_gpbound()
    for module in workload.modules:
        importlib.import_module(module)
    t1 = time.process_time()
    workload.items(seed, 0, size)
    workload.warm()
    t2 = time.process_time()
    scale = (before + probe_scale()) / 2
    return {"import_s": (t1 - t0) * scale, "inputs_s": (t2 - t1) * scale, "scale": scale}


def measure_setup(name, seed, size_name, samples) -> dict:
    probes = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe", "--workload", name,
             "--seed", str(seed), "--size", size_name],
            capture_output=True, text=True, timeout=120, check=True, cwd=ROOT,
        )
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return {
        "setup_s": statistics.median(p["import_s"] + p["inputs_s"] for p in probes),
        "import_s": statistics.median(p["import_s"] for p in probes),
        "inputs_s": statistics.median(p["inputs_s"] for p in probes),
        "samples": probes,
    }


# -- passes ----------------------------------------------------------------------


def run_pass(items, tr, golden, speed, record) -> None:
    """Run every item once, appending [id, cpu_ms, error, verdict, probe] to record."""
    cpu_ms = 0.0
    for item in items:
        probe_index = speed.tick(cpu_ms / 1e3)
        error = verdict = None
        t0 = cpu_clock()
        try:
            with tr.item(item.id):
                verdict = item.run(tr)
        except CheckFailed as exc:
            error = f"check: {exc}"
        except Exception:  # a library error fails this item, not the run
            error = "raised: " + traceback.format_exc(limit=3)
        cpu_ms = (cpu_clock() - t0) * 1e3
        if error is None:
            verdict = json.loads(json.dumps(verdict))
            expected = golden.get(item.id)
            if expected is not None and expected != verdict:
                error, verdict = f"golden: expected {expected}, got {verdict}", None
        record.append([item.id, cpu_ms, error, verdict, probe_index])
    speed.tick(cpu_ms / 1e3)


def run_workload(name, seed=DEFAULT_SEED, seconds=15.0, trace=False, size_name="full",
                 golden=None, setup_samples=SETUP_SAMPLES) -> dict:
    """One benchmark run; returns the full record (metrics under 'metrics')."""
    workload, size = WORKLOADS[name], SIZES[size_name]
    _import_gpbound()
    setup = measure_setup(name, seed, size_name, setup_samples)
    for module in workload.modules:
        importlib.import_module(module)
    workload.warm()
    if golden is None:
        golden = load_golden().get(name, {})

    speed = Speedometer(workload.probe)
    record, passes, tracers = [], [], []  # passes: (first, stop, traced, wall_s)
    k, cpu_s = 0, 0.0
    while cpu_s < seconds or k == 0:
        # a traced run repeats pass 0, so that its counts repeat exactly
        if not (trace and k):
            items = workload.items(seed, k, size)
        # traced runs alternate U T, T U, ... so that drift and warm-up do
        # not all land on one side of the overhead estimate
        pair = (Tracer(False), Tracer(True))
        for tr in (pair[::1 - 2 * (k % 2)] if trace else pair[:1]):
            first, wall0 = len(record), time.perf_counter()
            run_pass(items, tr, golden, speed, record)
            passes.append((first, len(record), tr.enabled, time.perf_counter() - wall0))
            if tr.enabled:
                tracers.append((tr, first))
        cpu_s = sum(row[1] for row in record) / 1e3
        k += 1

    scaled = [row[1] * speed.scale(row[4]) for row in record]  # ms at reference speed
    failures = [(row[0], row[2]) for row in record if row[2]]
    items_per_pass = passes[0][1] - passes[0][0]
    tail_q = tail_percentile(items_per_pass)
    pass_s = {True: [], False: []}
    for first, stop, traced, _wall in passes:
        pass_s[traced].append(sum(scaled[first:stop]) / 1e3)
    if trace:
        layer_passes = [
            tr.layer_metrics({row[0]: speed.scale(row[4])
                              for row in record[first:first + items_per_pass]})
            for tr, first in tracers
        ]
        layers = summarize_passes(layer_passes)
        layers["setup.import_s"] = setup["import_s"]
        layers["setup.inputs_s"] = setup["inputs_s"]
        layers["trace.overhead_s"] = (statistics.median(pass_s[True])
                                      - statistics.median(pass_s[False]))
        units = {m.name: m.unit for m in LAYER_METRICS}
        metrics = {n: {"value": layers[n], "unit": units[n]} for n in units}
    else:
        layer_passes = []
        values = {
            "setup_s": setup["setup_s"],
            "items_per_s": len(record) / (sum(scaled) / 1e3),
            "item_p50_ms": statistics.median(scaled),
            "item_tail_ms": _percentile(scaled, tail_q),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1 - len(failures) / len(record),
        }
        metrics = {n: {"value": v, "unit": END_TO_END_UNITS[n]} for n, v in values.items()}
    return {
        "correct": not failures,
        "attempted": len(record),
        "failed": len(failures),
        "metrics": metrics,
        "stamp": stamp(name, seed, seconds, trace, size_name, items_per_pass, k, tail_q),
        "setup": setup,
        "failures": failures,
        "items": [[row[0], ms, row[1], row[2] is None] for row, ms in zip(record, scaled)],
        "verdicts": {row[0]: row[3] for row in record if row[3] is not None},
        "passes": [{"items": stop - first, "traced": traced, "wall_s": wall,
                    "scaled_cpu_s": s} for (first, stop, traced, wall), s in
                   zip(passes, [sum(scaled[a:b]) / 1e3 for a, b, _t, _w in passes])],
        "probes_s": speed.samples,
        "counts_repeat": all(_counts(p) == _counts(layer_passes[0]) for p in layer_passes),
        "spans": [tr.spans for tr, _first in tracers],
        "layer_map": [dataclasses.asdict(m) for m in LAYER_METRICS],
    }


def _counts(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith((".busy_s", ".peak_mib"))}


# -- provenance --------------------------------------------------------------------


def _commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except OSError:
        return None
    return out.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(os.path.join(SRC, "gpbound"))):
        dirs.sort()
        for fname in sorted(files):
            if fname.endswith(".py"):
                path = os.path.join(folder, fname)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()[:16]


def _version(dist):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def stamp(name, seed, seconds, trace, size_name, items_per_pass, passes, tail_q) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "size": size_name,
        "commit": _commit(),
        "src_digest": _src_digest(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "items_per_pass": items_per_pass,
        "passes": passes,
        "item_tail_ms_percentile": tail_q,
    }


# -- goldens -----------------------------------------------------------------------


def load_golden() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN) as fh:
        return json.load(fh)


def record_golden(name, seconds) -> int:
    result = run_workload(name, DEFAULT_SEED, seconds, golden={}, setup_samples=1)
    if result["failed"]:
        print(f"not recording: {result['failed']} items failed", file=sys.stderr)
        return 1
    golden = load_golden()
    golden[name] = result["verdicts"]
    write_golden(golden)
    print(f"recorded {len(golden[name])} golden verdicts for {name}")
    return 0


def write_golden(golden) -> None:
    """One item per line, sorted, so that a diff shows each changed verdict."""
    blocks = []
    for name in sorted(golden):
        rows = ",\n".join(f"{json.dumps(item)}: {json.dumps(v, sort_keys=True)}"
                          for item, v in sorted(golden[name].items()))
        blocks.append(f"{json.dumps(name)}: {{\n{rows}\n}}")
    with open(GOLDEN, "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")


# -- compare -----------------------------------------------------------------------


def _load_runs(folder) -> dict:
    runs: dict = {}
    for fname in sorted(os.listdir(folder)):
        if fname.endswith("-trace0.json"):
            with open(os.path.join(folder, fname)) as fh:
                rec = json.load(fh)
            runs.setdefault(rec["stamp"]["workload"], {})[rec["stamp"]["seed"]] = rec
    return runs


def judge(base, new, better, bound) -> str:
    """improved / no worse / worse / unresolved for one metric on one workload.

    base and new are the values of runs paired in order.  A gain needs ten
    pairs or more, wins in nine tenths of them (ties count for neither) and a
    median gap wider than the base's interquartile range.  Otherwise, when
    either side's spread exceeds the bound, the answer is unresolved unless
    every new run beats every base run; else the median decides against the
    bound.
    """
    sign = 1 if better == "higher" else -1
    mb, mn = statistics.median(base), statistics.median(new)
    gain = sign * (mn - mb)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    if len(pairs) >= 10 and wins >= 0.9 * len(pairs) and gain > _iqr(base):
        return "improved"
    spreads = [_iqr(v) / abs(statistics.median(v)) if statistics.median(v) else 0.0
               for v in (base, new)]
    if any(s > bound for s in spreads):
        if all(sign * (n - b) > 0 for n in new for b in base):
            return "no worse"
        return "unresolved"
    if -gain > bound * abs(mb):
        return "worse"
    return "no worse"


def _iqr(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def compare(base_dir, new_dir) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    base, new = _load_runs(base_dir), _load_runs(new_dir)
    worse = 0
    print(f"{'workload':<18} {'metric':<13} {'base median':>12} {'new median':>12}  verdict")
    for name in sorted(set(base) & set(new)):
        seeds = sorted(set(base[name]) & set(new[name]))
        for metric, m in spec.items():
            b = [base[name][s]["metrics"][metric]["value"] for s in seeds]
            n = [new[name][s]["metrics"][metric]["value"] for s in seeds]
            verdict = judge(b, n, m["better"], m["bound"])
            worse += verdict == "worse"
            print(f"{name:<18} {metric:<13} {statistics.median(b):>12.5g} "
                  f"{statistics.median(n):>12.5g}  {verdict} ({len(seeds)} pairs)")
    return 1 if worse else 0


# -- entry point -------------------------------------------------------------------


def _print_result(result) -> None:
    stamp_ = result["stamp"]
    print(f"# {stamp_['workload']} seed={stamp_['seed']} trace={stamp_['trace']} "
          f"items={result['attempted']} ({stamp_['passes']} passes of "
          f"{stamp_['items_per_pass']}) failed={result['failed']} "
          f"failed_frac={result['failed'] / result['attempted']:.4g} "
          f"tail=p{stamp_['item_tail_ms_percentile']}")
    for item_id, err in result["failures"][:5]:
        print(f"# FAILED {item_id}: {err.strip().splitlines()[-1]}", file=sys.stderr)
    for metric, v in result["metrics"].items():
        print(f"#   {metric:<52} {v['value']:>14.6g} {v['unit']}")
    print("# stamp " + json.dumps(stamp_, sort_keys=True))


def _write_record(result, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    s = result["stamp"]
    path = os.path.join(out_dir, f"{s['workload']}-seed{s['seed']}-trace{s['trace']}.json")
    with open(path, "w") as fh:
        json.dump(result, fh)


def _summary(result) -> str:
    return json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")})


def _run_all(args) -> int:
    """Every workload in its own process; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size, "--out", args.out]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, v in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = v
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'smoke' shrinks every workload for a quick check")
    parser.add_argument("--out", default=DEFAULT_OUT, help="where run records go")
    parser.add_argument("--compare", nargs=2, metavar=("BASE_DIR", "NEW_DIR"))
    parser.add_argument("--record-golden", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.workload is None:
            parser.error("--workload is required")
        if args.workload == "all":
            return _run_all(args)
        if args.setup_probe:
            workload = WORKLOADS[args.workload]
            print(json.dumps(setup_probe(workload, args.seed, SIZES[args.size])))
            return 0
        if args.record_golden:
            return record_golden(args.workload, args.seconds)
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              args.size)
    except (BenchError, subprocess.CalledProcessError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _write_record(result, args.out)
    _print_result(result)
    print(_summary(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
