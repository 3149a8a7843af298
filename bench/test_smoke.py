"""Smoke test of the benchmark at tiny sizes (p <= 50, 3 primes, r <= 5).

    python3 -m pytest -q bench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
OUT = os.path.join(BENCH_DIR, "out", "smoke")
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT, script=RUN):
    return subprocess.run([sys.executable, script, *args], capture_output=True, text=True,
                          timeout=180, cwd=cwd)


def test_spec_lists_what_the_benchmark_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == [
        (m.name, m.unit, m.better) for m in LAYER_METRICS
    ]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_prints_every_metric_and_fails_nothing(name, trace):
    proc = _bench("--workload", name, "--seed", "0", "--seconds", "0", "--trace", str(trace),
                  "--size", "smoke", "--out", OUT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_corrupted_golden_entry_fails_its_item():
    clean = run.run_workload("certify-exact", seconds=0, size_name="smoke", golden={},
                             setup_samples=1)
    assert clean["failed"] == 0
    golden = dict(clean["verdicts"])
    victim = sorted(golden)[0]
    golden[victim] = {**golden[victim], "feasible": not golden[victim]["feasible"]}
    corrupted = run.run_workload("certify-exact", seconds=0, size_name="smoke",
                                 golden=golden, setup_samples=1)
    assert corrupted["failed"] == 1
    assert corrupted["failures"][0][0] == victim
    assert corrupted["failures"][0][1].startswith("golden:")


def test_fails_without_the_source_tree():
    bare = os.path.join(OUT, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "certify-exact", "--seconds", "0", "--size", "smoke",
                  cwd=bare, script=os.path.join(bare, "bench", "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("base, new, better, expected", [
    ([10.0 + i * 0.01 for i in range(10)], [12.0 + i * 0.01 for i in range(10)], "higher",
     "improved"),
    ([10.0 + i * 0.01 for i in range(10)], [8.0 + i * 0.01 for i in range(10)], "higher",
     "worse"),
    ([10.0 + i * 0.01 for i in range(10)], [10.0 + i * 0.01 for i in range(10)], "lower",
     "no worse"),
    ([5.0, 15.0, 5.0, 15.0, 10.0], [6.0, 14.0, 6.0, 14.0, 10.0], "lower", "unresolved"),
])
def test_compare_rule(base, new, better, expected):
    assert run.judge(base, new, better, bound=0.1) == expected
