"""Byte-identical CLI output on a recorded golden set.

`golden/cli.json` holds, for each command, its argv, the exact stdout and the
exit code, recorded before a refactor of the certifier, search, case engines
and win chains.  A change that alters any verdict, detail string, row order
or printed digit fails here; a deliberate output change re-records the data.
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

import gpbound
from gpbound.cli import build_parser, main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json").read_text())

# Subcommands decided in exact and enclosure arithmetic alone: they must run
# in an interpreter where numpy cannot be imported.
NUMPY_FREE = {"gp", "bound", "certify", "optimize", "verify cases", "verify sieve",
              "verify win-chain"}

_WITHOUT_NUMPY = """
import contextlib, io, json, sys

sys.modules["numpy"] = None  # any import of numpy now raises ImportError
import gpbound.certify
from gpbound.cli import main

results = []
for argv in json.loads(sys.stdin.read()):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    results.append({"stdout": out.getvalue(), "exit": code})
print(json.dumps(results))
"""


def _subcommand(argv) -> str:
    args = build_parser().parse_args(argv)
    return f"verify {args.what}" if args.command == "verify" else args.command


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == ""


def test_numpy_free_subcommands_match_golden_without_numpy():
    cases = [c for c in GOLDEN if _subcommand(c["argv"]) in NUMPY_FREE]
    assert {_subcommand(c["argv"]) for c in cases} == NUMPY_FREE
    scan = ["scan", "--from", "100000000", "--to", "100100000", "--limit", "2"]
    src = pathlib.Path(gpbound.__file__).resolve().parents[1]
    path = [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY],
        input=json.dumps([c["argv"] for c in cases] + [scan]),
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    for case, got in zip(cases, results):
        assert (got["exit"], got["stdout"]) == (case["exit"], case["stdout"]), case["argv"]
    assert results[-1]["exit"] == 0
    assert json.loads(results[-1]["stdout"])["primes_checked"] == 2
