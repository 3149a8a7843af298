"""Byte-identical CLI output on a recorded golden set.

`golden/cli.json` holds, for each command, its argv, the exact stdout and the
exit code, recorded before a refactor of the certifier, search, case engines
and win chains.  A change that alters any verdict, detail string, row order
or printed digit fails here; a deliberate output change re-records the data.
"""

import contextlib
import io
import json
import pathlib

import pytest

from gpbound.cli import main

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden" / "cli.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(case["argv"]))
    assert code == case["exit"]
    assert out.getvalue() == case["stdout"]
    assert err.getvalue() == ""
