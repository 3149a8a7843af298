"""CLI: subcommand behavior, exit codes, output determinism."""

import json
import subprocess
import sys

import pytest

from gpbound.cli import main


def run_cli(*argv):
    import contextlib
    import io

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_gp():
    code, out, _ = run_cli("gp", "7")
    assert code == 0
    assert out.strip() == "3"
    code, out, _ = run_cli("gp", "191")
    assert out.strip() == "19"


def test_bound_thm1_threshold():
    code, out, _ = run_cli("bound", "thm1", "--p", "1e56", "--r", "2", "--omega", "10")
    assert code == 0
    blob = json.loads(out)
    assert blob["exponent"] == "3/8"
    assert blob["value"]["lo"].startswith("4.194304")


def test_bound_burgess_comparison():
    code, out, _ = run_cli(
        "bound", "burgess", "--p", "1e56", "--r", "2", "--omega", "10"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["new_strictly_smaller"] is True


def test_bound_thm1_rejects_negative_omega():
    code, out, err = run_cli("bound", "thm1", "--p", "1e56", "--r", "2", "--omega", "-1")
    assert (code, out) == (1, "")
    assert "omega" in err


def test_bound_sieved_rejects_negative_s():
    code, out, err = run_cli(
        "bound", "sieved", "--p", "1e56", "--r", "2", "--omega", "3", "--s", "-1", "--delta", "1/2"
    )
    assert (code, out) == (1, "")
    assert "s >= 0" in err


@pytest.mark.parametrize("omega", ["0", "-2"])
def test_optimize_rejects_omega_below_one(omega):
    code, out, err = run_cli("optimize", "--p", "1e56", "--omega", omega)
    assert (code, out) == (1, "")
    assert "omega" in err and "infeasible" not in err


@pytest.mark.parametrize("budget", ["0", "1"])
def test_gp_budget_below_two_is_usage_error(budget):
    code, out, err = run_cli("gp", "191", "--budget", budget)
    assert (code, out) == (2, "")
    assert "--budget must be at least 2" in err


def test_bound_sieved_requires_flags():
    code, _, err = run_cli("bound", "sieved", "--p", "1e56", "--r", "2", "--omega", "5")
    assert code == 2
    assert "needs --s and --delta" in err


def test_certify_exact():
    code, out, _ = run_cli(
        "certify", "--p", "1000000007", "--r", "2", "--h", "360", "--H", "150000"
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["verdict"] == "certified"
    code, _, _ = run_cli(
        "certify", "--p", "1000000007", "--r", "2", "--h", "360", "--H", "5000"
    )
    assert code == 1


def test_verify_stirling():
    code, out, _ = run_cli("verify", "stirling", "--rmax", "100")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_charsum_small():
    code, out, _ = run_cli("verify", "charsum", "--pmax", "60", "--hmax", "4", "--rmax", "2")
    assert code == 0
    blob = json.loads(out)
    assert blob["violations"] == 0
    assert blob["worst"]["slack"] > 0
    assert {"p", "j", "order", "h", "r", "exact", "bound", "slack"} <= set(blob["worst"])


def test_verify_sieve_small():
    code, out, _ = run_cli("verify", "sieve", "--pmax", "100")
    assert code == 0
    blob = json.loads(out)
    assert blob["primes_checked"] == 24  # the odd primes 3..97; p = 2 is skipped
    assert blob["worst_slack"] == 0
    assert blob["lower_bound_worst_slack"] >= 0
    assert blob["failures"] == []
    assert blob["pass"] is True


def test_verify_sieve_reports_failures(monkeypatch):
    # Perturb the exact right-hand side of the class of k = 1 (the e-free
    # class, and the primitive roots): every (p, e) must be reported failed.
    from gpbound import sieve

    original = sieve._class_rhs
    monkeypatch.setattr(
        sieve, "_class_rhs", lambda coefs, k, primes: original(coefs, k, primes) + (k == 1)
    )
    code, out, _ = run_cli("verify", "sieve", "--pmax", "7")
    assert code == 1
    blob = json.loads(out)
    assert blob["pass"] is False
    assert blob["worst_slack"] > 0
    failed = {(f["p"], f["e"], f["check"]) for f in blob["failures"]}
    assert {(3, 2, "identity"), (3, 2, "lower_bound"), (7, 6, "lower_bound")} <= failed
    assert all("error" in f for f in blob["failures"] if f["check"] == "lower_bound")


def test_verify_intervals_small():
    code, out, _ = run_cli("verify", "intervals", "--xmax", "2000", "--grid", "30")
    assert code == 0
    blob = json.loads(out)
    assert blob["pass"] is True
    claims = [r["claim"] for r in blob["reports"]]
    assert any("S - 3X^2" in c or "S -" in c for c in claims)


def test_verify_cases_exit_codes():
    code, out, _ = run_cli("verify", "cases", "--target", "cor2")
    blob = json.loads(out)
    assert code == (0 if blob["overall_pass"] else 1)
    # the known verdicts (defects of the stated case analysis)
    assert code == 1
    assert any("omega=17" in f for f in blob["failures"])


def test_verify_cases_tsv():
    code, out, _ = run_cli("--format", "tsv", "verify", "cases", "--target", "cor2")
    lines = out.strip().splitlines()
    assert lines[0].startswith("omega\ts\t")
    assert len(lines) == 200  # header + 199 rows


def test_verify_winchain_subrange():
    code, out, _ = run_cli("verify", "win-chain", "--rmin", "2", "--rmax", "6")
    assert code == 0
    assert json.loads(out)["all_certified"] is True


def test_verify_winchain_past_r127():
    # 2^(8r) overflows a float from r = 128 on; the chain note must not
    code, out, err = run_cli("verify", "win-chain", "--rmin", "128", "--rmax", "130")
    assert code == 0, err
    assert json.loads(out)["all_certified"] is True


def test_optimize():
    code, out, _ = run_cli("optimize", "--p", "1000000007")
    assert code == 0
    blob = json.loads(out)
    assert blob["feasible"] is True
    code, _, _ = run_cli("optimize", "--p", "106696591")
    assert code == 1


def test_certify_composite_p_is_an_error():
    code, out, err = run_cli(
        "certify", "--p", "1000000008", "--r", "2", "--h", "360", "--H", "150000"
    )
    assert (code, out) == (1, "")
    assert err == "error: 1000000008 is not prime\n"


def test_optimize_composite_p_is_an_error():
    for p in ("1000000005", "1000000008"):
        code, out, err = run_cli("optimize", "--p", p)
        assert (code, out) == (1, "")
        assert err == "error: optimize_params needs an odd prime\n"


def test_optimize_threshold():
    code, out, _ = run_cli("optimize", "--p", "1e56", "--omega", "20")
    assert code == 0
    blob = json.loads(out)
    assert blob["feasible"] is True
    assert blob["exponent"] == "5/16"


def test_scan_safe_primes():
    code, out, _ = run_cli(
        "scan", "--from", "100000000", "--to", "101000000", "--shape", "safe-prime",
        "--limit", "5",
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["primes_checked"] == 5
    assert blob["contradictions"] == []


def test_scan_random_shape_seeded():
    argv = (
        "scan", "--from", "100000000", "--to", "200000000", "--shape", "random",
        "--limit", "4",
    )
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a == b
    code, out, _ = a
    assert code == 0
    assert json.loads(out)["primes_checked"] == 4


def test_scan_limit_zero_checks_no_prime():
    # 5 is a safe prime, so a limit checked only after appending would take it
    for shape in ("safe-prime", "random"):
        code, out, _ = run_cli(
            "scan", "--from", "5", "--to", "100", "--shape", shape, "--limit", "0"
        )
        assert code == 0
        assert json.loads(out)["primes_checked"] == 0


def test_scan_random_stops_when_range_is_exhausted():
    # [24, 28) holds no prime: the draw ends once 25 and 27 have been tried
    code, out, _ = run_cli(
        "scan", "--from", "24", "--to", "28", "--shape", "random", "--limit", "2"
    )
    assert code == 0
    assert json.loads(out)["primes_checked"] == 0
    # fewer primes than --limit: the four in [10, 23) are reported, and the
    # prime 23 = 22 | 1, just past the range, is never drawn
    code, out, _ = run_cli(
        "scan", "--from", "10", "--to", "23", "--shape", "random", "--limit", "5"
    )
    assert code == 0
    assert json.loads(out)["primes_checked"] == 4


def test_scan_empty_range_is_usage_error():
    code, out, err = run_cli(
        "scan", "--from", "28", "--to", "24", "--shape", "random", "--limit", "2"
    )
    assert code == 2
    assert out == ""
    assert "empty range" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("verify", "win-chain", "--rmin", "5", "--rmax", "3"), "need 2 <= --rmin <= --rmax"),
        (("verify", "win-chain", "--rmin", "1", "--rmax", "3"), "need 2 <= --rmin <= --rmax"),
        (("verify", "win-chain", "--rmin", "101"), "need 2 <= --rmin <= --rmax"),
        (("verify", "charsum", "--rmax", "0"), "--rmax must be at least 1"),
        (("verify", "intervals", "--xmax", "1"), "--xmax must be at least 2"),
        (("verify", "charsum", "--hmax", "1"), "--hmax must be at least 2"),
        (("verify", "charsum", "--pmax", "4"), "--pmax must be at least 5"),
        (("verify", "sieve", "--pmax", "2"), "--pmax must be at least 3"),
        (("verify", "stirling", "--rmax", "0"), "--rmax must be at least 1"),
    ],
)
def test_verify_empty_ranges_are_usage_errors(argv, message):
    code, out, err = run_cli(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("usage error: ") and message in err
    assert len(err.splitlines()) == 1


def test_precision_bits_option_is_gone():
    # every enclosure starts at 128 bits and the certifiers escalate on
    # their own, so the working precision is not an option
    code, out, err = run_cli("--precision-bits", "128", "gp", "191")
    assert (code, out) == (2, "")
    assert err.startswith("usage: gpbound")


def test_malformed_p_is_usage_error():
    code, out, err = run_cli("bound", "thm1", "--p", "abc", "--r", "2", "--omega", "3")
    assert code == 2
    assert out == ""
    assert "--p must be an integer" in err


def test_malformed_H_is_usage_error():
    code, out, err = run_cli(
        "certify", "--p", "1000000007", "--r", "2", "--h", "360", "--H", "1/0"
    )
    assert code == 2
    assert out == ""
    assert "not an exact rational: '1/0'" in err


def test_negative_threshold_exponent_is_usage_error():
    code, out, err = run_cli("bound", "thm1", "--p", "1e-5", "--r", "2", "--omega", "3")
    assert code == 2
    assert out == ""
    assert "powers of ten" in err


def test_deterministic_output():
    argv = ("verify", "charsum", "--pmax", "40", "--hmax", "3", "--rmax", "2")
    a = run_cli(*argv)
    b = run_cli(*argv)
    assert a == b


def test_usage_error_exit_2():
    code, _, _ = run_cli("bogus")
    assert code == 2


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "gpbound.cli", "gp", "13"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "2"
