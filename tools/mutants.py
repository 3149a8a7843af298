"""Mutation runner for the soundness guards.

Each mutant below rewrites one line of `src/gpbound`: it drops or weakens
one guard that stands between a caller and a false certificate.  The runner
copies the working tree to a scratch directory, applies one mutant at a
time, and runs the tier-1 suite there with two tests deselected: criterion 5,
which is red on purpose, and the check that every mutant applies to the
unmutated tree, which every mutated tree fails.  A mutant is killed when at
least one test fails; the failing tests are printed, so each guard can be
traced to the tests that pin it.
An unmutated control runs first and must pass.  Each mutant's run gets
TIMEOUT_FACTOR times the control's wall time; one that runs longer is
stopped, with every process it started, and counts as killed (`timeout`).
A mutant recorded as equivalent carries the reason no input can tell it
from the real code; it is run all the same and must survive.

Run from the repository root (about 40 s per mutant):

    python tools/mutants.py

Exit status: 0 when every mutant is killed or, if recorded as equivalent,
survives; 1 otherwise; 2 when the control fails or a mutant no longer
matches its file.
"""

from __future__ import annotations

import os
import pathlib
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
DESELECT = (
    "tests/test_acceptance.py::test_criterion_5_case_engines",
    "tests/test_mutants.py::test_mutant_applies_once_and_parses",
)
TIMEOUT_FACTOR = 10
TIMEOUT = "timeout"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # a fragment that occurs exactly once in the file
    new: str
    equivalent: str = ""  # why no input tells it from the real code, if none does


_EVIDENCE_CHECK = "elif given != v:"

MUTANTS = (
    # SieveConfig: evidence checked on construction
    Mutant("config: ctx-less delta unchecked", "src/gpbound/sieve.py",
           "if self.delta > worst_case_delta(self.omega, self.s):", "if False:"),
    Mutant("config: ctx-less delta against s = 0", "src/gpbound/sieve.py",
           "if self.delta > worst_case_delta(self.omega, self.s):",
           "if self.delta > worst_case_delta(self.omega, 0):"),
    Mutant("config: ctx fields unchecked", "src/gpbound/sieve.py", _EVIDENCE_CHECK, "elif False:"),
    *(
        Mutant(f"config: ctx {field} unchecked", "src/gpbound/sieve.py",
               _EVIDENCE_CHECK, _EVIDENCE_CHECK[:-1] + f' and k != "{field}":')
        for field in ("omega", "s", "delta", "excluded")
    ),
    Mutant("config: e <= 0 accepted", "src/gpbound/sieve.py",
           "if not isinstance(e, int) or e <= 0 or e % 2 != 0:",
           "if not isinstance(e, int) or e % 2 != 0:"),
    Mutant("config: e of any type accepted", "src/gpbound/sieve.py",
           "if not isinstance(e, int) or e <= 0 or e % 2 != 0:",
           "if e <= 0 or e % 2 != 0:"),
    # the identity checks need a sieve built at a prime
    Mutant("identities: worst-case sieve unguarded", "src/gpbound/sieve.py",
           "    if config.ctx is None:\n", "    if False:\n"),
    # the identity checks take e from the divisors of p-1 alone
    Mutant("identities: e <= 0 accepted", "src/gpbound/sieve.py",
           "or e <= 0 or (ctx.p - 1) % e", "or (ctx.p - 1) % e"),
    Mutant("identities: e of any type accepted", "src/gpbound/sieve.py",
           "not isinstance(e, int) or e <= 0 or (ctx.p - 1) % e", "e <= 0 or (ctx.p - 1) % e"),
    # the exact sieve checks: one transform for every class, one first k each
    Mutant("sieve: transform's c_q(k) = q-1 at q | k raised to q", "src/gpbound/sieve.py",
           "a + (q - 1) * b for", "a + q * b for"),
    Mutant("sieve: transform's c_q(k) = -1 at q not | k flipped to +1", "src/gpbound/sieve.py",
           "[a - b for a, b in", "[a + b for a, b in"),
    # the weights, placed at their masks: the identity's once, and again
    # for each excluded prime, at masks with that prime's bit
    Mutant("sieve: identity weight of d q not divided by q - 1", "src/gpbound/sieve.py",
           "terms += [-a // (q - 1) for a in terms]", "terms += [-a for a in terms]"),
    Mutant("sieve: an excluded prime's bit left out of its terms' masks", "src/gpbound/sieve.py",
           "terms[m | bit] = weight * a", "terms[m] = weight * a"),
    Mutant("sieve: N taken as P", "src/gpbound/sieve.py",
           "N = P - sum(P // q for q in config.excluded)", "N = P"),
    Mutant("sieve: excluded weights' sign flipped", "src/gpbound/sieve.py",
           "weight = 1 << i, -(P // q)", "weight = 1 << i, P // q"),
    Mutant("sieve: display (b)'s excluded terms not negated", "src/gpbound/sieve.py",
           "[0] * len(identity) + [-a for a in identity]", "[0] * len(identity) + identity"),
    Mutant("sieve: lhs put on class 1", "src/gpbound/sieve.py",
           "slacks[0] += ", "slacks[1] += "),
    Mutant("sieve: first k of the full class moved from 0 to P", "src/gpbound/sieve.py",
           "0 if len(primes) == len(key_primes) else math.prod(primes)", "math.prod(primes)"),
    # the interval family: Farey neighbours whose closed ends do not touch,
    # built from an integer p
    Mutant("intervals: touching closed ends taken as disjoint", "src/gpbound/intervals.py",
           "q2 * H_den >= bound:", "q2 * H_den > bound:"),
    Mutant("intervals: Farey neighbours unchecked", "src/gpbound/intervals.py",
           "if t2 * q - t * q2 != 1:", "if False:"),
    Mutant("intervals: non-integer p accepted", "src/gpbound/intervals.py",
           "if not isinstance(p, int):", "if False:"),
    # the envelope sweeps need an integer x_max and one segment
    Mutant("sweeps: non-integer x_max accepted", "src/gpbound/intervals.py",
           "x_max = operator.index(x_max)", "pass"),
    Mutant("sweeps: S below its least x_max unguarded", "src/gpbound/intervals.py",
           "x_max = _check_x_max(x_max, 2)\n    ph = ", "ph = "),
    Mutant("sweeps: T below its least x_max unguarded", "src/gpbound/intervals.py",
           "x_max = _check_x_max(x_max, 3)", "pass"),
    Mutant("sweeps: T's left end taken as the segment's right end", "src/gpbound/intervals.py",
           "left, right = right, ends(k + 1)", "left = right = ends(k + 1)"),
    # certify_bound: the sieve must be evidence for this p or this threshold
    Mutant("certify: any sieve type", "src/gpbound/certify/certifier.py",
           "if not isinstance(sieve, SieveConfig):", "if sieve is None:"),
    Mutant("certify: threshold takes a ctx sieve", "src/gpbound/certify/certifier.py",
           "if sieve.ctx is not None or sieve.omega != p_spec.omega:",
           "if sieve.omega != p_spec.omega:"),
    Mutant("certify: threshold omega unchecked", "src/gpbound/certify/certifier.py",
           "if sieve.ctx is not None or sieve.omega != p_spec.omega:",
           "if sieve.ctx is not None:"),
    Mutant("certify: exact p takes another prime's sieve", "src/gpbound/certify/certifier.py",
           "if sieve.ctx is None or sieve.ctx.p != p:", "if sieve.ctx is None:"),
    Mutant("certify: exact p takes a ctx-less sieve", "src/gpbound/certify/certifier.py",
           "if sieve.ctx is None or sieve.ctx.p != p:",
           "if sieve.ctx is not None and sieve.ctx.p != p:"),
    # an exact certificate's preconditions
    Mutant("exact: h >= 2 unchecked", "src/gpbound/certify/certifier.py",
           "if r < 1 or h < 2:", "if r < 1:"),
    Mutant("exact: H >= 2h unchecked", "src/gpbound/certify/certifier.py",
           "if H < 2 * h:", "if False:"),
    Mutant("exact: 2H^2 < hp unchecked", "src/gpbound/certify/certifier.py",
           "if 2 * H * H >= h * p:", "if False:"),
    # the merged threshold check H >= 2h (it was also tested as X >= 2)
    Mutant("threshold: H >= 2h dropped", "src/gpbound/certify/certifier.py",
           'Check("H >= 2h at p_min", wc.H_lo.ge(2 * wc.h_hi)),', ""),
    Mutant("threshold: H >= 2h weakened to H >= h", "src/gpbound/certify/certifier.py",
           '("H >= 2h at p_min", wc.H_lo.ge(2 * wc.h_hi)),',
           '("H >= 2h at p_min", wc.H_lo.ge(wc.h_hi)),'),
    # W and the condition must not grow past the threshold's p_min
    Mutant("threshold: unbounded W taken at p_min", "src/gpbound/certify/certifier.py",
           "    if expo > 0:\n        return None,", "    if False:\n        return None,"),
    Mutant("threshold: growing condition taken at p_min", "src/gpbound/certify/certifier.py",
           "expos_ok = all(expo <= 0 for _, expo in wc.terms)", "expos_ok = True"),
    # escalation must read powers of p_min at the precision it asked for
    Mutant("threshold: powers of p_min cached without their precision",
           "src/gpbound/certify/certifier.py",
           "return _p_power_at(p0, expo, iv.prec)", "return _p_power_at(p0, expo, WORKING_BITS)"),
    # strict conditions relaxed to non-strict, which only a tie could tell apart
    Mutant("exact: condition lhs < rhs relaxed to <=", "src/gpbound/certify/certifier.py",
           '("condition", lhs.lt(rhs))', '("condition", lhs.le(rhs))',
           equivalent="mpi_le and mpi_lt differ only when an endpoint of lhs equals one of "
                      "rhs = H^2; lhs carries pi^2 and sqrt(p), so the values never tie, and "
                      "no input makes the endpoints meet at every escalation precision"),
    Mutant("threshold: condition lhs < rhs relaxed to <=", "src/gpbound/certify/certifier.py",
           "lhs.lt(rhs) if expos_ok", "lhs.le(rhs) if expos_ok",
           equivalent="mpi_le and mpi_lt differ only when an endpoint of lhs equals one of "
                      "rhs = c_H^2; lhs carries pi^2 through A and B, so the values never tie, "
                      "and no input makes the endpoints meet at every escalation precision"),
    Mutant("exact: 2H^2 < hp relaxed to <=", "src/gpbound/certify/certifier.py",
           "if 2 * H * H >= h * p:", "if 2 * H * H > h * p:",
           equivalent="with H >= 2h (checked first), 2H^2 = hp gives H <= p/4, while for "
                      "an odd prime p it makes H a multiple of p, and at p = 2 it gives "
                      "H <= 1/2 < 2h"),
    # a verdict row's three-valued ok: indeterminate neither passes nor
    # outranks a failure
    Mutant("check: indeterminate taken as passed", "src/gpbound/certify/certifier.py",
           "return self.ok is True", "return self.ok is not False"),
    Mutant("verdict: indeterminate decides before failed", "src/gpbound/certify/certifier.py",
           '(("failed", False), ("indeterminate", None))',
           '(("indeterminate", None), ("failed", False))'),
    # the Robin row's monotonicity argument needs log log p > 2
    Mutant("robin: log u > 2 weakened to > 1", "src/gpbound/certify/cases.py",
           "lu.gt(2) is True", "lu.gt(1) is True"),
    # the enclosure kernel owns its rounding directions and its verdicts
    Mutant("kernel: integer conversion floor and ceiling swapped", "src/gpbound/enclosure.py",
           "from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)",
           "from_int(value, prec, round_ceiling), from_int(value, prec, round_floor)"),
    Mutant("kernel: integers one bit too wide taken as exact", "src/gpbound/enclosure.py",
           "if value.bit_length() <= prec:", "if value.bit_length() <= prec + 1:"),
    Mutant("kernel: pi floor and ceiling swapped", "src/gpbound/enclosure.py",
           "mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)",
           "mpf_pi(prec, round_ceiling), mpf_pi(prec, round_floor)"),
    Mutant("kernel: lt through mpi_le", "src/gpbound/enclosure.py",
           "return mpi_lt(self._mpi, _pair(other))", "return mpi_le(self._mpi, _pair(other))"),
    Mutant("kernel: gt without its operand swap", "src/gpbound/enclosure.py",
           "return mpi_lt(_pair(other), self._mpi)", "return mpi_lt(self._mpi, _pair(other))"),
    Mutant("kernel: a non-real result returned as a point", "src/gpbound/enclosure.py",
           'raise DomainError(f"{op}: no real value on this enclosure") from None',
           "return CertifiedReal(0)"),
    # the window norms of one character are shared across r, never across
    # h, and only one set of them is alive at a time
    Mutant("moments: memo key without h", "src/gpbound/characters.py",
           "key = (min(chi.j, -chi.j % (p - 1)), h)", "key = (min(chi.j, -chi.j % (p - 1)),)"),
    Mutant("moments: old norms kept through the rebuild", "src/gpbound/characters.py",
           "slot = ctx._norms = None  # free the last norms", "pass  # free the last norms"),
    # the x-major tiles: int32 index products only where the largest fits,
    # and each window the difference of prefix sums h rows apart
    Mutant("tiles: int32 index products widened to the next prime", "src/gpbound/characters.py",
           "(p - 1) // 2 * (p - 2) < 2**31", "p <= 65539"),
    Mutant("tiles: window difference shifted by one row", "src/gpbound/characters.py",
           "np.subtract(vals[h:], vals[: nb - 1], out=w[1:])",
           "np.subtract(vals[h:], vals[1:nb], out=w[1:])"),
    # the root table: each symmetry maps an entry to its own mirror
    Mutant("roots: swap mirror off by one", "src/gpbound/ntcore.py",
           "xy[q - q // 2 - 1 :: -1, ::-1]", "xy[q - q // 2 : 0 : -1, ::-1]"),
    Mutant("roots: conjugate mirror off by one", "src/gpbound/ntcore.py",
           "xy[q:0:-1, 0]", "xy[q - 1 :: -1, 0]"),
    Mutant("roots: i rotation with its sign flipped", "src/gpbound/ntcore.py",
           "np.negative(xy[1:q, 1], out=", "np.positive(xy[1:q, 1], out="),
    # a real character's moments in integers: a dtype that holds h, the
    # zero at multiples of p, both real characters, x0 counted once
    Mutant("real moments: int8 kept past h = 127", "src/gpbound/characters.py",
           "np.int8 if h <= 127 else np.int32", "np.int8"),
    Mutant("real moments: chi(0) not zeroed", "src/gpbound/characters.py",
           "chi[(-start) % p :: p] = 0", "pass"),
    Mutant("real moments: the real test narrowed to j == 0", "src/gpbound/characters.py",
           "return 2 * j % (p - 1) == 0", "return j == 0"),
    Mutant("real moments: W(x0) doubled with the rest", "src/gpbound/characters.py",
           "w_x0, w = int(w[0]), w[1:]", "w_x0, w = 0, w"),
    # the blocked dlog build stops after m = (p-1)/2 powers, which fill the
    # table only when g^m = -1
    Mutant("dlog: ragged last giant row not trimmed", "src/gpbound/ntcore.py",
           "n = min(powers.size, m - start)", "n = powers.size"),
    Mutant("dlog: g^m = -1 guard dropped", "src/gpbound/ntcore.py",
           "if pow(g, m, p) != p - 1:", "if False:"),
    # the search's sieves rest on a proved factorization of p-1
    Mutant("search: p-1 factorization unproved", "src/gpbound/ntcore.py",
           "self.pm1_factors.validate(p - 1)", "pass"),
    Mutant("search: one power of an excluded prime divided out",
           "src/gpbound/certify/search.py", "e //= q**k", "e //= q"),
    # best-first optimize_params: the order and the stop keep the exhaustive answer
    Mutant("search: stop once the next key ties the best", "src/gpbound/certify/search.py",
           "key > best[0]:", "key >= best[0]:",
           equivalent="keys end in the enumeration index, so two candidates never tie"),
    Mutant("search: key without the enumeration index", "src/gpbound/certify/search.py",
           "(first, r, sieve.s, tried)", "(first, r, sieve.s)"),
    Mutant("search: first H_try = p kept", "src/gpbound/certify/search.py",
           "first >= p:", "first > p:",
           equivalent="2H^2 < hp with 8h < p (the h filter) gives H < p/4"),
    # win-chain rows whose inputs are constant in every shipped chain
    Mutant("win chain: closing cap 4 raised to 5", "src/gpbound/certify/winchain.py",
           "closing.lt(4),", "closing.lt(5),"),
    Mutant("win chain: rY <= 0.35 precondition dropped", "src/gpbound/certify/winchain.py",
           "ry.le(Fraction(35, 100)) is True and b_r.le(b_cap) is True",
           "b_r.le(b_cap) is True"),
    Mutant("win chain: fallback row forced true", "src/gpbound/certify/winchain.py",
           "fb_root.ge(target),", "True,",
           equivalent="the row depends on r alone and holds for every r >= 2: its "
                      "value increases in r from 0.8286 > sqrt(e)/2 at r = 2"),
)


def apply(mutant: Mutant, tree: pathlib.Path) -> None:
    path = tree / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        print(f"mutant {mutant.name!r}: its fragment occurs "
              f"{text.count(mutant.old)} times in {mutant.path}", file=sys.stderr)
        sys.exit(2)
    path.write_text(text.replace(mutant.old, mutant.new))


def run_tier1(tree: pathlib.Path, timeout: float | None = None) -> list[str]:
    """The tests that fail in `tree`, as pytest names them, or [TIMEOUT]
    when the run takes longer than `timeout` seconds."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    # a session of its own, so that a timeout also stops the CLI subprocesses
    with subprocess.Popen(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
         *(arg for test in DESELECT for arg in ("--deselect", test))],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    ) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return [TIMEOUT]
    failed = re.findall(r"^(?:FAILED|ERROR) (\S+)", stdout, re.MULTILINE)
    if proc.returncode not in (0, 1) and not failed:
        failed = [f"pytest exit {proc.returncode}"]
    return failed


def copy_tree(dest: pathlib.Path) -> pathlib.Path:
    ignore = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", "*.egg-info")
    shutil.copytree(ROOT, dest, ignore=ignore)
    return dest


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="gpbound-mutants-") as scratch:
        start = time.monotonic()
        failed = run_tier1(copy_tree(pathlib.Path(scratch) / "control"))
        if failed:
            print(f"control fails: {failed}", file=sys.stderr)
            return 2
        timeout = TIMEOUT_FACTOR * (time.monotonic() - start)
        wrong = 0
        for i, mutant in enumerate(MUTANTS):
            tree = copy_tree(pathlib.Path(scratch) / f"mutant{i}")
            apply(mutant, tree)
            failed = run_tier1(tree, timeout)
            if failed == [TIMEOUT]:
                status, failed = TIMEOUT, []
            else:
                status = "killed" if failed else "survived"
            notes = failed
            if mutant.equivalent and status == "survived":
                status, notes = "equivalent", [mutant.equivalent]
            # a survivor, or a mutant recorded as equivalent that the tests kill
            bad = status == "survived" or (mutant.equivalent and status != "equivalent")
            wrong += bool(bad)
            print(f"{status.upper() if bad else status:10s}  {mutant.name}", flush=True)
            for note in notes:
                print(f"            {note}", flush=True)
            shutil.rmtree(tree)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
