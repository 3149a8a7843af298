"""Case engines for the two headline threshold bounds.

The targets are rows of one table, TARGETS: "cor2", g(p) < p^(5/8) for
p >= 1e22 with h = ceil(2 p^(1/4)), and "lonely", g(p) < 0.999 sqrt(p) for
p >= 1e56 with h = ceil(p^(1/4)), both at r = 2.  One reduction derives
each target's constant kappa from the certifier's threshold worst case, so
that  kappa F^4 < p^(1/2) (cor2) or p^(1/4) (lonely) implies the main
inequality, F = (2 + (s-1)/delta) 2^(omega-s), and reports kappa
beside the constant the source states and the target's own side checks.
The omega table then checks the constant used in five regimes: s=0 for
omega <= 8; s = omega-3 for 9..17 (against p_base) and for 18..50
(against the primorial lower bound); s = omega-5 for 50 < omega < 200
(primorial bound); s=0 with omega <= 1.39 log p / log log p for p >= 1e1000.

Every case is evaluated with exact rationals (or enclosures where logs are
unavoidable) and reported verbatim: a failing case is never patched, it is
surfaced with its margin.  Worst-case delta assumes the excluded primes are
the s largest among omega primes, the i-th of which is at least the i-th
prime:

    delta >= 1 - sum_{i=omega-s+1}^{omega} 1/q_i.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, takewhile

from ..enclosure import CertifiedReal, enclose, pow_frac, working_precision
from ..errors import DomainError
from ..ntcore import first_primes
from ..sieve import SieveConfig
from .certifier import Check, PowerShape, WorstCase, main_coefficient, threshold_worst_case

ROBIN_OMEGA_COEFF = Fraction(139, 100)  # omega(p-1) <= 1.39 log p / log log p
ROBIN_P_MIN = 10**1000

# The omega regimes: (omegas, s offset, primorial floor).  Each row excludes
# s = omega - offset primes (s = 0 when the offset is None) and checks
# against p_base, or against max(p_base, primorial(omega)) with the floor.
REGIMES = (
    (range(1, 9), None, False),
    (range(9, 18), 3, False),
    (range(18, 51), 3, True),
    (range(51, 200), 5, True),
)


@dataclass(frozen=True)
class CaseRow:
    regime: str
    omega: int
    s: int
    delta_lo: Fraction | None
    lhs: Fraction  # constant * F^(2r) side, exact
    rhs_desc: str
    margin_log10: float
    passed: bool

    def tsv(self) -> str:
        d = "" if self.delta_lo is None else f"{float(self.delta_lo):.6f}"
        return "\t".join(
            [
                str(self.omega),
                str(self.s),
                d,
                f"{float(self.lhs):.6e}",
                self.rhs_desc,
                f"{self.margin_log10:+.4f}",
                "pass" if self.passed else "FAIL",
            ]
        )


@dataclass
class CaseReport:
    target: str
    condition: str
    reduction: list[Check] = field(default_factory=list)
    rows: list[CaseRow] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def overall_pass(self) -> bool:
        return all(c.passed for c in self.reduction) and all(r.passed for r in self.rows)

    @property
    def failures(self) -> list[str]:
        out = [f"reduction: {c.name}" for c in self.reduction if not c.passed]
        out += [f"omega={r.omega} ({r.regime})" for r in self.rows if not r.passed]
        return out

    def to_tsv(self) -> str:
        lines = ["omega\ts\tdelta_lo\tlhs_hi\trhs_lo\tmargin_log10\tverdict"]
        lines += [r.tsv() for r in self.rows]
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "condition": self.condition,
            "reduction": [
                {"name": c.name, "detail": c.value, "pass": c.passed}
                for c in self.reduction
            ],
            "cases": [
                {
                    "regime": r.regime,
                    "omega": r.omega,
                    "s": r.s,
                    "delta_lo": None if r.delta_lo is None else str(r.delta_lo),
                    "lhs": f"{float(r.lhs):.6e}",
                    "rhs": r.rhs_desc,
                    "margin_log10": r.margin_log10,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
            "notes": self.notes,
            "overall_pass": self.overall_pass,
            "failures": self.failures,
        }


def _case_row(regime, omega, s, const: Fraction, p_min: int, root: int):
    """Exact check const * F^4 < p_min^(1/root), at the worst-case delta;
    root in {2, 4}."""
    sieve = SieveConfig.worst_case(omega, s)
    lhs = const * sieve.factor**4
    ok = lhs**root < p_min
    margin = math.log10(p_min) / root - math.log10(float(lhs))
    return CaseRow(
        regime=regime,
        omega=omega,
        s=s,
        delta_lo=sieve.delta if s > 0 else None,
        lhs=lhs,
        rhs_desc=f"p_min^(1/{root}), p_min=10^{math.log10(p_min):.1f}",
        margin_log10=margin,
        passed=bool(ok),
    )


def _primorials(p_cap: int) -> list[int]:
    """[primorial(0), primorial(1), ...] while <= p_cap, as one running
    product; primorial(k) >= 2^k, so the first bit_length(p_cap) primes
    reach past p_cap."""
    products = accumulate(first_primes(p_cap.bit_length()), operator.mul, initial=1)
    return list(takewhile(lambda prod: prod <= p_cap, products))


def _robin_check(const: Fraction, root: int) -> Check:
    """Certify const * 2^(4 omega) < p^(1/root) for all p >= 1e1000 with
    omega <= 1.39 log p / log log p.

    In u = log p the condition reads  u/root - log(const) - c u/log u > 0
    with c = 4 * 1.39 * log 2.  The map u -> (log u - 1)/log^2 u decreases
    for log u > 2, so the derivative  1/root - c (log u - 1)/log^2 u  can
    only grow once it is positive at u0; it then suffices to check the value
    and the derivative at u0 = log(1e1000).
    """
    with working_precision():
        c = 4 * enclose(ROBIN_OMEGA_COEFF) * CertifiedReal(2).log()
        u0 = enclose(ROBIN_P_MIN).log()
        lu = u0.log()
        value = u0 / root - enclose(const).log() - c * u0 / lu
        deriv = enclose(Fraction(1, root)) - c * (lu - 1) / lu**2
        # (log u - 1)/log^2 u decreases for log u > 2, so the derivative can
        # only improve past u0 once positive there
        ok = value.gt(0) is True and deriv.gt(0) is True and lu.gt(2) is True
        detail = (
            f"margin at p=1e1000: {value.lo_str(8)} (log scale), "
            f"derivative {deriv.lo_str(8)}"
        )
    name = f"Robin regime: {const} 2^(4 omega) < p^(1/{root}) for p >= 1e1000, s=0"
    return Check(name, ok, detail)


def _cor2_side_checks(wc: WorstCase) -> list[Check]:
    """X, h, A and B at p0 = 1e20, and the exact W and 2H^2 < hp."""
    return [
        Check("X >= 1e7 at p_min", wc.x_lo.ge(10**7), f"X_min in {wc.x_lo.to_json()}"),
        # 2 p^(1/4) >= 2e5 iff 16 p >= (2e5)^4, exact at the boundary p = 1e20
        Check("h >= 2e5 at p_min", 16 * wc.p0 >= (2 * 10**5) ** 4, f"h_min >= {wc.h_lo.lo_str(8)}"),
        Check("A(X) >= 1 - 1e-6", wc.a.ge(1 - Fraction(1, 10**6)), f"A_min = {wc.a.lo_str(12)}"),
        Check("B(X) <= 1 + 1e-5", wc.b.le(1 + Fraction(1, 10**5)), f"B_sup = {wc.b.hi_str(12)}"),
        # h >= 2 p^(1/4) gives sqrt(p)/h^2 <= 1/4, so the r = 2 branch is 15/4
        Check(
            "W(p,h,2) <= 15/4",
            wc.w.le(Fraction(15, 4)),
            "h >= 2 p^(1/4) so sqrt(p)/h^2 <= 1/4 exactly",
        ),
        # 2H^2 = 2 p^(5/4) < hp: ceil(2 p^(1/4)) > 2 p^(1/4) since p^(1/4) is
        # irrational for prime p
        Check("2H^2 < hp", wc.hp.ok, "strict via ceil of an irrational power"),
    ]


def _lonely_side_checks(wc: WorstCase) -> list[Check]:
    """H >= 2h and 2H^2 < hp at p0 = 1e56."""
    return [
        Check("H >= 2h at p_min", wc.H_lo.ge(2 * wc.h_hi), f"H_min = {wc.H_lo.lo_str(8)}"),
        Check("2H^2 < hp at p_min", wc.hp.ok, "2*(0.999)^2 p < p^(5/4) for p >= 1e56"),
    ]


@dataclass(frozen=True)
class Target:
    """A headline bound g(p) < H for every p >= p_base, reduced at r = 2."""

    h_shape: PowerShape
    H_shape: PowerShape
    p0: int  # where the reduction constant is derived
    p_base: int  # where the omega table starts
    stated: Fraction  # the reduction constant as the source states it
    used: Fraction  # the constant the omega table is checked against
    side_checks: Callable[[WorstCase], list[Check]]


TARGETS = {
    "cor2": Target(
        PowerShape(coef=Fraction(2), expo=Fraction(1, 4), ceil=True),
        PowerShape(coef=Fraction(1), expo=Fraction(5, 8)),
        p0=10**20, p_base=10**22, stated=Fraction(13), used=Fraction(13),
        side_checks=_cor2_side_checks,
    ),
    "lonely": Target(
        PowerShape(coef=Fraction(1), expo=Fraction(1, 4), ceil=True),
        PowerShape(coef=Fraction(999, 1000), expo=Fraction(1, 2)),
        p0=10**56, p_base=10**56, stated=Fraction(7), used=Fraction(99, 10),
        side_checks=_lonely_side_checks,
    ),
}


def _reduction(target: Target) -> tuple[list[Check], int]:
    """The target's side checks and constant checks, and root.

    With the worst case at p0 and e_max the largest term exponent,
        kappa = main_coefficient(A, B, 1, 2) W sum c_i p0^(e_i - e_max) / c_H^2
    bounds the main inequality's left side over H^2 by kappa F^4 p^e_max
    for every p >= p0, so kappa F^4 < p^(-e_max) implies it (root = -1/e_max).
    """
    stated, used = target.stated, target.used
    with working_precision():
        wc = threshold_worst_case(target.p0, target.h_shape, target.H_shape, 2)
        e_max = max(e for _, e in wc.terms)
        kappa = (
            main_coefficient(wc.a, wc.b, Fraction(1), 2)
            * wc.w
            * sum(c * pow_frac(target.p0, e - e_max) for c, e in wc.terms)
            / target.H_shape.coef**2
        )
        derived = f"derived constant in {kappa.to_json()}"
        checks = target.side_checks(wc)
        if stated == used:
            checks.append(Check(f"reduction constant <= {stated}", kappa.le(stated), derived))
        else:
            refuted = (
                f"; {stated} < derived lower bound, so the stated condition "
                "does not imply the main inequality"
            )
            checks.append(Check(
                f"stated reduction constant {stated} is sufficient",
                kappa.le(stated),
                derived + refuted if kappa.gt(stated) is True else derived,
            ))
            checks.append(Check(
                f"derived constant <= {used} (used for the case table)", kappa.le(used), derived
            ))
    root = -1 / e_max
    assert root.denominator == 1, f"kappa F^4 < p^({-e_max}) needs an integer root"
    return checks, int(root)


def case_engine(target: str) -> CaseReport:
    """Re-derive and certify the omega case analysis for one target bound.

    Any failing case is reported with its exact margin; nothing is patched.
    """
    if target not in TARGETS:
        raise DomainError(f"unknown target {target!r}; use 'cor2' or 'lonely'")
    spec = TARGETS[target]
    reduction, root = _reduction(spec)
    condition = f"{spec.used} F^4 < p^(1/{root}), p >= 1e{round(math.log10(spec.p_base))}"
    if spec.stated != spec.used:
        condition += f" (stated constant {spec.stated})"
    report = CaseReport(target=target, condition=condition, reduction=reduction)

    primorials = _primorials(ROBIN_P_MIN)
    for omegas, offset, floor in REGIMES:
        regime = "s=0" if offset is None else f"s=omega-{offset}"
        regime += ", primorial" if floor else ""
        for omega in omegas:
            s = 0 if offset is None else omega - offset
            p_min = max(spec.p_base, primorials[omega]) if floor else spec.p_base
            report.rows.append(_case_row(regime, omega, s, spec.used, p_min, root))
    report.reduction.append(_robin_check(spec.used, root))

    omega_cap = len(primorials) - 1  # the largest omega with primorial(omega) <= 1e1000
    last_omega = REGIMES[-1][0][-1]
    if omega_cap > last_omega:
        report.notes.append(
            f"coverage gap: primes below 1e1000 can have omega up to {omega_cap}, "
            f"but the stated case splits stop at omega = {last_omega}"
        )
    report.notes.append(
        "worst-case delta excludes the s largest primes: "
        "delta >= 1 - sum_{i=omega-s+1}^omega 1/q_i"
    )
    if not report.overall_pass:
        report.notes.append("failures reported verbatim: " + "; ".join(report.failures))
    return report
