"""Case engines for the two headline threshold bounds.

Target "cor2": g(p) < p^(5/8) for p >= 1e22, via the reduced condition
    13 F^4 < sqrt(p),   F = (2 + (s-1)/delta) 2^(omega-s),
with five omega regimes: s=0 for omega <= 8; s = omega-3 for 9..17 (against
p >= 1e22) and for 18..50 (against the primorial lower bound); s=0 with the
omega <= 1.39 log p / log log p bound for p >= 1e1000; s = omega-5 for
50 < omega < 200 (primorial bound).

Target "lonely": g(p) < 0.999 sqrt(p) for p >= 1e56 via the analogous
condition against p^(1/4), same regime structure.

Every case is evaluated with exact rationals (or enclosures where logs are
unavoidable) and reported verbatim: a failing case is never patched, it is
surfaced with its margin.  Worst-case delta assumes the excluded primes are
the s largest among omega primes, the i-th of which is at least the i-th
prime:

    delta >= 1 - sum_{i=omega-s+1}^{omega} 1/q_i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..enclosure import (
    CertifiedReal,
    enclose,
    envelope_a,
    envelope_b_sup,
    pow_frac,
    working_precision,
)
from ..errors import DomainError
from ..ntcore import iter_primes, primorial
from ..sieve import SieveConfig
from .certifier import PowerShape, _hp_check, _w_threshold_sup, main_coefficient

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


@dataclass(frozen=True)
class CheckRow:
    name: str
    detail: str
    passed: bool


@dataclass
class CaseReport:
    target: str
    condition: str
    reduction: list[CheckRow] = field(default_factory=list)
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
                {"name": c.name, "detail": c.detail, "pass": c.passed}
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


def _max_omega_below(p_cap: int) -> int:
    """Largest omega with primorial(omega) <= p_cap."""
    omega, prod = 0, 1
    for q in iter_primes(2, p_cap + 1):
        prod *= q
        if prod > p_cap:
            return omega
        omega += 1
    return omega


def _robin_check(const: Fraction, root: int) -> CheckRow:
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
    return CheckRow(
        name=f"Robin regime: {const} 2^(4 omega) < p^(1/{root}) for p >= 1e1000, s=0",
        detail=detail,
        passed=ok,
    )


def _reduction_envelopes(p0: int, h_shape: PowerShape, H_shape: PowerShape):
    """h_min, H_min, X_min = H_min/(h_min+1), A(X_min) and sup B at p0."""
    h_min, H_min = h_shape.lower_at(p0), H_shape.lower_at(p0)
    x_min = H_min / h_shape.upper_at(p0)
    return h_min, H_min, x_min, envelope_a(x_min), envelope_b_sup(x_min, h_min)


def _reduction_constant(a_min, b_sup, w_cap, p0: int, h_shape, H_shape) -> CertifiedReal:
    """kappa = (pi^2/6)(B^3/A^4) W (c + p0^(-1/4)) / H_coef^2 at r = 2, F = 1:
    h <= c p^(1/4) + 1 bounds h sqrt(p) by (c + p^(-1/4)) p^(3/4)."""
    coef = main_coefficient(a_min, b_sup, Fraction(1), 2) * w_cap
    return coef * (h_shape.coef + pow_frac(p0, -h_shape.expo)) / H_shape.coef**2


def _reduction_checks_cor2() -> list[CheckRow]:
    """Certify that 13 F^4 < sqrt(p) suffices for the main condition with
    H = p^(5/8), h = ceil(2 p^(1/4)), r = 2, p >= 1e20."""
    p0 = 10**20
    h_shape = PowerShape(coef=Fraction(2), expo=Fraction(1, 4), ceil=True)
    H_shape = PowerShape(coef=Fraction(1), expo=Fraction(5, 8))
    out = []
    with working_precision():
        h_min, _, x_min, a_min, b_sup = _reduction_envelopes(p0, h_shape, H_shape)
        out.append(
            CheckRow(
                "X >= 1e7 at p_min",
                f"X_min in {x_min.to_json()}",
                x_min.ge(10**7) is True,
            )
        )
        # 2 p^(1/4) >= 2e5 iff 16 p >= (2e5)^4, exact at the boundary p = 1e20
        out.append(
            CheckRow(
                "h >= 2e5 at p_min",
                f"h_min >= {h_min.lo_str(8)}",
                16 * p0 >= (2 * 10**5) ** 4,
            )
        )
        out.append(
            CheckRow(
                "A(X) >= 1 - 1e-6",
                f"A_min = {a_min.lo_str(12)}",
                a_min.ge(1 - Fraction(1, 10**6)) is True,
            )
        )
        out.append(
            CheckRow(
                "B(X) <= 1 + 1e-5",
                f"B_sup = {b_sup.hi_str(12)}",
                b_sup.le(1 + Fraction(1, 10**5)) is True,
            )
        )
        # h >= 2 p^(1/4) gives sqrt(p)/h^2 <= 1/4, so the r = 2 branch is 15/4
        w_cap, _ = _w_threshold_sup(p0, h_shape, 2)
        out.append(
            CheckRow(
                "W(p,h,2) <= 15/4",
                "h >= 2 p^(1/4) so sqrt(p)/h^2 <= 1/4 exactly",
                w_cap.le(Fraction(15, 4)) is True,
            )
        )
        # 2H^2 = 2 p^(5/4) < hp: ceil(2 p^(1/4)) > 2 p^(1/4) since p^(1/4) is
        # irrational for prime p
        hp_ok = _hp_check(p0, h_shape, H_shape)[1] is True
        out.append(CheckRow("2H^2 < hp", "strict via ceil of an irrational power", hp_ok))
        kappa = _reduction_constant(a_min, b_sup, w_cap, p0, h_shape, H_shape)
        out.append(
            CheckRow(
                "reduction constant <= 13",
                f"derived constant in {kappa.to_json()}",
                kappa.lt(13) is True,
            )
        )
    return out


def _reduction_checks_lonely() -> tuple[list[CheckRow], Fraction]:
    """Derive the valid reduced-condition constant for H = 0.999 sqrt(p),
    h = ceil(p^(1/4)), r = 2, p >= 1e56; the stated constant 7 is checked
    against it and reported as-is.

    Returns (checks, constant actually used for the per-omega table)."""
    p0 = 10**56
    h_shape = PowerShape(coef=Fraction(1), expo=Fraction(1, 4), ceil=True)
    H_shape = PowerShape(coef=Fraction(999, 1000), expo=Fraction(1, 2))
    used = Fraction(99, 10)
    out = []
    with working_precision():
        h_min, H_min, _, a_min, b_sup = _reduction_envelopes(p0, h_shape, H_shape)
        out.append(
            CheckRow("H >= 2h at p_min", f"H_min = {H_min.lo_str(8)}", H_min.ge(2 * (h_min + 1)) is True)
        )
        hp_ok = _hp_check(p0, h_shape, H_shape)[1] is True
        out.append(CheckRow("2H^2 < hp at p_min", "2*(0.999)^2 p < p^(5/4) for p >= 1e56", hp_ok))
        # W <= 6: h >= p^(1/4) gives sqrt(p)/h^2 <= 1 exactly
        w_cap, _ = _w_threshold_sup(p0, h_shape, 2)
        kappa = _reduction_constant(a_min, b_sup, w_cap, p0, h_shape, H_shape)
        out.append(
            CheckRow(
                "stated reduction constant 7 is sufficient",
                f"derived constant in {kappa.to_json()}; 7 < derived lower bound, "
                "so the stated condition does not imply the main inequality",
                kappa.le(7) is True,
            )
        )
        out.append(
            CheckRow(
                f"derived constant <= {used} (used for the case table)",
                f"derived constant in {kappa.to_json()}",
                kappa.le(used) is True,
            )
        )
    return out, used


def case_engine(target: str) -> CaseReport:
    """Re-derive and certify the omega case analysis for one target bound.

    Any failing case is reported with its exact margin; nothing is patched.
    """
    if target == "cor2":
        const, root, p_base = Fraction(13), 2, 10**22
        condition = "13 F^4 < p^(1/2), p >= 1e22"
        reduction = _reduction_checks_cor2()
    elif target == "lonely":
        reduction, const = _reduction_checks_lonely()
        root, p_base = 4, 10**56
        condition = f"{const} F^4 < p^(1/4), p >= 1e56 (stated constant 7)"
    else:
        raise DomainError(f"unknown target {target!r}; use 'cor2' or 'lonely'")

    report = CaseReport(target=target, condition=condition, reduction=reduction)

    for omegas, offset, floor in REGIMES:
        regime = "s=0" if offset is None else f"s=omega-{offset}"
        regime += ", primorial" if floor else ""
        for omega in omegas:
            s = 0 if offset is None else omega - offset
            p_min = max(p_base, primorial(omega)) if floor else p_base
            report.rows.append(_case_row(regime, omega, s, const, p_min, root))
    report.reduction.append(_robin_check(const, root))

    omega_cap = _max_omega_below(ROBIN_P_MIN)
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
