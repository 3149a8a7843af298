"""Deterministic certificate search at a concrete prime, plus the
end-to-end soundness sweep against the brute-force oracle.

The search is not one of the stated results; it exists so that desk-scale
primes can be certified and then cross-checked: every certificate g(p) < H
issued here is falsifiable by enumeration, and the sweep treats a single
contradiction as fatal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from ..characters import w_factor
from ..errors import DomainError
from ..intervals import envelopes
from ..ntcore import Factorization, factorize, least_primitive_root
from ..sieve import sieve_density
from .cases import worst_case_delta
from .certifier import Certificate, PowerShape, SieveSummary, Threshold, certify_bound

R_SEARCH_RANGE = tuple(range(2, 21))


@dataclass(frozen=True)
class OptimizeResult:
    p: int
    certificate: Certificate | None
    h: int | None
    H: Fraction | None
    tried: int
    reason: str  # "certified" or why infeasible

    @property
    def feasible(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "feasible": self.feasible,
            "h": self.h,
            "H": None if self.H is None else f"{float(self.H):.6e}",
            "tried": self.tried,
            "reason": self.reason,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def _sieve_candidates(pm1: Factorization) -> list[SieveSummary]:
    """Exclude the largest odd primes of p-1 one at a time (2 always kept)."""
    omega = pm1.omega
    odd_desc = sorted((q for q in pm1.primes if q != 2), reverse=True)
    out = [SieveSummary.all_kept(omega)]
    excluded: list[int] = []
    for q in odd_desc:
        excluded.append(q)
        delta = sieve_density(excluded)
        if delta <= 0:
            break
        kept = [x for x in pm1.primes if x not in excluded]
        out.append(
            SieveSummary(
                e_desc="p-1 restricted to primes {" + ",".join(map(str, kept)) + "}",
                s=len(excluded),
                delta=delta,
                omega=omega,
            )
        )
    return out


def _h_candidates(p: int, r: int) -> list[int]:
    """The recipe value and a small neighborhood, deterministic order."""
    recipe = (
        (2 * r / math.e)
        * (2 * p) ** (1 / (2 * r))
        * ((r - 1) / (2 * r - 1)) ** (1 / r)
    )
    base = max(2, math.ceil(recipe))
    cands = [base, base - 1, base + 1, base + 2]
    if r == 2:
        cands.append(math.ceil(2 * p**0.25))
    seen, out = set(), []
    for h in cands:
        if h >= 2 and h not in seen:
            seen.add(h)
            out.append(h)
    return out


def _min_certified_H(
    p: int, summary: SieveSummary, r: int, h: int, precision_bits: int
) -> tuple[Fraction, Certificate] | None:
    """Smallest certifiable H for fixed (p, sieve, r, h), or None."""
    F = summary.factor
    base = (math.pi**2 / 6) * float(F) ** (2 * r) * h * math.sqrt(p) * w_factor(p, h, r)
    if base <= 0:
        return None
    H = math.sqrt(base)
    for _ in range(4):  # B^(2r-1)/A^(2r) correction settles in a few rounds
        env = envelopes(max(H / h, 2.0000001), h)
        if env.a_factor <= 0:
            return None
        H = math.sqrt(base * env.b_factor ** (2 * r - 1) / env.a_factor ** (2 * r))
    H = max(H, 2 * h)
    for bump in (1e-9, 1e-6, 1e-3):
        H_try = max(Fraction(H * (1 + bump)).limit_denominator(10**12), Fraction(2 * h))
        if 2 * H_try * H_try >= h * p:
            return None
        cert = certify_bound(p, summary, r, h, H_try, precision_bits)
        if cert.certified:
            return H_try, cert
    return None


def optimize_params(
    p: int,
    pm1_factors: Factorization | None = None,
    r_range=R_SEARCH_RANGE,
    precision_bits: int = 128,
) -> OptimizeResult:
    """Search (r, sieve, h) for the smallest certified H < p.

    Deterministic: candidates are enumerated in a fixed order and ties on H
    break toward smaller r, then smaller s.
    """
    if p < 3 or p % 2 == 0:
        raise DomainError("optimize_params needs an odd prime")
    pm1 = pm1_factors or factorize(p - 1)
    best: tuple[Fraction, int, int, int, Certificate] | None = None
    tried = 0
    for r in r_range:
        for summary in _sieve_candidates(pm1):
            for h in _h_candidates(p, r):
                if 2 * (2 * h) ** 2 >= h * p:  # even the minimal H fails 2H^2 < hp
                    continue
                tried += 1
                found = _min_certified_H(p, summary, r, h, precision_bits)
                if found is None:
                    continue
                H, cert = found
                if H >= p:
                    continue
                key = (H, r, summary.s)
                if best is None or key < (best[0], best[1], best[2]):
                    best = (H, r, summary.s, h, cert)
    if best is None:
        return OptimizeResult(
            p=p,
            certificate=None,
            h=None,
            H=None,
            tried=tried,
            reason="infeasible at this p: no (r, sieve, h) certifies H < p",
        )
    H, r, s, h, cert = best
    return OptimizeResult(p=p, certificate=cert, h=h, H=H, tried=tried, reason="certified")


@dataclass(frozen=True)
class ThresholdOptimizeResult:
    threshold: Threshold
    certificate: Certificate | None
    exponent: Fraction | None  # of p in the certified H shape
    coefficient: Fraction | None
    reason: str

    @property
    def feasible(self) -> bool:
        return self.certificate is not None

    def to_json(self) -> dict:
        return {
            "p_spec": self.threshold.describe(),
            "feasible": self.feasible,
            "exponent": None if self.exponent is None else str(self.exponent),
            "coefficient": None if self.coefficient is None else str(self.coefficient),
            "reason": self.reason,
            "certificate": self.certificate.to_json() if self.certificate else None,
        }


def _threshold_h_shape(r: int) -> PowerShape:
    """Rational-coefficient version of the window recipe h ~ c p^(1/(2r))."""
    c = (2 * r / math.e) * 2 ** (1 / (2 * r)) * ((r - 1) / (2 * r - 1)) ** (1 / r)
    return PowerShape(
        coef=Fraction(round(c * 10**6), 10**6), expo=Fraction(1, 2 * r), ceil=True
    )


def optimize_threshold(
    p_min: int,
    omega: int,
    r_range=tuple(range(2, 11)),
    precision_bits: int = 128,
) -> ThresholdOptimizeResult:
    """Smallest certified bound shape H = c p^alpha over all p >= p_min with
    the given omega: minimal exponent first, then minimal coefficient.

    Sieve configurations use the worst-case delta for excluding the s
    largest primes, so a certificate covers every admissible p.  H-shape
    candidates follow the headline recipe H = 2r F^r p^(1/4+1/(4r)).
    """
    th = Threshold(p_min=p_min, omega=omega)
    best = None
    for r in sorted(r_range, reverse=True):  # larger r = smaller exponent
        expo = Fraction(1, 4) + Fraction(1, 4 * r)
        if best is not None and best[0] < expo:
            continue
        h_shape = _threshold_h_shape(r)
        for s in range(omega):
            delta = worst_case_delta(omega, s) if s else Fraction(1)
            if delta <= 0:
                break
            summary = SieveSummary(
                e_desc=f"p-1 with the {s} largest primes excluded", s=s,
                delta=delta, omega=omega,
            )
            coef = 2 * r * summary.factor**r
            key = (expo, coef)
            if best is not None and key >= (best[0], best[1]):
                continue
            cert = certify_bound(th, summary, r, h_shape,
                                 PowerShape(coef=coef, expo=expo), precision_bits)
            if cert.certified:
                best = (expo, coef, cert)
    if best is None:
        return ThresholdOptimizeResult(
            threshold=th,
            certificate=None,
            exponent=None,
            coefficient=None,
            reason="infeasible: no (r, sieve) shape certifies over the range",
        )
    expo, coef, cert = best
    return ThresholdOptimizeResult(
        threshold=th, certificate=cert, exponent=expo, coefficient=coef,
        reason="certified",
    )


@dataclass
class SoundnessReport:
    checked: int = 0
    certified: int = 0
    skipped: int = 0
    contradictions: list[dict] = field(default_factory=list)
    margins: list[float] = field(default_factory=list)  # log10(H / g(p))

    @property
    def fatal(self) -> bool:
        return bool(self.contradictions)

    def to_json(self) -> dict:
        out = {
            "primes_checked": self.checked,
            "certified": self.certified,
            "skipped": self.skipped,
            "contradictions": self.contradictions,
            "fatal": self.fatal,
        }
        if self.margins:
            out["margin_log10"] = {
                "min": min(self.margins),
                "max": max(self.margins),
                "mean": sum(self.margins) / len(self.margins),
            }
        return out


def soundness_crosscheck(primes, precision_bits: int = 128) -> SoundnessReport:
    """For each prime, try to certify g(p) < H and confirm by brute force.

    A certificate contradicted by enumeration is a fatal defect and is
    recorded verbatim.
    """
    report = SoundnessReport()
    for p in primes:
        report.checked += 1
        result = optimize_params(p, precision_bits=precision_bits)
        if not result.feasible:
            report.skipped += 1
            continue
        report.certified += 1
        g = least_primitive_root(p)
        if g >= result.H:
            report.contradictions.append(
                {"p": p, "g": g, "H": f"{float(result.H):.6e}"}
            )
        else:
            report.margins.append(math.log10(float(result.H) / g))
    return report
