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
from itertools import takewhile

from ..enclosure import envelopes, w_factor, window_recipe
from ..errors import DomainError
from ..ntcore import Factorization, PrimeContext, is_prime, least_primitive_root
from ..sieve import SieveConfig
from .certifier import Certificate, PowerShape, Threshold, _certify_exact, certify_bound

R_SEARCH_RANGE = tuple(range(2, 21))  # r tried at an exact prime
R_THRESHOLD_RANGE = tuple(range(2, 11))  # r tried over a threshold


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


def _sieve_candidates(ctx: PrimeContext) -> list[SieveConfig]:
    """Exclude the largest odd primes of p-1 one at a time (2 always kept)
    while delta stays positive: e is p-1 with their full powers divided out."""
    e = ctx.p - 1
    out = [SieveConfig.build(ctx, e)]
    for q, k in reversed(ctx.pm1_factors.entries):
        if q == 2:
            break
        e //= q**k
        config = SieveConfig.build(ctx, e)
        if config.delta <= 0:
            break
        out.append(config)
    return out


def _h_candidates(p: int, r: int) -> list[int]:
    """The recipe value and a small neighborhood, deterministic order."""
    base = max(2, math.ceil(window_recipe(p, r)))
    cands = [base, base - 1, base + 1, base + 2]
    if r == 2:
        cands.append(math.ceil(2 * p**0.25))
    seen, out = set(), []
    for h in cands:
        if h >= 2 and h not in seen:
            seen.add(h)
            out.append(h)
    return out


_BUMPS = (1e-9, 1e-6, 1e-3)  # relative raises of the float H tried in turn


def _presolve_H(p: int, sieve: SieveConfig, r: int, h: int) -> float | None:
    """Float estimate of the least H that (p, sieve, r, h) certifies, or None."""
    F = sieve.factor
    base = (math.pi**2 / 6) * float(F) ** (2 * r) * h * math.sqrt(p) * w_factor(p, h, r)
    if base <= 0:
        return None
    H = math.sqrt(base)
    for _ in range(4):  # B^(2r-1)/A^(2r) correction settles in a few rounds
        a, b = envelopes(max(H / h, 2.0000001), h)
        if a <= 0:
            return None
        H = math.sqrt(base * b ** (2 * r - 1) / a ** (2 * r))
    return max(H, 2 * h)


def _H_try(H: float, bump: float, h: int) -> Fraction:
    """The exact H tried for the float H raised by `bump`, at least 2h."""
    return max(Fraction(H * (1 + bump)).limit_denominator(10**12), Fraction(2 * h))


def _min_certified_H(
    p: int, sieve: SieveConfig, r: int, h: int, H: float
) -> tuple[Fraction, Certificate] | None:
    """Smallest certifiable H_try over the bumps of the presolved H, or None."""
    for bump in _BUMPS:
        H_try = _H_try(H, bump, h)
        if 2 * H_try * H_try >= h * p:
            return None
        cert = _certify_exact(p, sieve, r, h, H_try)
        if cert.certified:
            return H_try, cert
    return None


def optimize_params(p: int, pm1_factors: Factorization | None = None) -> OptimizeResult:
    """Search (r, sieve, h) for the smallest certified H < p.

    Best first: every candidate is presolved in floats, and its first
    H_try (the smallest bump) is a lower bound on any H it certifies,
    since the bumps increase, limit_denominator is monotone and the max
    with 2h only raises it.  Candidates are certified by increasing key
    (first H_try, r, s, enumeration index), and the search stops once the
    next key exceeds the best certified (H, r, s, index): no later
    candidate can win.  The result is the exhaustive search's: least H,
    ties toward smaller r, then smaller s, then the candidate enumerated
    first (r, then sieve, then h in `_h_candidates` order).  `tried`
    counts every candidate considered, certified or not.  A given
    factorization of p-1 is proved (DomainError if it is wrong), not
    trusted.
    """
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise DomainError("optimize_params needs an odd prime")
    tried = 0
    queue = []  # (key, sieve, h, presolved H)
    sieves = _sieve_candidates(PrimeContext(p, pm1_factors))
    for r in R_SEARCH_RANGE:
        # even the minimal H = 2h fails 2H^2 < hp unless 8h < p
        hs = [h for h in _h_candidates(p, r) if 2 * (2 * h) ** 2 < h * p]
        for sieve in sieves:
            for h in hs:
                tried += 1
                H = _presolve_H(p, sieve, r, h)
                if H is None:
                    continue
                first = _H_try(H, _BUMPS[0], h)
                if 2 * first * first >= h * p or first >= p:
                    continue
                queue.append(((first, r, sieve.s, tried), sieve, h, H))
    queue.sort(key=lambda c: c[0])
    best: tuple[tuple, int, Certificate] | None = None
    for key, sieve, h, H in queue:
        if best is not None and key > best[0]:
            break
        found = _min_certified_H(p, sieve, key[1], h, H)
        if found is None:
            continue
        H_cert, cert = found
        if best is None or (H_cert, *key[1:]) < best[0]:
            best = ((H_cert, *key[1:]), h, cert)
    if best is None:
        return OptimizeResult(
            p=p,
            certificate=None,
            h=None,
            H=None,
            tried=tried,
            reason="infeasible at this p: no (r, sieve, h) certifies H < p",
        )
    (H, *_), h, cert = best
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
    c = window_recipe(1, r)
    return PowerShape(
        coef=Fraction(round(c * 10**6), 10**6), expo=Fraction(1, 2 * r), ceil=True
    )


def optimize_threshold(p_min: int, omega: int) -> ThresholdOptimizeResult:
    """Smallest certified bound shape H = c p^alpha over all p >= p_min with
    the given omega: minimal exponent first, then minimal coefficient.

    Sieve configurations use the worst-case delta for excluding the s
    largest primes, so a certificate covers every admissible p.  H-shape
    candidates follow the headline recipe H = 2r F^r p^(1/4+1/(4r)).

    Candidates are certified best first and the first certificate is the
    answer: r from 10 down to 2 (exponent 1/4 + 1/(4r) increasing), and
    within one r the worst-case sieves by increasing F, so by increasing
    coefficient 2r F^r.  F ties between s = 0 and s = 1 (both 2^omega);
    the stable sort keeps the smaller s first, so it wins the tie.
    """
    th = Threshold(p_min=p_min, omega=omega)
    worst = (SieveConfig.worst_case(omega, s) for s in range(omega))
    sieves = sorted(takewhile(lambda c: c.delta > 0, worst), key=lambda c: c.factor)
    for r in sorted(R_THRESHOLD_RANGE, reverse=True):
        expo = Fraction(1, 4) + Fraction(1, 4 * r)
        h_shape = _threshold_h_shape(r)
        for sieve in sieves:
            coef = 2 * r * sieve.factor**r
            cert = certify_bound(th, sieve, r, h_shape, PowerShape(coef=coef, expo=expo))
            if cert.certified:
                return ThresholdOptimizeResult(
                    threshold=th, certificate=cert, exponent=expo, coefficient=coef,
                    reason="certified",
                )
    return ThresholdOptimizeResult(
        threshold=th,
        certificate=None,
        exponent=None,
        coefficient=None,
        reason="infeasible: no (r, sieve) shape certifies over the range",
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


def soundness_crosscheck(primes) -> SoundnessReport:
    """For each prime, try to certify g(p) < H and confirm by brute force.

    A certificate contradicted by enumeration is a fatal defect and is
    recorded verbatim.
    """
    report = SoundnessReport()
    for p in primes:
        report.checked += 1
        result = optimize_params(p)
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
