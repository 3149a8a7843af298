"""Enclosures of the closed-form bound shapes and the literature comparison.

Two families:
  * the sieved bound H = 2r F^r p^(1/4 + 1/(4r)) with exact rational
    F = (2 + (s-1)/delta) 2^(omega-s)  (s = 0 collapses F to 2^omega);
  * the Burgess-style comparison C(r)^r 2^(r omega) p^(1/4+1/(4r)) (log p)^(1/2)
    with the published constants for 2 <= r <= 10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..enclosure import CertifiedReal, enclose, pow_frac, working_precision
from ..errors import DomainError
from ..sieve import sieve_factor
from .certifier import Threshold

# Burgess-inequality constants C(r), C(r)^r for p >= 1e15 (best published).
BURGESS_C = {
    2: ("3.5851", "12.8530"),
    3: ("2.5144", "15.8966"),
    4: ("2.1258", "20.4216"),
    5: ("1.9231", "26.3033"),
    6: ("1.7959", "33.5501"),
    7: ("1.7066", "42.1621"),
    8: ("1.6384", "51.9230"),
    9: ("1.5857", "63.3855"),
    10: ("1.5410", "75.5139"),
}


def _p_value(p_spec) -> int:
    if isinstance(p_spec, Threshold):
        return p_spec.p_min
    return int(p_spec)


@dataclass(frozen=True)
class BoundValue:
    value: CertifiedReal
    exponent: Fraction
    vacuous_vs_sqrt: bool | None  # bound >= p^(1/2) makes it weaker than trivial

    def to_json(self) -> dict:
        return {
            "value": self.value.to_json(),
            "exponent": str(self.exponent),
            "vacuous_vs_sqrt": self.vacuous_vs_sqrt,
        }


def bound_sieved(p_spec, r: int, omega: int, s: int, delta: Fraction) -> BoundValue:
    """Enclosure of 2 r F^r p^(1/4 + 1/(4r))."""
    if r < 2:
        raise DomainError("bound shape needs r >= 2")
    F = sieve_factor(omega, s, Fraction(delta))
    p = _p_value(p_spec)
    expo = Fraction(1, 4) + Fraction(1, 4 * r)
    with working_precision():
        value = 2 * r * enclose(F**r) * pow_frac(p, expo)
        vacuous = value.ge(pow_frac(p, Fraction(1, 2)))
    return BoundValue(value=value, exponent=expo, vacuous_vs_sqrt=vacuous)


def bound_log_free(p_spec, r: int, omega: int) -> BoundValue:
    """Enclosure of 2 r 2^(r omega) p^(1/4 + 1/(4r)); the s = 0 sieved bound."""
    return bound_sieved(p_spec, r, omega, 0, Fraction(1))


def burgess_comparison_bound(p_spec, r: int, omega: int) -> BoundValue:
    """Enclosure of C(r)^r 2^(r omega) p^(1/4+1/(4r)) (log p)^(1/2), 2 <= r <= 10."""
    if r not in BURGESS_C:
        raise DomainError(f"comparison constants tabulated for r in [2,10], got {r}")
    p = _p_value(p_spec)
    if p < 10**15:
        raise DomainError("comparison constants hold for p >= 1e15")
    c_r_pow = Fraction(BURGESS_C[r][1])
    expo = Fraction(1, 4) + Fraction(1, 4 * r)
    with working_precision():
        pe = enclose(p)
        value = (
            enclose(c_r_pow)
            * enclose(2 ** (r * omega))
            * pow_frac(p, expo)
            * pe.log().sqrt()
        )
        vacuous = value.ge(pow_frac(p, Fraction(1, 2)))
    return BoundValue(value=value, exponent=expo, vacuous_vs_sqrt=vacuous)


@dataclass(frozen=True)
class BoundComparison:
    r: int
    omega: int
    p_desc: str
    new_bound: BoundValue
    burgess_bound: BoundValue
    new_strictly_smaller: bool | None

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "omega": self.omega,
            "p": self.p_desc,
            "bound_new": self.new_bound.to_json(),
            "bound_burgess": self.burgess_bound.to_json(),
            "new_strictly_smaller": self.new_strictly_smaller,
        }


def compare_with_burgess(p_spec, r: int, omega: int) -> BoundComparison:
    """Certified comparison of the log-free bound against the Burgess shape."""
    new = bound_log_free(p_spec, r, omega)
    old = burgess_comparison_bound(p_spec, r, omega)
    smaller = new.value.lt(old.value)
    desc = p_spec.describe() if isinstance(p_spec, Threshold) else str(p_spec)
    return BoundComparison(
        r=r,
        omega=omega,
        p_desc=desc,
        new_bound=new,
        burgess_bound=old,
        new_strictly_smaller=smaller,
    )
