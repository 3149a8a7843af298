"""Certified evaluation of the main inequality.

The certifiable condition, for an odd prime p, an even divisor e | p-1 with
excluded primes p_1..p_s and delta = 1 - sum 1/p_i > 0, integers r >= 1,
h >= 2, and H with H >= 2h and 2H^2 < hp (X = H/h):

    (pi^2/6) (B(X)^(2r-1) / A(X)^(2r)) F^(2r) h sqrt(p) W(p,h,r)  <  H^2,
    F = (2 + (s-1)/delta) 2^(omega-s)

implies g(p) < H.  Everything is evaluated as enclosures; a certificate is
issued only when every precondition and the strict inequality hold with
certainty.  Indeterminate comparisons escalate the working precision
(doubling from 128 up to 1024 bits) before giving up.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from mpmath import iv

from ..enclosure import (
    CertifiedReal,
    enclose,
    envelope_a,
    envelope_b,
    envelope_b_sup,
    WORKING_BITS,
    pow_frac,
    w_branch,
    w_factor_enclosure,
    working_precision,
)
from ..errors import ConfigError, DomainError, ParameterError
from ..ntcore import is_prime
from ..sieve import SieveConfig

MAX_PRECISION = 1024

# The memos below are sized from the keys one optimize_threshold reads at
# each precision of the escalation ladder: 9 values of r (R_THRESHOLD_RANGE
# in search.py), and at each r one W sup and 4 powers of p_min (p^(1/(2r))
# for h, p^(1/4+1/(4r)) for H, p^0 for W and the condition's first term,
# p^(-1/(2r)) for its ceil term).  They are bounded because a process that
# searches many p_min would otherwise keep every key it ever read.
_PRECISIONS = (MAX_PRECISION // WORKING_BITS).bit_length()


def _p_power(p0: int, expo: Fraction) -> CertifiedReal:
    """pow_frac(p0, expo) in the working precision, computed once per
    precision: every sieve at one r reads the same powers of p_min."""
    return _p_power_at(p0, expo, iv.prec)


@functools.lru_cache(maxsize=9 * 4 * _PRECISIONS)
def _p_power_at(p0: int, expo: Fraction, bits: int) -> CertifiedReal:
    return pow_frac(p0, expo)


class Check(NamedTuple):
    """One named check behind a verdict.  `ok` is the comparison's own
    three-valued result: True (certified), False (failed) or None
    (indeterminate); `value` and `requirement` say what was compared."""

    name: str
    ok: bool | None
    value: str = ""
    requirement: str = ""

    @property
    def passed(self) -> bool:
        """Certified: an indeterminate check does not pass."""
        return self.ok is True


@dataclass(frozen=True)
class Threshold:
    """All primes p >= p_min with omega(p-1) = omega (or bounded by it)."""

    p_min: int
    omega: int

    def __post_init__(self):
        if self.omega < 1:
            raise DomainError(f"omega(p-1) >= 1 for every odd prime p, got omega = {self.omega}")

    def describe(self) -> str:
        return f"p >= {self.p_min}, omega = {self.omega}"


@dataclass(frozen=True)
class PowerShape:
    """A parameter of the form coef * p**expo.

    The threshold certifier reads the window h as the integer
    ceil(coef * p**expo) and the bound H as coef * p**expo itself.  For
    prime p and a non-integer exponent, coef * p**expo is irrational, so
    the window is strictly above the power value; _hp_check relies on that.
    """

    coef: Fraction
    expo: Fraction

    def lower_at(self, p: int) -> CertifiedReal:
        return self.coef * _p_power(p, self.expo)

    def describe(self) -> str:
        c = "" if self.coef == 1 else f"{self.coef}*"
        return f"{c}p^({self.expo})"


@dataclass
class Certificate:
    p_spec: str
    r: int
    h: str
    H: CertifiedReal  # value at the exact p, or at p_min for thresholds
    sieve: SieveConfig
    lhs: CertifiedReal | None
    rhs: CertifiedReal | None
    verdict: str  # certified | failed | indeterminate
    provenance: dict = field(default_factory=dict)
    precision_bits: int = 0

    @property
    def certified(self) -> bool:
        return self.verdict == "certified"

    def to_json(self) -> dict:
        return {
            "p_spec": self.p_spec,
            "r": self.r,
            "h": self.h,
            "H": self.H.to_json(),
            "sieve": self.sieve.to_json(),
            "lhs": self.lhs.to_json() if self.lhs else None,
            "rhs": self.rhs.to_json() if self.rhs else None,
            "verdict": self.verdict,
            "provenance": self.provenance,
        }


def certify_bound(p_spec, sieve: SieveConfig, r: int, h, H) -> Certificate:
    """Certificate for g(p) < H via the main inequality.

    Exact mode: p_spec is a prime int (proved prime, else DomainError), sieve
    is `SieveConfig.build` from that prime's context, h an int, H an exact
    number.
    Threshold mode: p_spec is a Threshold, sieve is
    `SieveConfig.worst_case` for its omega, and h, H are PowerShapes, the
    window taken as ceil(h) and H as given; the verdict then covers every
    p >= p_min with the given omega, using worst-case monotonicity in p.
    r is an int in both modes.  A non-integer r or h raises ParameterError,
    a sieve built for another prime or another omega DomainError.
    """
    if not isinstance(sieve, SieveConfig):
        raise ConfigError(f"sieve must be a SieveConfig, got {sieve!r}")
    if isinstance(p_spec, Threshold):
        if sieve.ctx is not None or sieve.omega != p_spec.omega:
            raise DomainError(
                f"{p_spec.describe()} needs SieveConfig.worst_case({p_spec.omega}, s)"
            )
        if not (isinstance(h, PowerShape) and isinstance(H, PowerShape)):
            raise ParameterError("threshold certification needs PowerShape h and H")
        return _certify_threshold(p_spec, sieve, r, h, H)
    p = int(p_spec)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if sieve.ctx is None or sieve.ctx.p != p:
        raise DomainError(f"the sieve was not built from the factorization of p-1 at p = {p}")
    return _certify_exact(p, sieve, r, h, H)


def main_coefficient(a, b, factor: Fraction, r: int) -> CertifiedReal:
    """(pi^2/6) B^(2r-1)/A^(2r) F^(2r): the main inequality's left side
    without h sqrt(p) W, for envelope enclosures a = A(X), b = B(X) and
    sieve factor F."""
    pi2 = CertifiedReal.pi() ** 2
    return pi2 / 6 * (b ** (2 * r - 1) / a ** (2 * r)) * enclose(factor) ** (2 * r)


def _escalate(evaluate) -> Certificate:
    """Evaluate at WORKING_BITS, doubling while indeterminate up to MAX_PRECISION."""
    bits = WORKING_BITS
    while True:
        cert = evaluate(bits)
        if cert.verdict != "indeterminate" or bits >= MAX_PRECISION:
            cert.precision_bits = bits
            return cert
        bits *= 2


def _verdict_from(checks: list[Check]) -> tuple[str, list[str]]:
    """Combine three-valued checks: any failed one decides before any
    indeterminate one; the deciding names are returned for provenance."""
    for verdict, ok in (("failed", False), ("indeterminate", None)):
        names = [c.name for c in checks if c.ok is ok]
        if names:
            return verdict, names
    return "certified", []


def _integer(name: str, v) -> int:
    try:
        return operator.index(v)
    except TypeError:
        raise ParameterError(f"{name} must be an integer, got {v!r}") from None


def _certify_exact(p, sieve, r, h, H) -> Certificate:
    # preconditions are exact rational comparisons, decidable up front
    r, h, H = _integer("r", r), _integer("h", h), Fraction(H)
    if r < 1 or h < 2:
        raise ParameterError(f"need r >= 1 and h >= 2, got r={r}, h={h}")
    if H < 2 * h:
        raise ParameterError(f"H >= 2h required, got H = {H}, h = {h}")
    if 2 * H * H >= h * p:
        raise ParameterError(f"2H^2 < hp required, got 2H^2 = {float(2 * H * H):.4g}")

    def evaluate(bits: int) -> Certificate:
        with working_precision(bits):
            He = enclose(H)
            he = enclose(h)
            pe = enclose(p)
            x = He / he
            a = envelope_a(x)
            checks = [Check("A(X) > 0", a.gt(0))]
            # B evaluated at the exact X (no sup needed: X is a point)
            b = envelope_b(x, h)
            w = w_factor_enclosure(p, h, r)
            lhs = main_coefficient(a, b, sieve.factor, r) * h * pe.sqrt() * w
            rhs = He**2
            checks.append(Check("condition", lhs.lt(rhs)))
            verdict, failed = _verdict_from(checks)
            return Certificate(
                p_spec=str(p),
                r=r,
                h=str(h),
                H=He,
                sieve=sieve,
                lhs=lhs,
                rhs=rhs,
                verdict=verdict,
                provenance={
                    "mode": "exact",
                    "H_exact": str(H),
                    "W_branch": "min(general, r=2 refinement)" if r == 2 else "general",
                    "failed_checks": failed,
                },
            )

    return _escalate(evaluate)


def _hp_check(p0: int, h_shape: PowerShape, H_shape: PowerShape) -> Check:
    """The named check that 2H^2 < hp for every prime p >= p0, by exponents,
    then coefficients; call inside working_precision."""
    lhs_expo, rhs_expo = 2 * H_shape.expo, h_shape.expo + 1
    if lhs_expo > rhs_expo:
        return Check("2H^2 < hp exponents", False)
    if lhs_expo < rhs_expo:
        lhs = 2 * H_shape.lower_at(p0) ** 2
        return Check("2H^2 < hp at p_min", lhs.lt(h_shape.lower_at(p0) * p0))
    two_ch2 = 2 * H_shape.coef**2
    if two_ch2 < h_shape.coef:
        return Check("2H^2 < hp coefficients", True)
    # equal coefficients: h = ceil(c p^(a/b)) > c p^(a/b) since the power is
    # irrational for prime p and non-integer exponent
    if two_ch2 == h_shape.coef and h_shape.expo.denominator > 1:
        return Check("2H^2 < hp (ceil strictness)", True)
    return Check("2H^2 < hp coefficients", False)


@dataclass(frozen=True)
class WorstCase:
    """The main inequality over every p >= p0, for shapes h and H at r.

    The window h = ceil(c_h p^e_h) lies in [h_lo, h_hi] = [c_h p0^e_h,
    c_h p0^e_h + 1] and H = c_H p^e_H >= H_lo at p0.  Once expo(H) >= expo(h),
    X = H/h >= x_lo for every p >= p0, so A(X) >= a and B(X) <= b.  W <= w,
    None when unbounded, with w_note naming its branch; hp is the check of
    2H^2 < hp.  h sqrt(p) / H^2 <= sum c_i p^e_i / c_H^2 over the terms
    (c_i, e_i), which is nonincreasing in p when every e_i <= 0.
    """

    p0: int
    h_lo: CertifiedReal
    h_hi: CertifiedReal
    H_lo: CertifiedReal
    x_lo: CertifiedReal
    a: CertifiedReal
    b: CertifiedReal
    w: CertifiedReal | None
    w_note: str
    hp: Check
    terms: tuple[tuple[Fraction, Fraction], ...]


def threshold_worst_case(p0: int, h_shape: PowerShape, H_shape: PowerShape, r: int) -> WorstCase:
    """The WorstCase of the shapes at r over p >= p0, in the working precision."""
    h_lo = h_shape.lower_at(p0)
    h_hi = h_lo + 1
    H_lo = H_shape.lower_at(p0)
    x_lo = H_lo / h_hi
    w, w_note = _w_threshold_sup(p0, h_shape, r, iv.prec)
    # (c_h p^e_h + 1) sqrt(p) / (c_H^2 p^(2 e_H)), one term per p-power
    terms = (
        (h_shape.coef, h_shape.expo + Fraction(1, 2) - 2 * H_shape.expo),
        (Fraction(1), Fraction(1, 2) - 2 * H_shape.expo),
    )
    a, b = envelope_a(x_lo), envelope_b_sup(x_lo, h_lo)
    hp = _hp_check(p0, h_shape, H_shape)
    return WorstCase(p0, h_lo, h_hi, H_lo, x_lo, a, b, w, w_note, hp, terms)


def _certify_threshold(th: Threshold, sieve, r, h_shape, H_shape):
    r = _integer("r", r)
    if r < 1:
        raise ParameterError(f"need r >= 1, got r={r}")
    if h_shape.expo < 0 or H_shape.expo < 0:
        raise ParameterError("threshold shapes need nonnegative exponents")
    if h_shape.coef <= 0 or H_shape.coef <= 0:
        raise ParameterError("threshold shapes need positive coefficients")
    p0 = th.p_min

    def evaluate(bits: int) -> Certificate:
        with working_precision(bits):
            wc = threshold_worst_case(p0, h_shape, H_shape, r)
            checks = [
                Check("h >= 2 at p_min", wc.h_lo.gt(1)),
                # H >= 2h for all p >= p0: ratio improves with p iff expo(H) >= expo(h)
                Check("expo(H) >= expo(h)", H_shape.expo >= h_shape.expo),
                Check("H >= 2h at p_min", wc.H_lo.ge(2 * wc.h_hi)),
                wc.hp,
                Check("A > 0", wc.a.gt(0)),
            ]
            w_max = wc.w
            if w_max is None:
                checks.append(Check(wc.w_note, False))
                w_max = enclose(0)

            coeff = main_coefficient(wc.a, wc.b, sieve.factor, r) * w_max
            # condition for all p >= p0: coeff * sum c_i p^e_i < c_H^2
            expos_ok = all(expo <= 0 for _, expo in wc.terms)
            checks.append(Check("condition exponents nonincreasing in p", expos_ok))
            lhs = enclose(0)
            if expos_ok:
                for coef, expo in wc.terms:
                    lhs = lhs + coeff * coef * _p_power(p0, expo)
            rhs = enclose(H_shape.coef) ** 2
            checks.append(Check("condition at worst case", lhs.lt(rhs) if expos_ok else False))

            verdict, failed = _verdict_from(checks)
            return Certificate(
                p_spec=th.describe(),
                r=r,
                h=f"ceil({h_shape.describe()})",
                H=wc.H_lo,
                sieve=sieve,
                lhs=lhs,
                rhs=rhs,
                verdict=verdict,
                provenance={
                    "mode": "threshold",
                    "H_shape": H_shape.describe(),
                    "W_sup": wc.w_note,
                    "X_min": wc.x_lo.lo_str(16),
                    "failed_checks": failed,
                },
            )

    return _escalate(evaluate)


@functools.lru_cache(maxsize=9 * _PRECISIONS)
def _w_threshold_sup(p0: int, h_shape: PowerShape, r: int, bits: int):
    """Sup of W(p, h(p), r) over p >= p0 with h(p) >= coef * p**expo, at
    `bits` of working precision: W grows with u = sqrt(p)/h^r <=
    p^(1/2 - r expo) / coef^r, whose sup is at p0 when that exponent is
    nonpositive and unbounded otherwise."""
    expo = Fraction(1, 2) - r * h_shape.expo
    if expo > 0:
        return None, "W unbounded over threshold (sqrt(p)/h^r grows)"
    w, branch = w_branch(_p_power(p0, expo) / enclose(h_shape.coef) ** r, r)
    return w, f"{branch} branch at p_min (exponent {expo})"
