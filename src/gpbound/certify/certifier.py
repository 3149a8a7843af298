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

from dataclasses import dataclass, field
from fractions import Fraction

from ..enclosure import (
    CertifiedReal,
    enclose,
    envelope_a,
    envelope_b,
    envelope_b_sup,
    WORKING_BITS,
    pow_frac,
    w_factor_enclosure,
    working_precision,
)
from ..errors import ConfigError, DomainError, ParameterError
from ..ntcore import is_prime
from ..sieve import sieve_factor

MAX_PRECISION = 1024


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
    """A parameter of the form coef * p**expo, optionally ceil'd to an integer.

    For prime p and a non-integer exponent, coef * p**expo is irrational, so
    the ceiling is strictly above the power value; several strictness
    arguments below rely on that.
    """

    coef: Fraction
    expo: Fraction
    ceil: bool = False

    def lower_at(self, p: int) -> CertifiedReal:
        return self.coef * pow_frac(p, self.expo)

    def upper_at(self, p: int) -> CertifiedReal:
        v = self.coef * pow_frac(p, self.expo)
        return v + 1 if self.ceil else v

    def describe(self) -> str:
        c = "" if self.coef == 1 else f"{self.coef}*"
        s = f"{c}p^({self.expo})"
        return f"ceil({s})" if self.ceil else s


@dataclass(frozen=True)
class BurgessParams:
    """Amplification parameters for a concrete prime.

    Invariants (checked by validate): h >= 2, H >= 2h (equivalently
    X = H/h >= 2), and 2H^2 < hp.
    """

    r: int
    h: int
    H: Fraction

    @property
    def X(self) -> Fraction:
        return Fraction(self.H, self.h)

    def validate(self, p: int) -> None:
        if self.r < 1 or self.h < 2:
            raise ParameterError(f"need r >= 1 and h >= 2, got r={self.r}, h={self.h}")
        if self.H < 2 * self.h:
            raise ParameterError(f"H >= 2h required, got H = {self.H}, h = {self.h}")
        if 2 * self.H * self.H >= self.h * p:
            raise ParameterError(
                f"2H^2 < hp required, got 2H^2 = {float(2 * self.H * self.H):.4g}"
            )


@dataclass(frozen=True)
class SieveSummary:
    """What a certificate records about its sieve configuration."""

    e_desc: str
    s: int
    delta: Fraction
    omega: int

    @classmethod
    def from_config(cls, config) -> "SieveSummary":
        """The summary of a `sieve.SieveConfig`."""
        return cls(
            e_desc=f"{config.e}",
            s=config.s,
            delta=config.delta,
            omega=config.ctx.omega,
        )

    @classmethod
    def all_kept(cls, omega: int) -> "SieveSummary":
        return cls(e_desc="p-1", s=0, delta=Fraction(1), omega=omega)

    @property
    def factor(self) -> Fraction:
        return sieve_factor(self.omega, self.s, self.delta)

    def to_json(self) -> dict:
        return {"e_desc": self.e_desc, "s": self.s, "delta": str(self.delta)}


@dataclass
class Certificate:
    p_spec: str
    r: int
    h: str
    H: CertifiedReal  # value at the exact p, or at p_min for thresholds
    sieve: SieveSummary
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


def certify_bound(p_spec, sieve: SieveSummary, r: int, h, H) -> Certificate:
    """Certificate for g(p) < H via the main inequality.

    Exact mode: p_spec is a prime int (proved prime, else DomainError), h an
    int, H an exact number.
    Threshold mode: p_spec is a Threshold and h, H are PowerShapes; the
    verdict then covers every p >= p_min with the given omega, using
    worst-case monotonicity in p.
    """
    if not isinstance(sieve, SieveSummary):
        raise ConfigError(f"sieve must be a SieveSummary, got {sieve!r}")
    if sieve.s > 0 and sieve.delta <= 0:
        raise ConfigError(f"delta = {sieve.delta} <= 0")
    if isinstance(p_spec, Threshold):
        if not (isinstance(h, PowerShape) and isinstance(H, PowerShape)):
            raise ParameterError("threshold certification needs PowerShape h and H")
        return _certify_threshold(p_spec, sieve, r, h, H)
    p = int(p_spec)
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
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


def _verdict_from(checks: list[tuple[str, bool | None]]) -> tuple[str, list[str]]:
    """Combine three-valued checks; failed names are returned for provenance."""
    failed = [name for name, ok in checks if ok is False]
    if failed:
        return "failed", failed
    if any(ok is None for _, ok in checks):
        return "indeterminate", [name for name, ok in checks if ok is None]
    return "certified", []


def _certify_exact(p, summary, r, h, H) -> Certificate:
    # preconditions are exact rational comparisons, decidable up front
    params = BurgessParams(r=r, h=h, H=Fraction(H))
    params.validate(p)
    H = params.H

    def evaluate(bits: int) -> Certificate:
        with working_precision(bits):
            He = enclose(H)
            he = enclose(h)
            pe = enclose(p)
            x = He / he
            checks = []
            a = envelope_a(x)
            checks.append(("A(X) > 0", a.gt(0)))
            # B evaluated at the exact X (no sup needed: X is a point)
            b = envelope_b(x, h)
            w = w_factor_enclosure(p, h, r)
            lhs = main_coefficient(a, b, summary.factor, r) * h * pe.sqrt() * w
            rhs = He**2
            checks.append(("condition", lhs.lt(rhs)))
            verdict, failed = _verdict_from(checks)
            return Certificate(
                p_spec=str(p),
                r=r,
                h=str(h),
                H=He,
                sieve=summary,
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


def _hp_check(p0: int, h_shape: PowerShape, H_shape: PowerShape) -> tuple[str, bool | None]:
    """The named check that 2H^2 < hp for every prime p >= p0, by exponents,
    then coefficients; call inside working_precision."""
    lhs_expo, rhs_expo = 2 * H_shape.expo, h_shape.expo + 1
    if lhs_expo > rhs_expo:
        return "2H^2 < hp exponents", False
    if lhs_expo < rhs_expo:
        lhs = 2 * H_shape.lower_at(p0) ** 2
        return "2H^2 < hp at p_min", lhs.lt(h_shape.lower_at(p0) * p0)
    two_ch2 = 2 * H_shape.coef**2
    if two_ch2 < h_shape.coef:
        return "2H^2 < hp coefficients", True
    # equal coefficients: ceil(c p^(a/b)) > c p^(a/b) since the power is
    # irrational for prime p and non-integer exponent
    if two_ch2 == h_shape.coef and h_shape.ceil and h_shape.expo.denominator > 1:
        return "2H^2 < hp (ceil strictness)", True
    return "2H^2 < hp coefficients", False


def _certify_threshold(th: Threshold, summary, r, h_shape, H_shape):
    if r < 1:
        raise ParameterError(f"need r >= 1, got r={r}")
    if h_shape.expo < 0 or H_shape.expo < 0:
        raise ParameterError("threshold shapes need nonnegative exponents")
    if h_shape.coef <= 0 or H_shape.coef <= 0:
        raise ParameterError("threshold shapes need positive coefficients")
    p0 = th.p_min

    def evaluate(bits: int) -> Certificate:
        with working_precision(bits):
            checks: list[tuple[str, bool | None]] = []
            h_lo = h_shape.lower_at(p0)
            h_hi = h_shape.upper_at(p0)
            H_lo = H_shape.lower_at(p0)
            checks.append(("h >= 2 at p_min", h_lo.ge(2) if not h_shape.ceil else h_lo.gt(1)))
            # H >= 2h for all p >= p0: ratio improves with p iff expo(H) >= expo(h)
            checks.append(("expo(H) >= expo(h)", H_shape.expo >= h_shape.expo))
            checks.append(("H >= 2h at p_min", H_lo.ge(2 * h_hi)))

            checks.append(_hp_check(p0, h_shape, H_shape))

            # X = H/h >= X_lo, nondecreasing in p since expo(H) >= expo(h)
            x_lo = H_lo / h_hi
            checks.append(("X >= 2", x_lo.ge(2)))
            a_min = envelope_a(x_lo)
            checks.append(("A > 0", a_min.gt(0)))
            b_max = envelope_b_sup(x_lo, h_lo)

            w_max, w_note = _w_threshold_sup(p0, h_shape, r)
            if w_max is None:
                checks.append((w_note, False))
                w_max = enclose(0)

            coeff = main_coefficient(a_min, b_max, summary.factor, r) * w_max
            # condition for all p >= p0:
            #   coeff * (c_h p^e_h + [ceil]) * sqrt(p) < c_H^2 p^(2 e_H)
            # normalized so every p-power has nonpositive exponent
            terms = [(h_shape.coef, h_shape.expo + Fraction(1, 2) - 2 * H_shape.expo)]
            if h_shape.ceil:
                terms.append((Fraction(1), Fraction(1, 2) - 2 * H_shape.expo))
            expos_ok = all(expo <= 0 for _, expo in terms)
            checks.append(("condition exponents nonincreasing in p", expos_ok))
            lhs = enclose(0)
            if expos_ok:
                for coef, expo in terms:
                    lhs = lhs + coeff * coef * pow_frac(p0, expo)
            rhs = enclose(H_shape.coef) ** 2
            checks.append(("condition at worst case", lhs.lt(rhs) if expos_ok else False))

            verdict, failed = _verdict_from(checks)
            return Certificate(
                p_spec=th.describe(),
                r=r,
                h=h_shape.describe(),
                H=H_lo,
                sieve=summary,
                lhs=lhs,
                rhs=rhs,
                verdict=verdict,
                provenance={
                    "mode": "threshold",
                    "H_shape": H_shape.describe(),
                    "W_sup": w_note,
                    "X_min": x_lo.lo_str(16),
                    "failed_checks": failed,
                },
            )

    return _escalate(evaluate)


def _w_threshold_sup(p0: int, h_shape: PowerShape, r: int):
    """Sup of W(p, h(p), r) over p >= p0 with h(p) >= coef * p**expo.

    Both branches decay in p once the exponent of sqrt(p)/h^k is
    nonpositive; otherwise the branch is unbounded over the threshold.
    """
    branches = []
    gen_expo = Fraction(1, 2) - r * h_shape.expo
    if gen_expo <= 0:
        gen = (
            CertifiedReal(2).sqrt()
            * (2 * r / (CertifiedReal.euler_e() * enclose(h_shape.coef))) ** r
            * pow_frac(p0, gen_expo)
            + (2 * r - 1)
        )
        branches.append((gen, f"general branch at p_min (exponent {gen_expo})"))
    if r == 2:
        r2_expo = Fraction(1, 2) - 2 * h_shape.expo
        if r2_expo <= 0:
            r2 = 3 * (1 + pow_frac(p0, r2_expo) / enclose(h_shape.coef) ** 2)
            branches.append((r2, f"r=2 branch at p_min (exponent {r2_expo})"))
    if not branches:
        return None, "W unbounded over threshold (sqrt(p)/h^r grows)"
    best = min(branches, key=lambda t: t[0].hi)
    return best[0], best[1]
