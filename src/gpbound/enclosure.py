"""Certified real arithmetic on guaranteed enclosures [lo, hi].

A `CertifiedReal` holds its endpoint pair of mpmath mpf values and calls
mpmath's interval primitives (`libmp.mpi_add`, `mpi_mul`, `mpi_log`, ...)
on it directly: every operation returns an interval containing the exact
result under outward rounding, so strict inequality verdicts derived from
enclosures are rigorous.  Comparisons are three-valued: True / False / None
(indeterminate, intervals overlap).  Operands convert as mpmath's `iv.mpf`
converts them (ints and floats rounded floor and ceiling, rationals as the
quotient of their integer ends), at the one precision register `iv.prec`,
which `working_precision` sets; so every endpoint is the one `iv` gives.
CI pins mpmath 1.3.0 because the CLI goldens record its rounding.

The coefficients of the main inequality live here in both forms: the
enclosures every verdict uses, and beside each its float twin, which only
steers the parameter searches.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from fractions import Fraction
from numbers import Rational

import mpmath
from mpmath import iv
from mpmath.libmp import (
    ComplexResult,
    finf,
    fninf,
    fnan,
    from_float,
    from_int,
    mpf_e,
    mpf_le,
    mpf_pi,
    mpi_abs,
    mpi_add,
    mpi_div,
    mpi_le,
    mpi_log,
    mpi_lt,
    mpi_mid,
    mpi_mul,
    mpi_neg,
    mpi_pow,
    mpi_sqrt,
    mpi_sub,
    round_ceiling,
    round_floor,
    to_float,
)

from .errors import DomainError

WORKING_BITS = 128  # every enclosure starts here; certifiers escalate from it


@contextmanager
def working_precision(bits: int = WORKING_BITS):
    """Temporarily set the interval working precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = old


def _pair(value) -> tuple:
    """The endpoint pair of an operand at the working precision."""
    if isinstance(value, CertifiedReal):
        return value._mpi
    if isinstance(value, bool):
        raise DomainError("boolean is not a real value")
    if isinstance(value, int):
        prec = iv.prec
        if value.bit_length() <= prec:  # exact: the floor is the ceiling
            x = from_int(value)
            return x, x
        return from_int(value, prec, round_floor), from_int(value, prec, round_ceiling)
    if isinstance(value, Rational):
        return mpi_div(_pair(int(value.numerator)), _pair(int(value.denominator)), iv.prec)
    if isinstance(value, float):
        # floats are exact binary rationals; no hidden decimal intent
        prec = iv.prec
        lo, hi = from_float(value, prec, round_floor), from_float(value, prec, round_ceiling)
        return (fninf, finf) if fnan in (lo, hi) else (lo, hi)
    raise DomainError(f"cannot enclose {type(value).__name__}")


def _make(pair: tuple) -> "CertifiedReal":
    out = object.__new__(CertifiedReal)
    out._mpi = pair
    return out


def _real(op: str, f, *args) -> "CertifiedReal":
    """f(*args) for a primitive that raises ComplexResult off the reals."""
    try:
        return _make(f(*args))
    except ComplexResult:
        raise DomainError(f"{op}: no real value on this enclosure") from None


class CertifiedReal:
    """A real number known only through a rigorous enclosure."""

    __slots__ = ("_mpi",)

    def __init__(self, value):
        self._mpi = _pair(value)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_endpoints(cls, lo, hi) -> "CertifiedReal":
        """[lo, hi]: mpmath mpf endpoints exactly, other reals rounded outward."""
        a = lo._mpf_ if isinstance(lo, mpmath.mpf) else _pair(lo)[0]
        b = hi._mpf_ if isinstance(hi, mpmath.mpf) else _pair(hi)[1]
        if not mpf_le(a, b):
            raise DomainError("endpoints must be ordered lo <= hi")
        return _make((a, b))

    @staticmethod
    def pi() -> "CertifiedReal":
        prec = iv.prec
        return _make((mpf_pi(prec, round_floor), mpf_pi(prec, round_ceiling)))

    @staticmethod
    def euler_e() -> "CertifiedReal":
        prec = iv.prec
        return _make((mpf_e(prec, round_floor), mpf_e(prec, round_ceiling)))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        return _make(mpi_add(self._mpi, _pair(other), iv.prec))

    __radd__ = __add__

    def __sub__(self, other):
        return _make(mpi_sub(self._mpi, _pair(other), iv.prec))

    def __rsub__(self, other):
        return _make(mpi_sub(_pair(other), self._mpi, iv.prec))

    def __mul__(self, other):
        return _make(mpi_mul(self._mpi, _pair(other), iv.prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return _make(mpi_div(self._mpi, _pair(other), iv.prec))

    def __rtruediv__(self, other):
        return _make(mpi_div(_pair(other), self._mpi, iv.prec))

    def __neg__(self):
        return _make(mpi_neg(self._mpi, iv.prec))

    def __pow__(self, expo):
        return _real("**", mpi_pow, self._mpi, _pair(expo), iv.prec)

    def sqrt(self) -> "CertifiedReal":
        return _real("sqrt", mpi_sqrt, self._mpi, iv.prec)

    def log(self) -> "CertifiedReal":
        return _real("log", mpi_log, self._mpi, iv.prec)

    def __abs__(self):
        return _make(mpi_abs(self._mpi, iv.prec))

    # -- comparisons: True / False / None ----------------------------------

    def lt(self, other) -> bool | None:
        return mpi_lt(self._mpi, _pair(other))

    def le(self, other) -> bool | None:
        return mpi_le(self._mpi, _pair(other))

    def gt(self, other) -> bool | None:
        return mpi_lt(_pair(other), self._mpi)

    def ge(self, other) -> bool | None:
        return mpi_le(_pair(other), self._mpi)

    # -- inspection ---------------------------------------------------------

    @property
    def lo(self) -> float:
        """Lower endpoint as a double, rounded toward -inf (stays a bound)."""
        exact = self.lo_mpf()
        f = float(exact)
        return f if mpmath.mpf(f) <= exact else math.nextafter(f, -math.inf)

    @property
    def hi(self) -> float:
        """Upper endpoint as a double, rounded toward +inf."""
        exact = self.hi_mpf()
        f = float(exact)
        return f if mpmath.mpf(f) >= exact else math.nextafter(f, math.inf)

    def lo_mpf(self):
        """The exact lower endpoint, at whatever precision it carries."""
        return mpmath.mp.make_mpf(self._mpi[0])

    def hi_mpf(self):
        return mpmath.mp.make_mpf(self._mpi[1])

    # The strings round the endpoints to nearest at mpmath's 53-bit default,
    # so they may lie just inside the enclosure; only .lo/.hi are bounds.
    def lo_str(self, digits: int = 24) -> str:
        return mpmath.nstr(mpmath.mpf(self.lo_mpf()), digits)

    def hi_str(self, digits: int = 24) -> str:
        return mpmath.nstr(mpmath.mpf(self.hi_mpf()), digits)

    def contains(self, value) -> bool:
        (lo, hi), (a, b) = self._mpi, _pair(value)
        return mpf_le(lo, a) and mpf_le(b, hi)

    def to_json(self) -> dict:
        return {"lo": self.lo_str(), "hi": self.hi_str()}

    def __repr__(self):
        return f"CertifiedReal[{self.lo_str(12)}, {self.hi_str(12)}]"

    def __float__(self):
        return to_float(mpi_mid(self._mpi, iv.prec))


def enclose(value) -> CertifiedReal:
    return value if isinstance(value, CertifiedReal) else CertifiedReal(value)


def pow_frac(base, expo: Fraction) -> CertifiedReal:
    """base**expo for rational expo, via the interval power."""
    b = enclose(base)
    if expo.denominator == 1:
        return b ** int(expo)
    return b ** CertifiedReal(expo)


def emin(*values: CertifiedReal) -> CertifiedReal:
    """Enclosure of min of the exact values."""
    lo = min(v.lo_mpf() for v in values)
    hi = min(v.hi_mpf() for v in values)
    return CertifiedReal.from_endpoints(lo, hi)


def emax(*values: CertifiedReal) -> CertifiedReal:
    lo = max(v.lo_mpf() for v in values)
    hi = max(v.hi_mpf() for v in values)
    return CertifiedReal.from_endpoints(lo, hi)


# -- envelope / character-sum coefficients: floats and their enclosures -----


def envelopes(X, h) -> tuple[float, float]:
    """Floats (A(X), B(X)): A(X) = 1 - 2pi^2/(9X),
    B(X) = 1 + 2pi^2/(9X) + 1/h + (pi^2/3h) log(X)/X."""
    x = float(X)
    a = 1 - 2 * math.pi**2 / (9 * x)
    b = 1 + 2 * math.pi**2 / (9 * x) + 1 / h + (math.pi**2 / (3 * h)) * math.log(x) / x
    return a, b


def envelope_a(x) -> CertifiedReal:
    """Lower interval-count envelope factor 1 - 2 pi^2 / (9 X)."""
    x = enclose(x)
    return CertifiedReal(1) - 2 * CertifiedReal.pi() ** 2 / (9 * x)


def envelope_b(x, h) -> CertifiedReal:
    """Upper envelope factor 1 + 2 pi^2/(9X) + 1/h + (pi^2/3h) log(X)/X."""
    x = enclose(x)
    return _envelope_b(x, h, x.log() / x)


def _envelope_b(x: CertifiedReal, h, log_ratio: CertifiedReal) -> CertifiedReal:
    """envelope_b with `log_ratio` enclosing the value used for log(X)/X."""
    h = enclose(h)
    pi2 = CertifiedReal.pi() ** 2
    return CertifiedReal(1) + 2 * pi2 / (9 * x) + 1 / h + (pi2 / (3 * h)) * log_ratio


def envelope_b_sup(x_min, h_min) -> CertifiedReal:
    """Upper bound of envelope_b over X >= x_min, h >= h_min.

    All terms decrease in X and h except log(X)/X, which peaks at X = e; the
    sup of that ratio on [x_min, inf) is max(log(x_min)/x_min, 1/e) when
    x_min < e else log(x_min)/x_min.
    """
    x = enclose(x_min)
    ratio = x.log() / x
    if x.lo < math.e:
        ratio = emax(ratio, 1 / CertifiedReal.euler_e())
    return _envelope_b(x, h_min, ratio)


def w_factor(p: int, h: int, r: int) -> float:
    """Minimum applicable W with S_chi <= W sqrt(p) h^(2r):
    sqrt(2) (2r/(eh))^r sqrt(p) + (2r-1), and at r=2 also 3(1 + sqrt(p)/h^2)."""
    if h < 1 or r < 1:
        raise DomainError("h and r must be >= 1")
    general = math.sqrt(2) * (2 * r / (math.e * h)) ** r * math.sqrt(p) + (2 * r - 1)
    if r == 2:
        return min(general, 3.0 * (1.0 + math.sqrt(p) / h**2))
    return general


def w_factor_enclosure(p, h, r: int) -> CertifiedReal:
    """Enclosure of the moment-sum coefficient W(p,h,r): S <= W sqrt(p) h^(2r)."""
    return w_branch(enclose(p).sqrt() / enclose(h) ** r, r)[0]


@functools.cache
def _w_general_slope(r: int, bits: int) -> CertifiedReal:
    """sqrt(2) (2r/e)^r at `bits` of working precision."""
    return CertifiedReal(2).sqrt() * (2 * r / CertifiedReal.euler_e()) ** r


def w_branch(u: CertifiedReal, r: int) -> tuple[CertifiedReal, str]:
    """W from u = sqrt(p)/h^r, and the name of its smaller branch: the min
    of sqrt(2) (2r/e)^r u + (2r-1) ("general") and, at r=2, 3(1 + u).

    It takes the ratio, not p and h, so that a threshold can give u in
    shape form: for h = 2 p^(1/4), u = p^0/4 = 1/4 and W = 15/4 exactly,
    while W at the point h = 2 p0^(1/4) only encloses 15/4, so le(15/4)
    on it is undecided.
    """
    general = _w_general_slope(r, iv.prec) * u + (2 * r - 1)
    if r != 2:
        return general, "general"
    r2 = 3 * (1 + u)
    return emin(general, r2), "general" if general.hi_mpf() <= r2.hi_mpf() else "r=2"


def window_recipe(p, r: int) -> float:
    """The window length recipe (2r/e) (2p)^(1/(2r)) ((r-1)/(2r-1))^(1/r).

    At p = 1 it is the coefficient c of the threshold shape h ~ c p^(1/(2r)).
    """
    return (2 * r / math.e) * (2 * p) ** (1 / (2 * r)) * ((r - 1) / (2 * r - 1)) ** (1 / r)


def recipe_coefficient(r: int) -> CertifiedReal:
    """c = (1/e) 2^(1/(2r)) ((r-1)/(2r-1))^(1/r), so that the window recipe
    (2r/e) (2p)^(1/(2r)) ((r-1)/(2r-1))^(1/r) is 2r c p^(1/(2r))."""
    return (
        pow_frac(2, Fraction(1, 2 * r))
        * pow_frac(Fraction(r - 1, 2 * r - 1), Fraction(1, r))
        / CertifiedReal.euler_e()
    )
