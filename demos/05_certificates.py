"""Issuing bound certificates: exact primes, thresholds, the parameter
search, and the brute-force cross-check.

Run:  python demos/05_certificates.py
"""

import json
from fractions import Fraction

from gpbound.certify import (
    PowerShape,
    SieveConfig,
    Threshold,
    optimize_params,
    soundness_crosscheck,
    certify_bound,
)
from gpbound.errors import DomainError
from gpbound.ntcore import PrimeContext, factorize, is_prime, iter_primes, least_primitive_root

p = 10**9 + 7
print(f"exact certificate at p = {p}:")
result = optimize_params(p)
print(f"  smallest certified H = {float(result.H):.4e}  (r={result.certificate.r}, h={result.h})")
print(f"  brute force g(p) = {least_primitive_root(p)} — certificate confirmed")
print(f"  sieve: {result.certificate.sieve.to_json()}")

print("\nthe sieve carries its evidence: one built at another prime is refused")
other = 2000000579  # a safe prime too, so the two sieve factors agree
try:
    certify_bound(p, SieveConfig.build(PrimeContext(other), other - 1), 2, 360, 150000)
except DomainError as exc:
    print(f"  DomainError: {exc}")

print("\nthreshold certificate (all p >= 1e22 with omega = 8):")
cert = certify_bound(
    Threshold(p_min=10**22, omega=8),
    SieveConfig.worst_case(8, 0),  # the sieve over every p with omega = 8
    2,
    PowerShape(coef=Fraction(2), expo=Fraction(1, 4), ceil=True),  # h = ceil(2 p^(1/4))
    PowerShape(coef=Fraction(1), expo=Fraction(5, 8)),             # H = p^(5/8)
)
print(json.dumps(cert.to_json(), indent=2))

print("\ninfeasible case: p = 106696591 has omega(p-1) = 8 at only ~1e8")
assert is_prime(106696591) and factorize(106696590).omega == 8
print(" ", optimize_params(106696591).reason)

print("\nminimal-exponent shape over a threshold (all p >= 1e56, omega = 20):")
from gpbound.certify import optimize_threshold

res = optimize_threshold(10**56, 20)
print(
    f"  best certified: H = {float(res.coefficient):.4e} * p^({res.exponent})"
    f"  via r = {res.certificate.r}, s = {res.certificate.sieve.s}"
)

print("\nsoundness sweep over the first 10 safe primes past 1e8:")
safe = []
for q in iter_primes(10**8, 10**8 + 10**6):
    if is_prime((q - 1) // 2):
        safe.append(q)
    if len(safe) == 10:
        break
report = soundness_crosscheck(safe)
print(json.dumps(report.to_json(), indent=2))
