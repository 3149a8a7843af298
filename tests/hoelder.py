"""Hölder's formula for Ramanujan sums: the reference oracle that the
sieve's class transform is tested against, and that is itself tested
against an enumeration of the characters (test_characters)."""

import math


def ramanujan_sum(d: int, k: int, primes: tuple[int, ...]) -> int:
    """c_d(k): the sum of chi(g^k) over the phi(d) characters of exact order d.

    Those characters are j = m (p-1)/d with gcd(m, d) = 1, so the sum is the
    Ramanujan sum of exp(2 pi i m k/d) over m coprime to d.  It is computed
    in integers by Hölder's formula c_d(k) = mu(q) phi(d)/phi(q) with
    q = d/gcd(d, k).  `primes` must hold every prime factor of d; the primes
    of p-1 do for every d | p-1, so nothing is factorized.
    """
    g = math.gcd(d, k)
    q = d // g
    # phi(d)/phi(q) = g prod_{r | d, r not | q} (1 - 1/r), signed by mu(q)
    value = g
    for r in primes:
        if d % r:
            continue
        if q % r:
            value = value // r * (r - 1)
        elif q % (r * r) == 0:
            return 0
        else:
            value = -value
    return value
