"""ntcore: primality, factorization, multiplicative functions, and the
brute-force least-primitive-root oracle.

Oracles here are deliberately independent of the implementation: trial
division, full power enumeration, direct coprime counting.
"""

import math

import numpy as np
import pytest

from gpbound.errors import (
    BudgetExceededError,
    ConsistencyError,
    DomainError,
    UnsupportedRangeError,
)
from gpbound.ntcore import (
    _DLOG_INT64_P_MAX,
    _passes_strong_test,
    Factorization,
    MR_DETERMINISTIC_LIMIT,
    PrimeContext,
    _dlog_table,
    euler_phi,
    factorize,
    first_primes,
    is_prime,
    is_primitive_root,
    least_primitive_root,
    moebius,
    multiplicative_order,
    primes_upto,
    primorial,
    theta,
)


# -- oracles ------------------------------------------------------------------


def is_prime_trial(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def order_by_enumeration(a: int, p: int) -> int:
    k, x = 1, a % p
    while x != 1:
        x = x * a % p
        k += 1
    return k


def phi_by_count(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def dlog_by_power_loop(p: int, g: int) -> list[int]:
    table = [-1] * p
    x = 1
    for k in range(p - 1):
        table[x] = k
        x = x * g % p
    return table


# -- primality ----------------------------------------------------------------


def test_is_prime_trivia():
    assert is_prime(2)
    assert not is_prime(1)
    assert not is_prime(0)


def test_is_prime_matches_trial_division_to_10k():
    for n in range(10_000):
        assert is_prime(n) == is_prime_trial(n), n


def test_is_prime_large_value():
    # 1e15 + 37 verified prime by trial division up to sqrt
    assert is_prime(10**15 + 37)
    assert not is_prime(10**15 + 39)


def test_is_prime_rejects_negative_and_huge():
    with pytest.raises(DomainError):
        is_prime(-1)
    with pytest.raises(UnsupportedRangeError):
        is_prime(MR_DETERMINISTIC_LIMIT + 1)


def test_lucas_proof_beyond_deterministic_range():
    m89 = 2**89 - 1  # Mersenne prime; 3 is its least primitive root
    assert least_primitive_root(m89) == 3
    assert PrimeContext(m89).generator == 3
    for make in (least_primitive_root, PrimeContext):
        with pytest.raises(DomainError, match="not an odd prime"):
            make(2**89 + 1)


def test_lucas_proof_rejects_strong_pseudoprime_at_limit():
    # the limit itself passes every witness, so only g^(p-1) != 1 exposes it
    assert _passes_strong_test(MR_DETERMINISTIC_LIMIT)
    with pytest.raises(DomainError, match="not an odd prime"):
        least_primitive_root(MR_DETERMINISTIC_LIMIT)


def test_unprovable_factor_of_p_minus_one_is_unsupported():
    # 136 (2^89 - 1) + 1 is prime, but its factor 2^89 - 1 lies past the
    # deterministic range, so the Lucas proof has an unproved prime
    m89 = 2**89 - 1
    f = Factorization(((2, 3), (17, 1), (m89, 1)))
    with pytest.raises(UnsupportedRangeError):
        PrimeContext(136 * m89 + 1, f)


# -- factorization --------------------------------------------------------------


def test_factorize_hand_cases():
    assert factorize(12).entries == ((2, 2), (3, 1))
    assert factorize(1).entries == ()
    assert factorize(2**10).entries == ((2, 10),)


def test_factorize_p_minus_one_of_1e9_7():
    # 10^9 + 6 = 2 * 500000003, cofactor prime by trial division
    f = factorize(10**9 + 6)
    assert f.entries == ((2, 1), (500000003, 1))
    assert is_prime_trial(500000003)


def test_factorize_multiplies_back():
    for n in list(range(1, 400)) + [2**31 - 1, 600851475143, 10**12 + 39]:
        f = factorize(n)
        assert f.n == n
        f.validate(n)


def test_factorization_rejects_bad_entries():
    with pytest.raises(DomainError):
        Factorization(((4, 1),)).validate(4)
    with pytest.raises(DomainError):
        Factorization(((3, 1), (2, 1)))
    with pytest.raises(DomainError):
        Factorization(((2, 1),)).validate(6)


def test_factorization_json_roundtrip():
    f = factorize(360)
    assert Factorization.from_json(f.to_json()) == f


# -- multiplicative functions ---------------------------------------------------


def test_phi_mu_theta_trivia():
    assert euler_phi(1) == 1
    assert moebius(12) == 0
    assert theta(12).numerator == 1 and theta(12).denominator == 3


def test_phi_matches_direct_count():
    for n in range(1, 300):
        assert euler_phi(n) == phi_by_count(n), n


def test_divisor_sum_identities_to_1e5_sampled():
    # sum_{d|n} phi(d) = n and sum_{d|n} mu(d) = [n=1]
    import random

    rng = random.Random(0)
    ns = list(range(1, 2000)) + [rng.randrange(2000, 100001) for _ in range(500)]
    for n in ns:
        divs = factorize(n).divisors()
        assert sum(euler_phi(d) for d in divs) == n, n
        assert sum(moebius(d) for d in divs) == (1 if n == 1 else 0), n


# -- orders and primitive roots ---------------------------------------------------


def test_multiplicative_order_hand_cases():
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(6, 7) == 2
    assert multiplicative_order(3, 7) == 6


def test_multiplicative_order_matches_enumeration():
    for p in [5, 7, 11, 13, 101, 191]:
        for a in range(1, p):
            assert multiplicative_order(a, p) == order_by_enumeration(a, p)


def test_multiplicative_order_rejects_zero():
    with pytest.raises(DomainError):
        multiplicative_order(7, 7)


def test_least_primitive_root_hand_cases():
    assert least_primitive_root(3) == 2
    assert least_primitive_root(7) == 3
    assert least_primitive_root(191) == 19  # brute-force oracle value


def test_least_primitive_root_is_least_to_1000():
    for p in primes_upto(1000):
        if p == 2:
            continue
        g = least_primitive_root(p)
        assert order_by_enumeration(g, p) == p - 1
        for a in range(2, g):
            assert order_by_enumeration(a, p) < p - 1


def test_least_primitive_root_budget():
    with pytest.raises(BudgetExceededError):
        least_primitive_root(191, candidate_limit=3)


# -- primorial ---------------------------------------------------------------------


def test_primorial_values():
    assert primorial(0) == 1
    assert primorial(4) == 210
    # direct product oracle
    prod = 1
    for q in first_primes(18):
        prod *= q
    assert primorial(18) == prod == 117288381359406970983270


def test_primorial_ratio_is_next_prime():
    for k in range(0, 25):
        assert primorial(k + 1) // primorial(k) == first_primes(k + 1)[-1]


# -- PrimeContext -------------------------------------------------------------------


def test_context_basics():
    ctx = PrimeContext(13)
    assert ctx.generator == 2
    assert ctx.omega == 2
    assert ctx.pm1_factors.entries == ((2, 2), (3, 1))


def test_context_dlog_bijection():
    for p in [7, 13, 101]:
        ctx = PrimeContext(p)
        table = ctx.dlog_array()
        assert table[0] == -1
        assert sorted(int(t) for t in table[1:]) == list(range(p - 1))
        for n in range(1, p):
            assert pow(ctx.generator, ctx.dlog(n), p) == n


def test_context_generator_has_full_order():
    for p in primes_upto(300):
        if p == 2:
            continue
        ctx = PrimeContext(p)
        assert order_by_enumeration(ctx.generator, p) == p - 1


def test_context_rejects_bad_input():
    with pytest.raises(DomainError):
        PrimeContext(15)


def test_context_dlog_cap():
    ctx = PrimeContext(10000019)  # the first prime past DLOG_CAP = 10^7
    assert ctx.p > PrimeContext.DLOG_CAP
    with pytest.raises(UnsupportedRangeError, match="capped"):
        ctx.dlog_array()


def test_dlog_table_matches_power_loop():
    # covers p-1 a perfect square (17, 37, ..., 2917) and ragged last giant rows
    for p in primes_upto(3000)[1:]:
        ctx = PrimeContext(p)
        assert ctx.dlog_array().tolist() == dlog_by_power_loop(p, ctx.generator), p


def test_dlog_table_matches_power_loop_near_1e6():
    for p in (960961, 1000003):
        ctx = PrimeContext(p)
        table = ctx.dlog_array()
        assert table.dtype == np.int64
        assert np.array_equal(table, dlog_by_power_loop(p, ctx.generator)), p


def test_dlog_table_rejects_non_generator():
    for p in primes_upto(60)[1:]:
        for a in range(1, p):
            if not is_primitive_root(a, p):
                with pytest.raises(ConsistencyError):
                    _dlog_table(p, a)
    ctx = PrimeContext(13)
    ctx.generator = 3  # order 3 mod 13
    with pytest.raises(ConsistencyError):
        ctx.dlog_array()


def test_dlog_table_int64_guard(monkeypatch):
    assert (_DLOG_INT64_P_MAX - 1) ** 2 < 2**63 <= _DLOG_INT64_P_MAX**2
    p = 3037000507  # the first prime past the limit; g(p) = 2

    def no_alloc(*args, **kwargs):
        raise AssertionError("array allocated before the int64 check")

    for name in ("array", "full", "arange"):
        monkeypatch.setattr(np, name, no_alloc)
    with pytest.raises(UnsupportedRangeError, match="int64"):
        _dlog_table(p, 2)


def test_is_primitive_root_matches_order_test():
    for p in [13, 61]:
        for a in range(1, p):
            assert is_primitive_root(a, p) == (order_by_enumeration(a, p) == p - 1)
