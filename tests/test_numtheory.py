import math
import random

import pytest

from aplcm import numtheory
from aplcm.numtheory import (
    FactoredInteger,
    factorize,
    integer_log,
    is_prime,
    lcm_many,
    lcm_upto,
    primes_upto,
    valuation,
)


def brute_lcm(xs):
    """Scan multiples of max(xs): the least hit divisible by all entries."""
    top = max(xs)
    m = top
    while True:
        if all(m % x == 0 for x in xs):
            return m
        m += top


def trial_division_is_prime(n):
    """Oracle kept apart from the sieve that is_prime answers from."""
    if n < 2:
        return False
    return all(n % f for f in range(2, math.isqrt(n) + 1))


def test_lcm_many_values():
    assert lcm_many([1, 2, 3, 4]) == 12
    assert lcm_many([7]) == 7
    assert lcm_many([10, 11, 12]) == brute_lcm([10, 11, 12]) == 660


def test_lcm_many_rejects_bad_input():
    with pytest.raises(ValueError):
        lcm_many([])
    with pytest.raises(ValueError):
        lcm_many([4, 0, 3])


def test_lcm_many_divisibility_random():
    rng = random.Random(1)
    for _ in range(300):
        xs = [rng.randint(1, 10**6) for _ in range(rng.randint(1, 8))]
        total = lcm_many(xs)
        assert all(total % x == 0 for x in xs)
        assert math.prod(xs) % total == 0


def test_primes_upto_small():
    assert primes_upto(1) == []
    assert primes_upto(10) == [2, 3, 5, 7]
    result = primes_upto(30)
    assert len(result) == 10 and result[-1] == 29


def test_primes_upto_matches_trial_division():
    for k in (0, 2, 50, 200):
        assert primes_upto(k) == [
            n for n in range(2, k + 1) if trial_division_is_prime(n)
        ]


def test_primes_upto_cache_growth_is_transparent():
    big = primes_upto(5000)
    assert primes_upto(10) == [2, 3, 5, 7]
    assert big[-1] <= 5000 and is_prime(big[-1])


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37}
    for n in range(-3, 40):
        assert is_prime(n) == (n in primes)


def test_is_prime_across_the_sieve_limit():
    primes_upto(1000)
    limit = numtheory._prime_cache_limit
    for n in range(-3, limit + 201):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_after_sieve_growth():
    primes_upto(10**4)
    assert numtheory._prime_cache_limit >= 10**4
    for n in range(2001):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_valuation():
    assert valuation(2, 8) == 3
    assert valuation(3, 10) == 0
    # repeated-division oracle
    x, count = 840, 0
    while x % 2 == 0:
        x //= 2
        count += 1
    assert valuation(2, 840) == count == 3


def test_valuation_rejects_bad_input():
    with pytest.raises(ValueError):
        valuation(2, 0)
    with pytest.raises(ValueError):
        valuation(4, 12)


def test_integer_log():
    assert integer_log(2, 5) == 2
    assert integer_log(3, 9) == 2  # boundary base**e == n
    assert integer_log(7, 6) == 0
    with pytest.raises(ValueError):
        integer_log(1, 5)
    with pytest.raises(ValueError):
        integer_log(2, 0)


def test_integer_log_sandwich():
    for p in (2, 3, 5, 7, 11, 13):
        for k in range(1, 500):
            e = integer_log(p, k)
            assert p**e <= k < p ** (e + 1)


def test_lcm_upto_values():
    assert lcm_upto(0).value == 1 and lcm_upto(0).factors == {}
    assert lcm_upto(6).value == 60
    assert lcm_upto(6).factors == {2: 2, 3: 1, 5: 1}
    assert lcm_upto(10).value == 2520
    assert lcm_upto(10).factors == {2: 3, 3: 2, 5: 1, 7: 1}


def test_lcm_upto_matches_iterated_lcm():
    for k in range(1, 41):
        assert lcm_upto(k).value == math.lcm(*range(1, k + 1))


def test_lcm_upto_exponents_are_max_powers():
    for k in range(1, 31):
        value = lcm_upto(k).value
        for p in primes_upto(k):
            assert valuation(p, value) == integer_log(p, k)


def test_factored_integer_canonical():
    f = FactoredInteger({5: 1, 2: 2, 3: 0})
    assert list(f.factors) == [2, 5]
    assert f.value == 20
    assert str(f) == "2^2 * 5"
    assert str(FactoredInteger({})) == "1"


def test_factored_integer_rejects_bad_factors():
    with pytest.raises(ValueError):
        FactoredInteger({4: 1})
    with pytest.raises(ValueError):
        FactoredInteger({2: -1})


def test_factored_integer_rejects_composites_with_warm_sieve():
    primes_upto(10**4)
    with pytest.raises(ValueError):
        FactoredInteger({4: 1})
    with pytest.raises(ValueError):
        FactoredInteger({1_000_003 * 3: 1})


def test_factored_integer_divisors():
    f = FactoredInteger({2: 2, 3: 1, 5: 1})
    brute = [d for d in range(1, f.value + 1) if f.value % d == 0]
    assert f.divisors() == brute


def test_factorize_roundtrip():
    rng = random.Random(2)
    assert factorize(1) == {}
    for _ in range(200):
        n = rng.randint(1, 10**6)
        factors = factorize(n)
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(is_prime(p) for p in factors)
