import math
import random
from itertools import accumulate
from time import perf_counter

import pytest

from aplcm import numtheory
from aplcm.errors import SelfCheckError
from aplcm.numtheory import (
    MILLER_RABIN_BOUND,
    _product_tree,
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
    limit = numtheory._sieve[0]
    for n in range(-3, limit + 201):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_after_sieve_growth():
    primes_upto(10**4)
    assert numtheory._sieve[0] >= 10**4
    for n in range(2001):
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_is_false_for_negatives_inside_the_sieve():
    # Every n <= the sieve's limit, negative ones too, is answered by
    # bisection in the sieve's primes.
    primes_upto(10**4)
    limit = numtheory._sieve[0]
    assert not any(is_prime(-n) for n in range(1, limit + 1))


def test_product_tree_matches_math_prod():
    rng = random.Random(5)
    for length in range(41):
        xs = [rng.randint(1, 10**12) for _ in range(length)]
        assert _product_tree(xs) == math.prod(xs)
    assert _product_tree([]) == 1
    k = 10**5
    powers = [p ** integer_log(p, k) for p in primes_upto(k)]
    assert _product_tree(powers) == math.prod(powers)


def _empty_lcm_cache(monkeypatch, checkpoints=True):
    """An empty sieve; the checkpoints too, if asked."""
    monkeypatch.setattr(numtheory, "_sieve", (1, (), (), ()))
    if checkpoints:
        monkeypatch.setattr(numtheory, "_checkpoints", {})


def test_cached_lcm_upto_matches_math_lcm(monkeypatch):
    # From an empty sieve and checkpoints, shuffled k with the sieve grown
    # in between: checkpoints are built out of order, each from the nearer
    # kept neighbour, and kept across the growth of the sieve.
    _empty_lcm_cache(monkeypatch)
    expected = list(accumulate(range(1, 2001), math.lcm, initial=1))
    ks = list(range(2001))
    random.Random(12).shuffle(ks)
    ks[:0] = [1, 0]
    for i, k in enumerate(ks):
        if i == len(ks) // 2:
            primes_upto(5000)
        assert numtheory._cached_lcm_upto(k) == expected[k], k
    assert numtheory._cached_lcm_upto(2000) == math.lcm(*range(1, 2001))


def test_cached_lcm_upto_is_exact_at_checkpoint_boundaries(monkeypatch):
    # Checkpoints are keyed by k >> 6 << 6, so k runs over 64j - 1, 64j
    # and 64j + 1.
    ks = {0, 1, 2}
    for j in (1, 2, 3, 4, 5, 16, 100, 500, 1000, 1100, 1483, 1484):
        ks.update((64 * j - 1, 64 * j, 64 * j + 1))
    assert max(ks) <= 95_000
    expected = {k: lcm_upto(k) for k in ks}
    ascending = sorted(expected)
    shuffled = random.Random(19).sample(ascending, len(ascending))
    # Descending from an empty state, so most checkpoints are divided from
    # the one above; then ascending, across sieve regrowths, first over the
    # checkpoints kept from the descent (they outlive the sieve's growth),
    # then with none kept; then shuffled, with both neighbours in reach.
    for ks, keep in (
        (ascending[::-1], False),
        (ascending, True),
        (ascending, False),
        (shuffled, False),
    ):
        _empty_lcm_cache(monkeypatch, checkpoints=not keep)
        for k in ks:
            assert numtheory._cached_lcm_upto(k) == expected[k], k


def test_a_descending_sweep_builds_one_checkpoint_from_scratch(monkeypatch):
    # Every checkpoint after the first is built from a kept neighbour, so
    # only one product tree runs over thousands of factors.
    _empty_lcm_cache(monkeypatch)
    primes_upto(105_000)
    long_inputs = []
    tree = numtheory._product_tree

    def counting(xs):
        if len(xs) > 1000:
            long_inputs.append(len(xs))
        return tree(xs)

    monkeypatch.setattr(numtheory, "_product_tree", counting)
    for k in range(105_000, 94_999, -50):
        numtheory._cached_lcm_upto(k)
    assert len(long_inputs) <= 1, long_inputs


def test_a_checkpoint_beyond_the_sieve_is_never_divided_from(monkeypatch):
    # Another reader, with a longer sieve, kept a checkpoint past the
    # limit of this reader's sieve. The factors up to it are not all in
    # this sieve, so the checkpoint 64 below it is built from below, not
    # divided from it.
    _empty_lcm_cache(monkeypatch)
    numtheory._cached_lcm_upto(2)
    sieve = numtheory._sieve
    limit = sieve[0]
    above = ((limit >> 6) + 1) << 6
    numtheory._cached_lcm_upto(above)
    assert above in numtheory._checkpoints
    monkeypatch.setattr(numtheory, "_sieve", sieve)
    k = above - 64
    assert numtheory._cached_lcm_upto(k) == lcm_upto(k)
    assert numtheory._sieve is sieve and k <= limit < above


def test_a_corrupted_checkpoint_above_is_not_divided_into_the_cache(monkeypatch):
    # The kept checkpoint 64 above a missing one is off by one, so dividing
    # it by the factors gained in between leaves a remainder.
    _empty_lcm_cache(monkeypatch)
    numtheory._cached_lcm_upto(8000)
    point = numtheory._checkpoints[8000]
    monkeypatch.setattr(numtheory, "_checkpoints", {8000: point + 1})
    with pytest.raises(SelfCheckError):
        numtheory._cached_lcm_upto(7999)
    assert set(numtheory._checkpoints) == {8000}


def test_checkpoints_stay_within_their_byte_cap(monkeypatch):
    cap = 4096
    _empty_lcm_cache(monkeypatch)
    monkeypatch.setattr(numtheory, "_CHECKPOINT_BYTES", cap)
    ks = random.Random(17).sample(range(30_001), 3000)
    wanted = set(ks)
    lcms = accumulate(range(1, 30_001), math.lcm, initial=1)
    expected = {k: lcm for k, lcm in enumerate(lcms) if k in wanted}
    fullest = 0
    for k in ks:
        assert numtheory._cached_lcm_upto(k) == expected[k], k
        bits = sum(map(int.bit_length, numtheory._checkpoints.values()))
        assert bits <= 8 * cap, k
        fullest = max(fullest, bits)
    # The cap was reached, so checkpoints were evicted on the way.
    assert fullest > 4 * cap


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
    assert lcm_upto(0) == 1
    assert lcm_upto(6) == 60
    assert lcm_upto(10) == 2520


def test_lcm_upto_matches_iterated_lcm():
    for k in range(1, 41):
        assert lcm_upto(k) == math.lcm(*range(1, k + 1))


def test_lcm_upto_matches_math_lcm_at_larger_k():
    for k in (1000, 5000):
        assert lcm_upto(k) == math.lcm(*range(1, k + 1))


def test_lcm_upto_exponents_are_max_powers():
    for k in range(1, 31):
        value = lcm_upto(k)
        for p in primes_upto(k):
            assert valuation(p, value) == integer_log(p, k)


def test_lcm_upto_around_prime_squares():
    for p in primes_upto(31):
        for k in (p * p - 1, p * p, p * p + 1):
            assert lcm_upto(k) == math.lcm(*range(1, k + 1)), k


def test_is_prime_above_the_sieve_matches_trial_division():
    primes_upto(10**4)
    start = max(numtheory._sieve[0], 10**7) + 1
    rng = random.Random(13)
    samples = list(range(start, start + 2000))
    samples += [rng.randrange(10**8, 10**9) for _ in range(300)]
    for n in samples:
        assert is_prime(n) == trial_division_is_prime(n), n


def test_is_prime_refuses_at_once_above_the_bound():
    p = 2**89 - 1  # a Mersenne prime above MILLER_RABIN_BOUND
    started = perf_counter()
    with pytest.raises(ValueError, match="not decided"):
        is_prime(p)
    assert perf_counter() - started < 1
    # A small factor still answers, on either side of the bound.
    assert not is_prime(2**89) and not is_prime(3 * p)


def test_is_prime_rejects_strong_pseudoprimes():
    # Strong pseudoprimes to the bases 2..7 and 2..23 respectively.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    # Two 13-digit prime factors: trial division would need ~10^12 steps.
    p, q = 999_999_999_989, 1_000_000_000_039
    assert is_prime(p) and is_prime(q) and is_prime(2**61 - 1)
    assert p * q < MILLER_RABIN_BOUND and not is_prime(p * q)
