"""Reference answers the benchmark checks the program against.

These are short recomputations written apart from the package (nothing
here imports aplcm), straight from the paper's statements: the smallest
period is lcm(1..k) divided by the full block q^E of every prime q <= k
dividing the reduced difference, and by the exceptional p^E when a
prime p <= k not dividing it has p^E | k + 1 (E the largest exponent
with p^E <= k). Window lcms come from math.lcm.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache
from itertools import compress


def primes_upto(n: int) -> list[int]:
    ps = _sieve(1 << max(n, 1).bit_length())
    return ps[: bisect_right(ps, n)]


@lru_cache(maxsize=None)
def _sieve(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(compress(range(limit + 1), sieve))


def block(p: int, k: int) -> int:
    """p^E, the largest power of p that is <= k."""
    q = p
    while q * p <= k:
        q *= p
    return q


def product(xs: list[int]) -> int:
    """Product by a balanced tree, so big factors meet late."""
    while len(xs) > 1:
        pairs = [xs[i] * xs[i + 1] for i in range(0, len(xs) - 1, 2)]
        if len(xs) % 2:
            pairs.append(xs[-1])
        xs = pairs
    return xs[0] if xs else 1


def lcm_upto(k: int) -> int:
    return product([block(p, k) for p in primes_upto(k)])


def smallest_period(k: int, a: int, b: int) -> tuple[int, int]:
    """(smallest period, exceptional factor) of the window ratio."""
    ar = a // math.gcd(a, b)
    kept, exceptional = [], 1
    for p in primes_upto(k):
        if ar % p == 0:
            continue
        q = block(p, k)
        if (k + 1) % q == 0:
            exceptional *= q
        else:
            kept.append(q)
    return product(kept), exceptional


def window(a: int, b: int, n: int, k: int) -> list[int]:
    return [b + (n + i) * a for i in range(k + 1)]


def window_lcm(a: int, b: int, n: int, k: int) -> int:
    return math.lcm(*window(a, b, n, k))


def window_ratio(a: int, b: int, n: int, k: int) -> int:
    terms = window(a, b, n, k)
    return math.prod(terms) // math.lcm(*terms)


def valuation(p: int, x: int) -> int:
    s = 0
    while x % p == 0:
        x //= p
        s += 1
    return s
