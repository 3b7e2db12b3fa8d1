"""Exact integer primitives: primes, lcm, valuations, factored integers.

Everything here is pure and works on Python's native arbitrary-precision
integers; nothing ever goes through floating point.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field

__all__ = [
    "FactoredInteger",
    "factorize",
    "integer_log",
    "is_prime",
    "lcm_many",
    "lcm_upto",
    "primes_upto",
    "valuation",
]


def lcm_many(xs) -> int:
    """Least common multiple of a non-empty sequence of positive integers.

    math.lcm with the input checks it lacks. The package calls math.lcm
    directly; this stays public because bench/workloads.py times it.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("lcm of an empty sequence")
    if min(xs) < 1:
        raise ValueError(f"lcm requires positive entries, got {min(xs)}")
    return math.lcm(*xs)


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Answered from the shared sieve when it already covers n, by trial
    division (intended for small n) otherwise.
    """
    if n <= _prime_cache_limit:
        primes = _prime_cache
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Growing shared sieve; the immutable tuple is swapped in before the limit,
# so concurrent readers that see a limit also see a sieve covering it.
_prime_cache: tuple[int, ...] = ()
_prime_cache_limit = 1


def _grow_prime_cache(limit: int) -> None:
    global _prime_cache, _prime_cache_limit
    limit = max(limit, 2 * _prime_cache_limit, 1024)
    sieve = bytearray([1]) * (limit + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : limit + 1 : p] = bytes((limit - start) // p + 1)
    _prime_cache = tuple(i for i, flag in enumerate(sieve) if flag)
    _prime_cache_limit = limit


def primes_upto(k: int) -> list[int]:
    """Ascending list of all primes <= k (empty for k < 2)."""
    if k < 2:
        return []
    if k > _prime_cache_limit:
        _grow_prime_cache(k)
    return list(_prime_cache[: bisect_right(_prime_cache, k)])


def valuation(p: int, x: int) -> int:
    """Largest s such that p**s divides x.

    Requires p prime and x >= 1 (the valuation of 0 would be infinite).
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if x < 1:
        raise ValueError(f"valuation requires x >= 1, got {x}")
    s = 0
    while x % p == 0:
        x //= p
        s += 1
    return s


def integer_log(base: int, n: int) -> int:
    """Largest e with base**e <= n, by exact integer comparison.

    Never computed via floating-point logs: boundaries like base**e == n
    must come out exact.
    """
    if base < 2:
        raise ValueError(f"integer_log requires base >= 2, got {base}")
    if n < 1:
        raise ValueError(f"integer_log requires n >= 1, got {n}")
    e = 0
    power = base
    while power <= n:
        e += 1
        power *= base
    return e


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: exponent} by trial division.

    Meant for the small integers this package manipulates (window terms,
    subset gcds); not a general-purpose factoring engine.
    """
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    factors: dict[int, int] = {}
    for p in (2, 3):
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    f = 5
    while f * f <= n:
        for p in (f, f + 2):
            while n % p == 0:
                factors[p] = factors.get(p, 0) + 1
                n //= p
        f += 6
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


@dataclass(frozen=True)
class FactoredInteger:
    """A positive integer kept as its prime factorization.

    The factorization is the source of truth; ``value`` is recomputed on
    construction. Keys are ascending primes with exponents >= 1 (zero
    exponents are dropped, negatives rejected).
    """

    factors: dict[int, int]
    value: int = field(init=False)

    def __post_init__(self):
        canonical: dict[int, int] = {}
        for p in sorted(self.factors):
            e = self.factors[p]
            if e < 0:
                raise ValueError(f"negative exponent {e} for prime {p}")
            if e == 0:
                continue
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            canonical[p] = e
        object.__setattr__(self, "factors", canonical)
        object.__setattr__(
            self, "value", math.prod(p**e for p, e in canonical.items())
        )

    def divisors(self) -> list[int]:
        """All positive divisors of the value, ascending."""
        divs = [1]
        for p, e in self.factors.items():
            divs = [d * p**i for d in divs for i in range(e + 1)]
        return sorted(divs)

    def __str__(self) -> str:
        if not self.factors:
            return "1"
        return " * ".join(
            str(p) if e == 1 else f"{p}^{e}" for p, e in self.factors.items()
        )


def lcm_upto(k: int) -> FactoredInteger:
    """lcm(1, 2, ..., k) in factored form; defined as 1 for k < 2.

    The exponent of each prime p <= k is the largest e with p**e <= k.
    """
    if k < 0:
        raise ValueError(f"lcm_upto requires k >= 0, got {k}")
    return FactoredInteger({p: integer_log(p, k) for p in primes_upto(k)})
