"""Exact integer primitives: primes, lcm, valuations.

Everything here is pure and works on Python's native arbitrary-precision
integers; nothing ever goes through floating point. Primes come from
one shared sieve, or from Miller-Rabin above it: there is no second
source of primes, and no factoring engine. lcm(1..k) is a plain int:
lcm_upto multiplies out its prime-power blocks, independently of the
checkpoint cache that _cached_lcm_upto keeps for the period. The
subset-gcd lcm, lcm_by_inclusion_exclusion, uses math.gcd alone.
"""

from __future__ import annotations

import heapq
import math
import operator
from bisect import bisect_left, bisect_right
from itertools import compress

from .errors import BudgetExceededError, SelfCheckError, _brief

__all__ = [
    "MILLER_RABIN_BOUND",
    "integer_log",
    "is_prime",
    "lcm_by_inclusion_exclusion",
    "lcm_many",
    "lcm_upto",
    "primes_upto",
    "require_prime",
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


MAX_INCLUSION_EXCLUSION_LEN = 20


def lcm_by_inclusion_exclusion(xs) -> int:
    """lcm via the alternating product of gcds over all subsets:

        lcm(x_1..x_n) = prod over nonempty subsets S of
                        gcd(S) ** (+1 if |S| odd else -1)

    The subsets are grouped by their last entry. Those ending in x_i
    contribute x_i / lcm(gcd(x_1, x_i), ..., gcd(x_{i-1}, x_i)), and that
    inner lcm is the same identity over fewer entries, so the product is
    taken by recursion as one exact division per entry: no signed tally
    and no factoring, and every inner lcm divides its entry. A remainder
    is a bug and raises SelfCheckError. Only math.gcd is used, so the
    identity stays independent of math.lcm. The cap of 20 stays: x_i =
    P / p_i, P the product of the first n primes, gives every subset its
    own gcd, and the recursion still visits all 2**n - 1 of them.
    """
    xs = list(xs)
    n = len(xs)
    if n < 1:
        raise ValueError("need at least one entry")
    if n > MAX_INCLUSION_EXCLUSION_LEN:
        raise BudgetExceededError(
            f"{n} entries means 2**{n} subsets; the cap is "
            f"{MAX_INCLUSION_EXCLUSION_LEN}"
        )
    if min(xs) < 1:
        raise ValueError("entries must be positive")
    return _lcm_by_last_entry(xs)


def _lcm_by_last_entry(xs) -> int:
    """lcm_by_inclusion_exclusion without validation: positive entries,
    any iterable."""
    lcm, before = 1, []
    for x in xs:
        # gcds equal to 1 and repeated gcds leave the inner lcm unchanged.
        gcds = {math.gcd(y, x) for y in before}
        gcds.discard(1)
        before.append(x)
        if gcds:
            quotient, rest = divmod(x, _lcm_by_last_entry(gcds))
            if rest:
                raise SelfCheckError(
                    "the lcm of an entry's gcds with the entries before it "
                    f"does not divide the entry {_brief(x)}"
                )
            x = quotient
        lcm *= x
    return lcm


# The first 13 primes. Miller-Rabin to these bases is exact for every
# n < MILLER_RABIN_BOUND (Sorenson and Webster, "Strong pseudoprimes to
# twelve prime bases", Math. Comp. 86 (2017)).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981


def _strong_probable_prime(n: int, base: int) -> bool:
    """Miller-Rabin round: is odd n > base a strong probable prime?"""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(base, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(n: int) -> bool:
    """Deterministic primality test.

    Answered by bisection in the shared sieve's primes when it covers n,
    and by Miller-Rabin to the first 13 prime bases below
    MILLER_RABIN_BOUND (where that is exact). A larger n with no prime
    factor up to 41 raises ValueError: no bounded test here is exact for it.
    """
    limit, primes, _, _ = _sieve
    if n <= limit:
        i = bisect_left(primes, n)
        return i < len(primes) and primes[i] == n
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality of n >= {MILLER_RABIN_BOUND} is not decided")
    return all(_strong_probable_prime(n, base) for base in _MR_BASES)


def require_prime(p: int) -> None:
    """Refuse p unless it is a prime below MILLER_RABIN_BOUND.

    The bound is checked first, so a large p gets this message and no
    primality test runs.
    """
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"p must be below {MILLER_RABIN_BOUND}, where primality is "
            "decided in bounded time"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


# The shared sieve: one immutable tuple (limit, primes, higher, roots),
# swapped in whole, so a reader that sees a limit also sees all that
# covers it. primes lists the primes <= limit, ascending; higher lists
# the prime powers p**j <= limit with j >= 2, ascending, and roots their
# primes. primes and higher are the ladder of lcm(1..k), which gains the
# factor p exactly at k = p**j.
_sieve: tuple = (1, (), (), ())


def _sieve_upto(k: int) -> tuple:
    """A sieve snapshot whose limit is at least k, grown if need be."""
    global _sieve
    sieve = _sieve
    if k <= sieve[0]:
        return sieve
    limit = max(k, 2 * sieve[0], 1024)
    flags = bytearray([1]) * (limit + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            start = p * p
            flags[start : limit + 1 : p] = bytes((limit - start) // p + 1)
    primes = tuple(compress(range(limit + 1), flags))
    root = bisect_right(primes, math.isqrt(limit))
    higher = sorted(
        (p**j, p) for p in primes[:root] for j in range(2, integer_log(p, limit) + 1)
    )
    _sieve = sieve = (limit, primes, *zip(*higher))
    return sieve


def primes_upto(k: int) -> list[int]:
    """Ascending list of all primes <= k (empty for k < 2)."""
    if k < 2:
        return []
    primes = _sieve_upto(k)[1]
    return list(primes[: bisect_right(primes, k)])


def _gained(sieve: tuple, lo: int, hi: int) -> tuple:
    """The factors lcm(1..hi) has beyond lcm(1..lo), lo <= hi <= the
    sieve's limit: the ladder's primes for the prime powers in (lo, hi]."""
    _, primes, higher, roots = sieve
    return (
        primes[bisect_right(primes, lo) : bisect_right(primes, hi)]
        + roots[bisect_right(higher, lo) : bisect_right(higher, hi)]
    )


def _ladder(k: int):
    """The ladder (q, p) of a sieve reaching k, ascending in q: each prime
    power q = p**j, where lcm(1..q) gains the factor p. Covers every
    q <= k; it is empty for k <= 1."""
    _, primes, higher, roots = _sieve_upto(k)
    return heapq.merge(zip(primes, primes), zip(higher, roots))


# Checkpoints of lcm(1..m), keyed by m, one every 64 (m = k >> 6 << 6), so
# lcm(1..k) is its checkpoint times the few factors gained after m. A
# missing one is built from the nearer kept neighbour: the one below times
# the factors gained in between, or the one above divided by them. Their
# bit lengths total at most 8 * _CHECKPOINT_BYTES, the oldest going first
# past that, and the dict is copied on write and swapped in whole, like
# the sieve. numtheory.lcm_upto does not use them: it stays the
# independent computation.
_CHECKPOINT_BYTES = 1 << 24
_checkpoints: dict[int, int] = {}


def _cached_lcm_upto(k: int) -> int:
    """lcm(1..k) as a cached checkpoint times the factors gained after it.

    A missing checkpoint is built from the nearer kept neighbour; one
    above is divided from only if this call's sieve reaches it (another
    thread may have kept one past it), and a remainder raises
    SelfCheckError.
    """
    global _checkpoints
    sieve = _sieve_upto(k)
    checkpoints = _checkpoints
    m = k >> 6 << 6
    point = checkpoints.get(m)
    if point is None:
        below = max((b for b in checkpoints if b < m), default=0)
        above = min((b for b in checkpoints if m < b <= sieve[0]), default=None)
        if above is not None and above - m < m - below:
            point, rest = divmod(
                checkpoints[above], _product_tree(_gained(sieve, m, above))
            )
            if rest:
                raise SelfCheckError(
                    f"checkpoint lcm(1..{above}) is not a multiple of the "
                    f"factors gained after {m}"
                )
        else:
            point = checkpoints.get(below, 1) * _product_tree(_gained(sieve, below, m))
        kept = {**checkpoints, m: point}
        total = sum(map(int.bit_length, kept.values()))
        while total > 8 * _CHECKPOINT_BYTES:
            total -= kept.pop(next(iter(kept))).bit_length()
        _checkpoints = kept
    # math.prod: the rest is a few small factors.
    return point * math.prod(_gained(sieve, m, k))


def _product_tree(xs, op=operator.mul) -> int:
    """Product of xs by a balanced tree (1 for an empty input); their lcm
    with op=math.lcm.

    Joins neighbours pairwise until one value is left, so the big
    operations pair operands of similar size: sub-quadratic for thousands
    of large terms, where a left fold (math.prod, math.lcm) is quadratic
    in the bit length, and slower for a few dozen small terms.
    """
    xs = list(xs) or [1]
    while len(xs) > 1:
        odd = xs[-1:] if len(xs) % 2 else []
        xs = [*map(op, xs[::2], xs[1::2]), *odd]
    return xs[0]


def valuation(p: int, x: int) -> int:
    """Largest s such that p**s divides x.

    Requires p prime (see require_prime) and x >= 1 (the valuation of 0
    would be infinite).
    """
    require_prime(p)
    if x < 1:
        raise ValueError(f"valuation requires x >= 1, got {x}")
    return _valuation(p, x)


def _valuation(p: int, x: int) -> int:
    """valuation without validation (p prime, x >= 1)."""
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


def lcm_upto(k: int) -> int:
    """lcm(1, 2, ..., k); defined as 1 for k < 2.

    The balanced product of the blocks p**E, one for each prime p <= k
    with E the largest exponent such that p**E <= k, which is 1 for every
    p above isqrt(k). It never reads the checkpoint cache.
    """
    if k < 0:
        raise ValueError(f"lcm_upto requires k >= 0, got {k}")
    root = math.isqrt(k)
    return _product_tree(
        p if p > root else p ** integer_log(p, k) for p in primes_upto(k)
    )
