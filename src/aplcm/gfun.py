"""Windows of consecutive arithmetic-progression terms and their
product-to-lcm ratio.

For a progression with difference ``a`` and offset ``b``, a window of
``k + 1`` consecutive terms starting at index ``n`` is

    b + n*a, b + (n+1)*a, ..., b + (n+k)*a

and ``window_ratio`` is their product divided by their lcm, always an
exact positive integer. Its valuation at a prime is computed two
independent ways: directly, and by counting multiples of prime powers
inside the window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .numtheory import is_prime

__all__ = [
    "Progression",
    "Window",
    "count_multiples",
    "count_multiples_naive",
    "ratio_valuation_by_counting",
    "window_ratio",
    "window_terms",
]


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression b + m*a with a >= 1, b >= 0.

    Carries its gcd reduction: d = gcd(a, b) (so d = a when b = 0) and
    the coprime pair (a_reduced, b_reduced) = (a/d, b/d). d is computed
    once per instance and kept outside the fields, so equality, hashing
    and pickling see only (a, b).
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"difference a must be >= 1, got {self.a}")
        if self.b < 0:
            raise ValueError(f"offset b must be >= 0, got {self.b}")

    @cached_property
    def d(self) -> int:
        return math.gcd(self.a, self.b)

    @property
    def a_reduced(self) -> int:
        return self.a // self.d

    @property
    def b_reduced(self) -> int:
        return self.b // self.d

    @property
    def is_reduced(self) -> bool:
        return self.d == 1

    def reduced(self) -> "Progression":
        return Progression(self.a_reduced, self.b_reduced)


@dataclass(frozen=True)
class Window:
    """Start index n >= 1 and length parameter k >= 0 (k + 1 terms)."""

    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"start index n must be >= 1, got {self.n}")
        if self.k < 0:
            raise ValueError(f"window parameter k must be >= 0, got {self.k}")


def _terms(a: int, b: int, n: int, k: int) -> range:
    """The window terms b + n*a, ..., b + (n+k)*a, unvalidated."""
    first = b + n * a
    return range(first, first + (k + 1) * a, a)


def _ratio(a: int, b: int, n: int, k: int) -> int:
    """window_ratio without validation, for loops whose indices are valid
    by construction."""
    # _terms inlined: this runs once per window in the brute-force oracles.
    first = b + n * a
    terms = tuple(range(first, first + (k + 1) * a, a))
    return math.prod(terms) // math.lcm(*terms)


def window_terms(prog: Progression, w: Window) -> list[int]:
    """The k + 1 window terms, strictly increasing, all >= 1."""
    return list(_terms(prog.a, prog.b, w.n, w.k))


def window_ratio(prog: Progression, w: Window) -> int:
    """Product of the window terms divided by their lcm (exact integer).

    Computed straight from the definition even for non-reduced
    progressions, so scaling identities stay genuine cross-checks.
    """
    return _ratio(prog.a, prog.b, w.n, w.k)


def _require_reduced(prog: Progression) -> None:
    if prog.d != 1:
        raise ValueError(
            f"progression ({prog.a}, {prog.b}) has gcd {prog.d} > 1; "
            "pass the reduced progression"
        )


def _first_multiple(pe: int, a: int, b: int, n: int) -> int:
    """Offset in [0, pe) of the first term b + (n+i)*a divisible by pe,
    for a coprime to pe (see count_multiples)."""
    return (-b * pow(a, -1, pe) - n) % pe


def _counted_valuation(p: int, a: int, b: int, n: int, k: int) -> int:
    """ratio_valuation_by_counting without validation (a, b coprime, p
    prime).

    The multiples of p**e among the k + 1 terms start at offset r, so
    there are (k - r) // p**e of them beyond the first; r < p**e <= k.
    """
    if a % p == 0:
        return 0
    total = 0
    pe = p
    while pe <= k:
        total += (k - _first_multiple(pe, a, b, n)) // pe
        pe *= p
    return total


def _check_count_args(p: int, e: int, prog: Progression) -> None:
    _require_reduced(prog)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent e must be >= 1, got {e}")


def count_multiples(p: int, e: int, prog: Progression, w: Window) -> int:
    """Number of window terms divisible by p**e, in O(1).

    A term b + (n+i)*a is divisible by p**e iff
    i = -b * a^(-1) - n (mod p**e) (the inverse exists since p does not
    divide a), so the count is the number of such lattice points in
    [0, k]. Returns 0 when p divides a: a reduced progression then has
    no term divisible by p at all.
    """
    _check_count_args(p, e, prog)
    if prog.a % p == 0:
        return 0
    pe = p**e
    r = _first_multiple(pe, prog.a, prog.b, w.n)
    if r > w.k:
        return 0
    return (w.k - r) // pe + 1


def count_multiples_naive(p: int, e: int, prog: Progression, w: Window) -> int:
    """Same count by scanning every term; the oracle for count_multiples."""
    _check_count_args(p, e, prog)
    pe = p**e
    return sum(1 for t in _terms(prog.a, prog.b, w.n, w.k) if t % pe == 0)


def ratio_valuation_by_counting(p: int, prog: Progression, w: Window) -> int:
    """Valuation of window_ratio at p via multiple-counting; never builds
    the big product.

    For each e up to the largest exponent with p**e <= k, every multiple
    of p**e in the window beyond the first contributes one factor p to
    the ratio; higher e contribute nothing since at most one term is
    divisible by p**e once p**e > k.
    """
    _require_reduced(prog)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _counted_valuation(p, prog.a, prog.b, w.n, w.k)
