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

from .numtheory import integer_log, is_prime

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
    the coprime pair (a_reduced, b_reduced) = (a/d, b/d).
    """

    a: int
    b: int

    def __post_init__(self):
        if self.a < 1:
            raise ValueError(f"difference a must be >= 1, got {self.a}")
        if self.b < 0:
            raise ValueError(f"offset b must be >= 0, got {self.b}")

    @property
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

    def term(self, m: int) -> int:
        return self.b + m * self.a


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


def window_terms(prog: Progression, w: Window) -> list[int]:
    """The k + 1 window terms, strictly increasing, all >= 1."""
    return [prog.b + (w.n + i) * prog.a for i in range(w.k + 1)]


def window_ratio(prog: Progression, w: Window) -> int:
    """Product of the window terms divided by their lcm (exact integer).

    Computed straight from the definition even for non-reduced
    progressions, so scaling identities stay genuine cross-checks.
    """
    terms = window_terms(prog, w)
    return math.prod(terms) // math.lcm(*terms)


def _require_reduced(prog: Progression) -> None:
    if not prog.is_reduced:
        raise ValueError(
            f"progression ({prog.a}, {prog.b}) has gcd {prog.d} > 1; "
            "pass the reduced progression"
        )


def count_multiples(p: int, e: int, prog: Progression, w: Window) -> int:
    """Number of window terms divisible by p**e, in O(1).

    A term b + (n+i)*a is divisible by p**e iff
    i = -b * a^(-1) - n (mod p**e) (the inverse exists since p does not
    divide a), so the count is the number of such lattice points in
    [0, k]. Returns 0 when p divides a: a reduced progression then has
    no term divisible by p at all.
    """
    _require_reduced(prog)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent e must be >= 1, got {e}")
    if prog.a % p == 0:
        return 0
    pe = p**e
    a_inv = pow(prog.a, -1, pe)
    r = (-prog.b * a_inv - w.n) % pe
    if r > w.k:
        return 0
    return (w.k - r) // pe + 1


def count_multiples_naive(p: int, e: int, prog: Progression, w: Window) -> int:
    """Same count by scanning every term; the oracle for count_multiples."""
    _require_reduced(prog)
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent e must be >= 1, got {e}")
    pe = p**e
    return sum(1 for t in window_terms(prog, w) if t % pe == 0)


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
    if w.k < 1 or prog.a % p == 0 or p > w.k:
        return 0
    total = 0
    for e in range(1, integer_log(p, w.k) + 1):
        total += max(0, count_multiples(p, e, prog, w) - 1)
    return total
