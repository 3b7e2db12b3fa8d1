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
import operator
from dataclasses import dataclass
from functools import cached_property

from .numtheory import require_prime

__all__ = [
    "Progression",
    "Window",
    "count_multiples",
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


# Bytes that one _ratio_scan call may keep in its suffix lists.
_SCAN_BYTES = 1 << 24


def _ratios(a: int, b: int, k: int, n_lo: int, count: int) -> list[int]:
    """_ratio at n_lo, ..., n_lo + count - 1, unvalidated.

    Ranges run _ratio_scan over chunks of whole blocks whose suffix
    lists fit in about _SCAN_BYTES, so a chunk holds at most twice that.
    A block too big for it, or a range too short to repay the scan's
    set-up (about as dear as sixteen windows for k <= 12), goes window
    by window, which holds only one window's terms at a time.
    """
    w = k + 1
    bits = (b + (n_lo + count + k) * a).bit_length()
    # A block's suffix lcms and products: 2w ints of up to w * bits bits.
    blocks = _SCAN_BYTES // (w * (w * bits // 8 + 80))
    if count < 16 or not blocks:
        return [_ratio(a, b, n, k) for n in range(n_lo, n_lo + count)]
    step = blocks * w
    out = []
    for lo in range(n_lo, n_lo + count, step):
        out += _ratio_scan(a, b, k, lo, min(step, n_lo + count - lo))
    return out


def _ratio_scan(a: int, b: int, k: int, n_lo: int, count: int) -> list[int]:
    """_ratios in one pass, holding every block's suffix lists at once.

    The van Herk / Gil-Werman sliding window: cut the count + k terms
    into blocks of w = k + 1. The window at offset r of block j is the
    suffix of block j from r joined with the prefix of block j + 1 that
    stops before r, so after one suffix scan and one prefix scan per
    block each window costs one lcm and one product of two parts.
    Column r = terms[r::w] holds term r of every block; each scan step
    maps over all blocks at once.
    """
    w = k + 1
    first = b + n_lo * a
    terms = range(first, first + (count + k) * a, a)
    cols = [terms[r::w] for r in range(w)]
    # The lcm (product) of terms r..k of every block, built from r = k
    # down and popped from r = 0 up, so each list is freed once used.
    suf_lcm, suf_prod = [cols[k]], [cols[k]]
    for col in reversed(cols[:k]):
        suf_lcm.append(list(map(math.lcm, col, suf_lcm[-1])))
        suf_prod.append(list(map(operator.mul, col, suf_prod[-1])))
    out = [0] * count
    # Offset 0 is a whole block; an offset r > 0 window also needs the
    # prefix of the next block, terms 0..r-1, kept in pre_lcm/pre_prod.
    # map stops at its shortest input, which for these column lengths
    # is exactly the length of out[r::w].
    out[0::w] = map(operator.floordiv, suf_prod.pop(), suf_lcm.pop())
    pre_lcm = pre_prod = cols[0][1:]
    for r in range(1, w):
        out[r::w] = map(
            operator.floordiv,
            map(operator.mul, suf_prod.pop(), pre_prod),
            map(math.lcm, suf_lcm.pop(), pre_lcm),
        )
        if r < k:
            pre_lcm = list(map(math.lcm, pre_lcm, cols[r][1:]))
            pre_prod = list(map(operator.mul, pre_prod, cols[r][1:]))
    return out


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
    """The one check that a progression is reduced, for every caller."""
    if prog.d != 1:
        raise ValueError(
            f"progression ({prog.a}, {prog.b}) is not reduced: it has gcd "
            f"{prog.d}, and gcd(a, b) = 1 is required"
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


def _count_multiples(pe: int, a: int, b: int, n: int, k: int) -> int:
    """count_multiples without validation; pe = p**e, a and b coprime."""
    if math.gcd(a, pe) != 1:
        return 0
    r = _first_multiple(pe, a, b, n)
    return (k - r) // pe + 1 if r <= k else 0


def _count_multiples_naive(pe: int, a: int, b: int, n: int, k: int) -> int:
    """count_multiples by scanning every term; its oracle, unvalidated."""
    return sum(1 for t in _terms(a, b, n, k) if t % pe == 0)


def count_multiples(p: int, e: int, prog: Progression, w: Window) -> int:
    """Number of window terms divisible by p**e, in O(1).

    A term b + (n+i)*a is divisible by p**e iff
    i = -b * a^(-1) - n (mod p**e) (the inverse exists since p does not
    divide a), so the count is the number of such lattice points in
    [0, k]. Returns 0 when p divides a: a reduced progression then has
    no term divisible by p at all.
    """
    _require_reduced(prog)
    require_prime(p)
    if e < 1:
        raise ValueError(f"exponent e must be >= 1, got {e}")
    return _count_multiples(p**e, prog.a, prog.b, w.n, w.k)


def ratio_valuation_by_counting(p: int, prog: Progression, w: Window) -> int:
    """Valuation of window_ratio at p via multiple-counting; never builds
    the big product.

    For each e up to the largest exponent with p**e <= k, every multiple
    of p**e in the window beyond the first contributes one factor p to
    the ratio; higher e contribute nothing since at most one term is
    divisible by p**e once p**e > k.
    """
    _require_reduced(prog)
    require_prime(p)
    return _counted_valuation(p, prog.a, prog.b, w.n, w.k)
