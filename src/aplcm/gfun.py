"""Windows of consecutive arithmetic-progression terms and their
product-to-lcm ratio.

For a progression with difference ``a`` and offset ``b``, a window of
``k + 1`` consecutive terms starting at index ``n`` is

    b + n*a, b + (n+1)*a, ..., b + (n+k)*a

and ``window_ratio`` is their product divided by their lcm, always an
exact positive integer. Over a run of consecutive start indices it
comes from _ratios, which carries each part of a window as its lcm and
its ratio, never its product, and joins two parts with one gcd of
their lcms. The ratio's valuation at a prime is computed two
independent ways: directly, and by counting multiples of prime powers
inside the window. The count is per window (_counted_valuation) or, for
a run of consecutive start indices, per range (_counted_valuations),
which takes one modular inverse per prime power for the whole run.
Both are private and unvalidated; their callers check the progression
and the prime first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import floordiv, mul

__all__ = [
    "Progression",
    "Window",
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
    # A block's suffix lists: w lcms of up to w * bits bits, w * bits / 2
    # on average, and w small ratios, with about 80 bytes of objects
    # and pointers per entry.
    blocks = _SCAN_BYTES // (w * (w * bits // 16 + 80))
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
    stops before r. Each part carries its lcm L and its ratio R =
    product / L, never its product, and lcm(x, y) * gcd(x, y) = x * y
    gives both steps:
    - a term t joins a part as g = gcd(t, L), L' = (t // g) * L and
      R' = R * g;
    - two parts join as R = R_S * R_P * gcd(L_S, L_P).
    So a join costs one gcd and two small products, and no product of
    window terms or division of one big number by another is ever
    formed. Column r = terms[r::w] holds term r of every block; each
    scan step maps over all blocks at once.
    """
    w = k + 1
    first = b + n_lo * a
    terms = range(first, first + (count + k) * a, a)
    cols = [terms[r::w] for r in range(w)]
    # A single term has ratio 1. Every list below is as long as cols[k]
    # or longer, and map stops at its shortest input, which for these
    # column lengths is exactly the length of out[r::w].
    ones = [1] * len(cols[k])
    # Terms r..k of every block, built from r = k down and popped from
    # r = 0 up, so each list is freed once used.
    suf_lcm, suf_ratio = [cols[k]], [ones]
    for col in reversed(cols[:k]):
        lcm, ratio = _join_terms(col, suf_lcm[-1], suf_ratio[-1])
        suf_lcm.append(lcm)
        suf_ratio.append(ratio)
    out = [0] * count
    # Offset 0 is a whole block; an offset r > 0 window also needs the
    # prefix of the next block, terms 0..r-1, kept in pre_lcm/pre_ratio.
    suf_lcm.pop()
    out[0::w] = suf_ratio.pop()
    pre_lcm, pre_ratio = cols[0][1:], ones
    for r in range(1, w):
        out[r::w] = map(
            mul,
            map(mul, suf_ratio.pop(), pre_ratio),
            map(math.gcd, suf_lcm.pop(), pre_lcm),
        )
        if r < k:
            pre_lcm, pre_ratio = _join_terms(cols[r][1:], pre_lcm, pre_ratio)
    return out


def _join_terms(col, lcm, ratio) -> tuple[list[int], list[int]]:
    """Each part (lcm[j], ratio[j]) with the term col[j] added: for
    g = gcd(t, L) the new part has lcm (t // g) * L and ratio R * g."""
    g = list(map(math.gcd, col, lcm))
    return list(map(mul, map(floordiv, col, g), lcm)), list(map(mul, ratio, g))


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
    for a coprime to pe: such a term has i = -b * a^(-1) - n (mod pe)."""
    return (-b * pow(a, -1, pe) - n) % pe


def _counted_valuation(p: int, a: int, b: int, n: int, k: int) -> int:
    """Valuation of the window ratio at p, unvalidated (a, b coprime, p
    prime): each multiple of p**e beyond the first adds one factor p.

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


def _counted_valuations(
    p: int, a: int, b: int, n_lo: int, count: int, k: int
) -> list[int]:
    """_counted_valuation at n_lo, ..., n_lo + count - 1, unvalidated.

    One inverse per p**e serves the whole range: the first multiple of
    p**e in the window at n_lo + i sits at offset (r - i) mod p**e, r
    that offset at n_lo, so each count is one small-integer expression
    per index. Every index is computed, none copied from an earlier
    period, so the period searches still test periodicity.
    """
    if a % p == 0:
        return [0] * count
    offsets = range(count)
    total = [0] * count
    pe = p
    while pe <= k:
        r = _first_multiple(pe, a, b, n_lo)
        total = [t + (k - (r - i) % pe) // pe for t, i in zip(total, offsets)]
        pe *= p
    return total
