"""Subset-gcd lcm identities, divisibility checks, and period-accelerated
lcm evaluation with a persisted table of ratio values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, starmap
from pathlib import Path

from .errors import BudgetExceededError, SelfCheckError, require_budget
from .gfun import Progression, _ratio, _ratios, _terms
from .numtheory import factorize
from .period import DEFAULT_BUDGET, smallest_period

__all__ = [
    "GcdTransferReport",
    "LcmBoundsReport",
    "PeriodTable",
    "build_period_table",
    "check_gcd_transfer",
    "check_lcm_bounds",
    "check_ratio_recursion",
    "fast_lcm",
    "lcm_by_inclusion_exclusion",
    "load_period_table",
    "save_period_table",
]

MAX_INCLUSION_EXCLUSION_LEN = 20


def lcm_by_inclusion_exclusion(xs) -> int:
    """lcm via the alternating product of gcds over all subsets:

        lcm(x_1..x_n) = prod over nonempty subsets S of
                        gcd(S) ** (+1 if |S| odd else -1)

    The singletons give prod(x_i). Subsets are tallied by gcd, not walked
    one by one: entry x adds {x} with sign +1 and, for each gcd g tallied
    before it, the subsets S + {x} at gcd(g, x) with the opposite sign.
    Each distinct gcd is then factorized once into signed exponents per
    prime; the alternating product as literal rationals would blow up
    long before n = 20. The cap of 20 stays: x_i = P / p_i, P the product
    of the first n primes, gives each of the 2**n - 1 subsets its own gcd.
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

    signed_count: dict[int, int] = {}
    for x in xs:
        for g, c in list(signed_count.items()):
            h = math.gcd(g, x)
            # A subset with gcd 1 adds nothing, and neither do its supersets.
            if h > 1:
                signed_count[h] = signed_count.get(h, 0) - c
        signed_count[x] = signed_count.get(x, 0) + 1

    exponents: dict[int, int] = {}
    for value, count in signed_count.items():
        if count == 0 or value == 1:
            continue
        for p, e in factorize(value).items():
            exponents[p] = exponents.get(p, 0) + count * e

    if any(e < 0 for e in exponents.values()):
        raise SelfCheckError(f"negative exponent in lcm identity for {xs}")
    return math.prod(p**e for p, e in exponents.items())


@dataclass(frozen=True)
class GcdTransferReport:
    """Outcome of the order-t gcd-transfer check on two tuples.

    If all gcds of t entries agree between the tuples, the quantity
    (product / lcm) * prod over subsets of size 2..t-1 of
    gcd(subset) ** (+1 if odd size else -1) must agree too. When the
    hypothesis fails the conclusion is not asserted (conclusion_held is
    None); a failed hypothesis is a legitimate outcome, not an error.
    """

    t: int
    hypothesis_held: bool
    conclusion_held: bool | None
    invariant_a: Fraction | None
    invariant_b: Fraction | None


def _adjusted_ratio(xs: list[int], t: int) -> Fraction:
    # Odd-size subset gcds multiply the numerator, even-size ones the
    # denominator; the fraction is reduced once at the end.
    num, den = math.prod(xs), math.lcm(*xs)
    for r in range(2, t):
        g = math.prod(starmap(math.gcd, combinations(xs, r)))
        if r % 2 == 1:
            num *= g
        else:
            den *= g
    return Fraction(num, den)


def check_gcd_transfer(xs_a, xs_b, t: int) -> GcdTransferReport:
    xs_a, xs_b = list(xs_a), list(xs_b)
    if len(xs_a) != len(xs_b):
        raise ValueError("tuples must have equal length")
    n = len(xs_a)
    if t < 2:
        raise ValueError(f"order t must be >= 2, got {t}")
    if n < t:
        raise ValueError(f"need at least t={t} entries, got {n}")
    if min(xs_a + xs_b) < 1:
        raise ValueError("entries must be positive")

    hypothesis = list(starmap(math.gcd, combinations(xs_a, t))) == list(
        starmap(math.gcd, combinations(xs_b, t))
    )
    if not hypothesis:
        return GcdTransferReport(t, False, None, None, None)
    inv_a = _adjusted_ratio(xs_a, t)
    inv_b = _adjusted_ratio(xs_b, t)
    return GcdTransferReport(t, True, inv_a == inv_b, inv_a, inv_b)


@dataclass(frozen=True)
class LcmBoundsReport:
    """Divisibility bounds for lcm(n, n+1, ..., n+k):
    n*C(n+k, k) divides it, and it divides n*C(n+k, k)*lcm of the k-th
    binomial row.
    """

    n: int
    k: int
    lcm: int
    lower: int
    upper: int
    lower_divides: bool
    divides_upper: bool

    @property
    def holds(self) -> bool:
        return self.lower_divides and self.divides_upper


def check_lcm_bounds(n: int, k: int) -> LcmBoundsReport:
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    lcm = math.lcm(*range(n, n + k + 1))
    lower = n * math.comb(n + k, k)
    upper = lower * math.lcm(*(math.comb(k, j) for j in range(k + 1)))
    return LcmBoundsReport(
        n=n,
        k=k,
        lcm=lcm,
        lower=lower,
        upper=upper,
        lower_divides=lcm % lower == 0,
        divides_upper=upper % lcm == 0,
    )


def check_ratio_recursion(k: int, n: int) -> bool:
    """For consecutive integers (a=1, b=0):
    ratio_k(n) == gcd(k!, (n + k) * ratio_{k-1}(n)).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    current = _ratio(1, 0, n, k)
    previous = _ratio(1, 0, n, k - 1)
    return current == math.gcd(math.factorial(k), (n + k) * previous)


@dataclass(frozen=True)
class PeriodTable:
    """Ratio values over one full period.

    values[i] holds the ratio at the representative start index i for
    i >= 1; index 0 holds the value at n = period (the ratio is not
    defined at 0, and periodicity makes n = period the right stand-in
    for residue 0).
    """

    prog: Progression
    k: int
    period: int
    values: tuple[int, ...]

    def __post_init__(self):
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        if len(self.values) != self.period:
            raise ValueError(
                f"expected {self.period} values, got {len(self.values)}"
            )
        if min(self.values) < 1:
            raise ValueError(f"table entries must be >= 1, got {min(self.values)}")


def build_period_table(
    prog: Progression, k: int, budget: int = DEFAULT_BUDGET
) -> PeriodTable:
    period = smallest_period(prog, k).value
    what = f"the table of a period of {period.bit_length()} bits for k={k}"
    require_budget(period * (k + 1), budget, what)
    values = _ratios(prog.a, prog.b, k, 1, period)
    # n = period stands in for residue 0 (n = 0 would give a zero term).
    return PeriodTable(prog, k, period, (values[-1], *values[:-1]))


def fast_lcm(table: PeriodTable, n: int) -> int:
    """lcm of the window starting at n: one big product and one exact
    division by the tabulated ratio at n's residue.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    product = math.prod(_terms(table.prog.a, table.prog.b, n, table.k))
    quotient, remainder = divmod(product, table.values[n % table.period])
    if remainder:
        raise SelfCheckError(
            f"inexact division at n={n} for (a={table.prog.a}, "
            f"b={table.prog.b}), k={table.k}: the table does not match "
            "the window, which means the period is wrong"
        )
    return quotient


_HEADER_RE = re.compile(
    r"^aplcm-table v1 a=(\d+) b=(\d+) k=(\d+) period=(\d+)$"
)


def save_period_table(table: PeriodTable, path) -> None:
    """Write the versioned flat-file form: a header line, then one
    decimal ratio value per line, index 0 first.
    """
    lines = [
        f"aplcm-table v1 a={table.prog.a} b={table.prog.b} "
        f"k={table.k} period={table.period}"
    ]
    lines.extend(str(v) for v in table.values)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_period_table(path) -> PeriodTable:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty table file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    a, b, k, period = (int(g) for g in m.groups())
    # PeriodTable owns the checks on the period, the count and the entries.
    try:
        values = tuple(int(line) for line in lines[1:])
        return PeriodTable(Progression(a, b), k, period, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
