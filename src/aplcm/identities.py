"""The subset-gcd lcm identity, and period-accelerated lcm evaluation
with a persisted table of ratio values. The divisibility and
gcd-transfer identities are checked by the verify suites, not offered
here.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path

from .errors import BudgetExceededError, SelfCheckError, _brief, require_budget
from .gfun import Progression, _ratios, _terms
from .period import DEFAULT_BUDGET, smallest_period

__all__ = [
    "PeriodTable",
    "build_period_table",
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
            f"inexact division at n={_brief(n)} for (a={_brief(table.prog.a)}, "
            f"b={_brief(table.prog.b)}), k={_brief(table.k)}: the table does not match "
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
    lines.extend([str(v) for v in table.values])
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_period_table(path) -> PeriodTable:
    text = Path(path).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty table file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ValueError(f"{path}: malformed header {lines[0]!r}")
    a, b, k, period = map(int, m.groups())
    # PeriodTable owns the checks on the period, the count and the entries.
    try:
        values = tuple(map(int, lines[1:]))
        return PeriodTable(Progression(a, b), k, period, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
