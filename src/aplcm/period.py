"""Smallest period of the window ratio: closed form, brute-force oracles,
and the lcm evaluation it buys.

The ratio n -> window_ratio(prog, Window(n, k)) is periodic, and
lcm(1..k) is always a period: shifting the start index by lcm(1..k)
leaves every pairwise gcd of window terms unchanged, hence the ratio
too. The smallest period is lcm(1..k) with whole prime blocks taken
out. With p**E the largest power of p not above k, the block p**E drops
out when p divides the reduced difference, or when p is the single
exceptional prime with p**E | k + 1; otherwise it is kept. Only the
primes up to the reduced difference and the prime divisors of k + 1 are
visited, and the period is lcm(1..k), from numtheory's shared
checkpoint cache, divided by the blocks that drop out. One sparse table,
_exponents, states that rule as a plain {p: e} dict: closed_form_period
and PeriodReport.exponents return it. fast_lcm divides a window's
product by the ratio at its residue in a PeriodTable of one period. The
brute-force searches below are oracles, independent of the rule and
the cache.
"""

from __future__ import annotations

import functools
import math
import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SelfCheckError, _brief, _over_budget, require_budget
from .gfun import (
    Progression,
    _counted_valuation,
    _counted_valuations,
    _first_multiple,
    _ratio,
    _ratios,
    _require_reduced,
    _terms,
)
from .numtheory import (
    _cached_lcm_upto,
    _ladder,
    _valuation,
    integer_log,
    lcm_upto,
    primes_upto,
    require_prime,
)

__all__ = [
    "DEFAULT_BUDGET",
    "PeriodReport",
    "PeriodTable",
    "build_period_table",
    "closed_form_period",
    "exceptional_factor",
    "fast_lcm",
    "load_period_table",
    "nonperiod_witness",
    "period_rows",
    "save_period_table",
    "smallest_period",
    "smallest_period_bruteforce",
    "valuation_period_bruteforce",
]

# Unit: the guard products computed below (roughly, elementary integer
# operations). 10^7 admits full-window brute force up to k = 10.
DEFAULT_BUDGET = 10_000_000


def exceptional_factor(k: int, a: int) -> tuple[int, int | None]:
    """The prime-power factor of lcm(1..k) absorbed by k + 1, if any.

    Returns (p**E, p) where E is the largest exponent with p**E <= k,
    for the prime p <= k not dividing a whose valuation in k + 1 reaches
    E; returns (1, None) when no prime qualifies. A qualifying prime has
    E >= 1 and so must divide k + 1. k + 1 is divided by the sieve's
    primes up to isqrt(k + 1), each at most k, until p**2 exceeds what
    is left; a leftover q > 1 is then a prime whose valuation in k + 1 is
    1, so it qualifies only if q <= k and q**2 > k (E = 1). At most one
    prime can qualify; two is a bug.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    qualifying = []
    rest = k + 1
    for p in primes_upto(math.isqrt(rest)):
        if p * p > rest:
            break
        if rest % p == 0:
            e = _valuation(p, rest)
            rest //= p**e
            if a % p != 0 and e >= integer_log(p, k):
                qualifying.append(p)
    if 1 < rest <= k < rest * rest and a % rest != 0:
        qualifying.append(rest)
    if not qualifying:
        return 1, None
    if len(qualifying) > 1:
        raise SelfCheckError(
            f"primes {qualifying} both qualify as exceptional for k={k}, "
            f"a={a}; exactly one is possible"
        )
    p = qualifying[0]
    return p ** integer_log(p, k), p


@dataclass(frozen=True)
class PeriodReport:
    """Closed-form smallest period with its provenance.

    removed_primes lists (q, E) for primes q dividing the reduced
    difference, q <= k. value is the period, left out of repr, whose
    int-to-str conversion could exceed the interpreter's digit limit.
    exponents, the period's exponents other than 1 (see _exponents), is
    derived on first access; p ** exponents.get(p, 1) is the period of
    the ratio's p-valuation for each prime p <= k.
    """

    k: int
    a_reduced: int
    exceptional: int
    exceptional_prime: int | None
    removed_primes: list[tuple[int, int]]
    value: int = field(repr=False)

    @functools.cached_property
    def exponents(self) -> dict[int, int]:
        return _exponents(self.k, self.exceptional_prime, self.removed_primes)


def _drops(k: int, ar: int) -> tuple[int, int | None, list[tuple[int, int]]]:
    """PeriodReport's exceptional, exceptional_prime and removed_primes
    for the reduced difference ar, whose primes are all <= min(k, ar)."""
    exc_value, exc_prime = exceptional_factor(k, ar)
    primes = primes_upto(min(k, ar))
    return exc_value, exc_prime, [(p, integer_log(p, k)) for p in primes if ar % p == 0]


def _exponents(k: int, exc_prime: int | None, removed: list) -> dict[int, int]:
    """The period's exponent at each prime p <= k where it is not 1.

    A kept prime p has the exponent E of lcm(1..k), which exceeds 1 only
    up to isqrt(k); a dropped prime, removed or exceptional, has 0.
    """
    exps = {p: integer_log(p, k) for p in primes_upto(math.isqrt(k))}
    exps.update((q, 0) for q, _ in removed)
    if exc_prime is not None:
        exps[exc_prime] = 0
    return exps


def smallest_period(prog: Progression, k: int) -> PeriodReport:
    """Smallest period of n -> window_ratio(prog, Window(n, k)).

    Equals the closed form for the reduced difference: scaling both a
    and b by their gcd scales the ratio by a constant power of d and so
    preserves the smallest period. Each prime p <= k lands in exactly
    one branch: removed (p divides the reduced difference), exceptional
    (decided by exceptional_factor), or kept with its full block p**E.
    Only the first two are visited: the period is lcm(1..k), taken from
    the shared checkpoint cache, divided by the exceptional factor and
    the removed blocks; a remainder is a bug and raises SelfCheckError.
    """
    ar = prog.a_reduced
    exc_value, _, removed = drops = _drops(k, ar)
    dropped = math.prod((q**e for q, e in removed), start=exc_value)
    value, rest = divmod(_cached_lcm_upto(k), dropped)
    if rest:
        raise SelfCheckError(
            f"lcm(1..{k}) is not a multiple of the exceptional factor "
            f"{exc_value} times the removed blocks {removed}"
        )
    return PeriodReport(k, ar, *drops, value=value)


def period_rows(
    prog: Progression, k_max: int
) -> Iterator[tuple[int, int, int, int]]:
    """(k, lcm(1..k), exceptional factor, smallest period) for k = 0..k_max.

    One pass over k instead of one smallest_period per k: lcm(1..k)
    gains a factor p exactly when k is a power of the prime p, so the
    pass walks the sieve's ladder of prime powers once, and the blocks of
    primes dividing the reduced difference grow with it. The period
    follows from smallest_period's identity, period times exceptional
    factor times removed blocks equals lcm(1..k), with the exceptional
    factor taken from exceptional_factor.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    ar = prog.a_reduced
    ladder = _ladder(k_max)
    # Past the ladder's end, or with none at all, the sentinel (0, 1)
    # matches only k = 0, where its factor 1 changes nothing.
    q, p = next(ladder, (0, 1))
    lcm = removed = 1
    for k in range(k_max + 1):
        if k == q:
            lcm *= p
            if ar % p == 0:
                removed *= p
            q, p = next(ladder, (0, 1))
        exceptional = exceptional_factor(k, ar)[0]
        yield k, lcm, exceptional, lcm // (exceptional * removed)


def closed_form_period(k: int, a: int) -> dict[int, int]:
    """Closed-form smallest period for a reduced difference a >= 1.

    The exponents of smallest_period(Progression(a, 1), k), the same
    sparse table, derived without lcm(1..k); bench/workloads.py times it.
    """
    return _exponents(k, *_drops(k, a)[1:])


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
                f"expected {_brief(self.period)} values, got {len(self.values)}"
            )
        if min(self.values) < 1:
            raise ValueError(
                f"table entries must be >= 1, got {_brief(min(self.values))}"
            )


def build_period_table(
    prog: Progression, k: int, budget: int = DEFAULT_BUDGET
) -> PeriodTable:
    period = smallest_period(prog, k).value
    _require_table_budget(period, k, budget)
    values = _ratios(prog.a, prog.b, k, 1, period)
    # n = period stands in for residue 0 (n = 0 would give a zero term).
    return PeriodTable(prog, k, period, (values[-1], *values[:-1]))


def _require_table_budget(period: int, k: int, budget: int) -> None:
    """The one admission rule of the period method, with or without a
    table: the table's period * (k + 1) window terms."""
    what = f"the table of a period of {period.bit_length()} bits for k={k}"
    require_budget(period * (k + 1), budget, what)


def fast_lcm(table: PeriodTable, n: int) -> int:
    """lcm of the window starting at n: one big product and one exact
    division by the tabulated ratio at n's residue.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return _divide_by_ratio(table.prog, table.k, n, table.values[n % table.period])


def _residue_lcm(prog: Progression, k: int, n: int, budget: int) -> int:
    """fast_lcm without a table, unvalidated: the ratio at n's residue r
    is computed at r itself (r = period for residue 0, as in
    PeriodTable.values[0]). Admitted exactly where the table would be.
    """
    period = smallest_period(prog, k).value
    _require_table_budget(period, k, budget)
    ratio = _ratio(prog.a, prog.b, n % period or period, k)
    return _divide_by_ratio(prog, k, n, ratio)


def _divide_by_ratio(prog: Progression, k: int, n: int, ratio: int) -> int:
    """The window product at n divided by the ratio taken for it; a
    remainder means the period is wrong and raises SelfCheckError."""
    product = math.prod(_terms(prog.a, prog.b, n, k))
    quotient, remainder = divmod(product, ratio)
    if remainder:
        raise SelfCheckError(
            f"inexact division at n={_brief(n)} for (a={_brief(prog.a)}, "
            f"b={_brief(prog.b)}), k={_brief(k)}: the ratio at n's residue "
            "does not match the window, which means the period is wrong"
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
    where = _brief(str(path))
    if not lines:
        raise ValueError(f"{where}: empty table file")
    m = _HEADER_RE.match(lines[0])
    if m is None:
        raise ValueError(f"{where}: malformed header {_brief(repr(lines[0]))}")
    a, b, k, period = map(int, m.groups())
    # PeriodTable owns the checks on the period, the count and the entries.
    try:
        values = tuple(map(int, lines[1:]))
        return PeriodTable(Progression(a, b), k, period, values)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def smallest_period_bruteforce(
    prog: Progression, k: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Smallest period by exhaustive search, independent of the closed form.

    Candidates are the divisors of L = lcm(1..k), ascending: L is a
    period, the gcd of two periods of a function on positive integers is
    again a period, so the smallest period divides L. Checking start
    indices 1..L covers every residue class, so the first surviving
    divisor is the smallest period. Each t is checked inside the ratios
    at 1..L first; only a t that passes there extends them to L + t for
    the rest, so the search computes L + t ratios, t its answer. Raises
    BudgetExceededError rather than ever truncating the check.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    what = f"full-period search for k={k}"
    if k >= 7:
        # lcm(1..k) >= 2^k from k = 7 on (Nair, 1982): a lower bound of
        # the work below, charged before the sieve and the product. Its
        # bit length alone refuses it when the budget has fewer bits, so
        # a huge k never builds the k-bit bound.
        bits = (k + 1).bit_length() + k
        if bits > budget.bit_length():
            raise _over_budget(bits, budget, what)
        require_budget((k + 1) << k, budget, what)
    factors = {p: integer_log(p, k) for p in primes_upto(k)}
    big_l = lcm_upto(k)
    work = big_l * (k + 1) * math.prod(e + 1 for e in factors.values())
    require_budget(work, budget, what)
    divisors = [1]
    for p, e in factors.items():
        divisors = [d * p**i for d in divisors for i in range(e + 1)]
    a, b = prog.a, prog.b
    ratios = _ratios(a, b, k, 1, big_l)
    # ratios[n - 1] is the ratio at n; t is a period iff the ratios at
    # n + t equal those at n for every n in 1..L: first for n <= L - t,
    # then for the rest, which reads the ratios past L.
    for t in sorted(divisors):
        if ratios[t:big_l] == ratios[: big_l - t]:
            # Candidates ascend, so this always adds at least one ratio.
            ratios += _ratios(a, b, k, len(ratios) + 1, big_l + t - len(ratios))
            if ratios[big_l : big_l + t] == ratios[big_l - t : big_l]:
                return t
    raise SelfCheckError(
        f"no divisor of lcm(1..{k}) is a period for (a={prog.a}, b={prog.b})"
    )


def valuation_period_bruteforce(
    p: int, prog: Progression, k: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Smallest period of n -> valuation of the ratio at p, by search.

    Requires a reduced progression. Candidates are the powers of p up to
    p**E with E the largest exponent such that p**E <= k: the count of
    multiples of p**e in a window is p**e-periodic in the start index,
    so p**E is a period of the valuation, and the smallest period of a
    function whose period is a prime power is a divisor, i.e. a smaller
    power of the same prime. The search counts each valuation at
    1..2*p**E from the definition, E steps per index, and compares at
    most E + 1 spans of p**E, so the budget is charged
    2 * p**E * (E + 1) before any of it.
    """
    _require_reduced(prog)
    require_prime(p)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    max_exp = integer_log(p, k) if k >= 1 else 0
    span = p**max_exp
    require_budget(
        2 * span * (max_exp + 1),
        budget,
        f"valuation-period search for p={p}, k={k}",
    )
    vals = _counted_valuations(p, prog.a, prog.b, 1, 2 * span, k)
    for e in range(max_exp + 1):
        t = p**e
        if vals[t : t + span] == vals[:span]:
            return t
    raise SelfCheckError(
        f"p**{max_exp} is not a period of the valuation at p={p} for "
        f"(a={prog.a}, b={prog.b}), k={k}"
    )


def nonperiod_witness(p: int, prog: Progression, k: int) -> int:
    """A start index n0 proving p**(E-1) is not a period of the
    p-valuation of the ratio, where E is the largest exponent with
    p**E <= k.

    Applies when the progression is reduced, p does not divide a,
    p <= k, require_prime(p) holds (a prime below the primality bound),
    and the valuation of k + 1 at p is below E. Construction:
    with l = (k + 1) mod p**E, place a multiple of p**E at the window
    start when 1 <= l <= p**E - p**(E-1), otherwise at offset
    p**(E-1) - 1; either way the window starting p**(E-1) later holds
    one fewer multiple of p**E, so the valuations differ. The multiple is
    placed by gfun._first_multiple. The returned witness is re-verified
    by scan, never trusted.
    """
    _require_reduced(prog)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # The O(1) checks come before primality, whose cost grows with p.
    if p > k:
        raise ValueError(f"{_brief(p)} exceeds k={_brief(k)}")
    if p >= 2 and prog.a % p == 0:
        raise ValueError(f"{_brief(p)} divides the difference a={_brief(prog.a)}")
    require_prime(p)
    max_exp = integer_log(p, k)
    if _valuation(p, k + 1) >= max_exp:
        raise ValueError(
            f"valuation of k+1={_brief(k + 1)} at p={p} reaches the maximal "
            f"exponent {max_exp}; the valuation period is 1 and no "
            "witness exists"
        )
    span = p**max_exp
    half = p ** (max_exp - 1)
    offset = 0 if 1 <= (k + 1) % span <= span - half else half - 1
    n0 = _first_multiple(span, prog.a, prog.b, offset) or span
    before = _counted_valuation(p, prog.a, prog.b, n0, k)
    after = _counted_valuation(p, prog.a, prog.b, n0 + half, k)
    if before == after:
        raise SelfCheckError(
            f"constructed witness n0={n0} fails for p={p}, "
            f"(a={prog.a}, b={prog.b}), k={k}"
        )
    return n0
