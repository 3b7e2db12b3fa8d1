"""Smallest period of the window ratio: closed form and brute-force oracles.

The ratio n -> window_ratio(prog, Window(n, k)) is periodic, and
lcm(1..k) is always a period: shifting the start index by lcm(1..k)
leaves every pairwise gcd of window terms unchanged, hence the ratio
too. The smallest period is lcm(1..k) with whole prime blocks taken
out. With p**E the largest power of p not above k, the block p**E drops
out when p divides the reduced difference, or when p is the single
exceptional prime with p**E | k + 1; otherwise it is kept. Only the
primes up to the reduced difference and the prime divisors of k + 1 are
visited, and the period is lcm(1..k), from numtheory's shared product
cache, divided by the blocks that drop out. The factorization over all
primes p <= k, and the per-prime periods, are derived on first access.
The brute-force searches below are independent of that pass and of the
cache, and serve as their oracles.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

from .errors import SelfCheckError, require_budget
from .gfun import (
    Progression,
    Window,
    _counted_valuation,
    _ratios,
    _require_reduced,
    ratio_valuation_by_counting,
)
from .numtheory import (
    FactoredInteger,
    _cached_lcm_upto,
    factorize,
    integer_log,
    lcm_upto,
    primes_upto,
    require_prime,
    valuation,
)

__all__ = [
    "DEFAULT_BUDGET",
    "PeriodReport",
    "closed_form_period",
    "exceptional_factor",
    "nonperiod_witness",
    "period_rows",
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
    E >= 1 and so must divide k + 1: only the prime divisors of k + 1
    need scanning. At most one prime can qualify; two is a bug.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    if a < 1:
        raise ValueError(f"a must be >= 1, got {a}")
    qualifying = []
    if k >= 1:
        for p, vp_k1 in factorize(k + 1).items():
            if p <= k and a % p != 0 and vp_k1 >= integer_log(p, k):
                qualifying.append(p)
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
    difference, q <= k. value is the period and lcm_upto is lcm(1..k);
    both are left out of repr, whose int-to-str conversion could exceed
    the interpreter's digit limit. closed_form factors the period over
    the primes p <= k, and per_prime maps each p to the period of the
    p-valuation of the ratio (1 where the prime drops out); both are
    derived from the fields on first access.
    """

    k: int
    a: int
    b: int
    a_reduced: int
    exceptional: int
    exceptional_prime: int | None
    removed_primes: list[tuple[int, int]]
    value: int = field(repr=False)
    lcm_upto: int = field(repr=False)

    @functools.cached_property
    def closed_form(self) -> FactoredInteger:
        return _kept_blocks(self.k, self.exceptional_prime, self.removed_primes)

    @functools.cached_property
    def per_prime(self) -> dict[int, int]:
        kept = self.closed_form.factors
        return {p: p ** kept.get(p, 0) for p in primes_upto(self.k)}


def _drops(k: int, ar: int) -> tuple[int, int | None, list[tuple[int, int]]]:
    """PeriodReport's exceptional, exceptional_prime and removed_primes
    for the reduced difference ar, whose primes are all <= min(k, ar)."""
    exc_value, exc_prime = exceptional_factor(k, ar)
    primes = primes_upto(min(k, ar))
    return exc_value, exc_prime, [(p, integer_log(p, k)) for p in primes if ar % p == 0]


def _kept_blocks(k: int, exc_prime: int | None, removed: list) -> FactoredInteger:
    """The blocks p**E of lcm(1..k) that are not dropped, as factors."""
    kept = dict.fromkeys(primes_upto(k), 1)
    for p in primes_upto(math.isqrt(k)):
        kept[p] = integer_log(p, k)
    for q, _ in removed:
        del kept[q]
    if exc_prime is not None:
        del kept[exc_prime]
    return FactoredInteger._from_sieve(kept)


def smallest_period(prog: Progression, k: int) -> PeriodReport:
    """Smallest period of n -> window_ratio(prog, Window(n, k)).

    Equals the closed form for the reduced difference: scaling both a
    and b by their gcd scales the ratio by a constant power of d and so
    preserves the smallest period. Each prime p <= k lands in exactly
    one branch: removed (p divides the reduced difference), exceptional
    (decided by exceptional_factor), or kept with its full block p**E.
    Only the first two are visited: the period is lcm(1..k), taken from
    the shared product cache, divided by the exceptional factor and the
    removed blocks; a remainder is a bug and raises SelfCheckError.
    """
    ar = prog.a_reduced
    exc_value, _, removed = drops = _drops(k, ar)
    dropped = math.prod((q**e for q, e in removed), start=exc_value)
    lcm = _cached_lcm_upto(k)
    value, rest = divmod(lcm, dropped)
    if rest:
        raise SelfCheckError(
            f"lcm(1..{k}) is not a multiple of the exceptional factor "
            f"{exc_value} times the removed blocks {removed}"
        )
    return PeriodReport(k, prog.a, prog.b, ar, *drops, value=value, lcm_upto=lcm)


def period_rows(
    prog: Progression, k_max: int
) -> Iterator[tuple[int, int, int, int]]:
    """(k, lcm(1..k), exceptional factor, smallest period) for k = 0..k_max.

    One pass over k instead of one smallest_period per k: lcm(1..k)
    gains a factor p exactly when k is a power of the prime p, and the
    blocks of primes dividing the reduced difference grow with it. The
    period follows from smallest_period's identity, period times
    exceptional factor times removed blocks equals lcm(1..k), with the
    exceptional factor taken from exceptional_factor.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    ar = prog.a_reduced
    base: dict[int, int] = {}  # every prime power q <= k_max -> its prime
    for p in primes_upto(k_max):
        q = p
        while q <= k_max:
            base[q] = p
            q *= p
    lcm = removed = 1
    for k in range(k_max + 1):
        p = base.get(k)
        if p is not None:
            lcm *= p
            if ar % p == 0:
                removed *= p
        exceptional = exceptional_factor(k, ar)[0]
        yield k, lcm, exceptional, lcm // (exceptional * removed)


def closed_form_period(k: int, a: int) -> FactoredInteger:
    """Closed-form smallest period for a reduced difference a >= 1.

    The closed_form of smallest_period(Progression(a, 1), k), derived
    without multiplying out lcm(1..k); stays public because
    bench/workloads.py times it.
    """
    return _kept_blocks(k, *_drops(k, a)[1:])


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
    lf = lcm_upto(k)
    big_l = lf.value
    divisor_count = math.prod(e + 1 for e in lf.factors.values())
    require_budget(
        big_l * (k + 1) * divisor_count, budget, f"full-period search for k={k}"
    )
    a, b = prog.a, prog.b
    ratios = _ratios(a, b, k, 1, big_l)
    # ratios[n - 1] is the ratio at n; t is a period iff the ratios at
    # n + t equal those at n for every n in 1..L: first for n <= L - t,
    # then for the rest, which reads the ratios past L.
    for t in lf.divisors():
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
    power of the same prime.
    """
    _require_reduced(prog)
    require_prime(p)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    max_exp = integer_log(p, k) if k >= 1 else 0
    span = p**max_exp
    require_budget(
        span * (k + 1) * (max_exp + 1),
        budget,
        f"valuation-period search for p={p}, k={k}",
    )
    a, b = prog.a, prog.b
    vals = [_counted_valuation(p, a, b, n, k) for n in range(1, 2 * span + 1)]
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
    one fewer multiple of p**E, so the valuations differ. The returned
    witness is re-verified by scan, never trusted.
    """
    _require_reduced(prog)
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # The O(1) checks come before primality, whose cost grows with p.
    if p > k:
        raise ValueError(f"{p} exceeds k={k}")
    if p >= 2 and prog.a % p == 0:
        raise ValueError(f"{p} divides the difference a={prog.a}")
    require_prime(p)
    max_exp = integer_log(p, k)
    if valuation(p, k + 1) >= max_exp:
        raise ValueError(
            f"valuation of k+1={k + 1} at p={p} reaches the maximal "
            f"exponent {max_exp}; the valuation period is 1 and no "
            "witness exists"
        )
    span = p**max_exp
    half = p ** (max_exp - 1)
    a_inv = pow(prog.a, -1, span)
    res = (k + 1) % span
    if 1 <= res <= span - half:
        residue = (-prog.b * a_inv) % span
    else:
        residue = (-prog.b * a_inv - (half - 1)) % span
    n0 = residue if residue >= 1 else span
    before = ratio_valuation_by_counting(p, prog, Window(n0, k))
    after = ratio_valuation_by_counting(p, prog, Window(n0 + half, k))
    if before == after:
        raise SelfCheckError(
            f"constructed witness n0={n0} fails for p={p}, "
            f"(a={prog.a}, b={prog.b}), k={k}"
        )
    return n0
