"""Smallest period of the window ratio: closed form and brute-force oracles.

The ratio n -> window_ratio(prog, Window(n, k)) is periodic, and
lcm(1..k) is always a period: shifting the start index by lcm(1..k)
leaves every pairwise gcd of window terms unchanged, hence the ratio
too. The smallest period is derived prime by prime in one pass over the
primes p <= k. With p**E the largest power of p not above k, the block
p**E drops out when p divides the reduced difference, or when p is the
single exceptional prime with p**E | k + 1; otherwise it is kept. The
per-prime periods multiply to the smallest period. The brute-force
searches below are independent of that pass and serve as its oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BudgetExceededError, SelfCheckError
from .gfun import (
    Progression,
    Window,
    _counted_valuation,
    _ratio,
    ratio_valuation_by_counting,
)
from .numtheory import (
    MILLER_RABIN_BOUND,
    FactoredInteger,
    factorize,
    integer_log,
    is_prime,
    lcm_upto,
    primes_upto,
    valuation,
)

__all__ = [
    "DEFAULT_BUDGET",
    "PeriodReport",
    "closed_form_period",
    "exceptional_factor",
    "nonperiod_witness",
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
    difference, q <= k; per_prime maps every prime p <= k to the period
    of the p-valuation of the ratio (1 where the prime drops out).
    """

    k: int
    a: int
    b: int
    a_reduced: int
    closed_form: FactoredInteger
    exceptional: int
    exceptional_prime: int | None
    removed_primes: list[tuple[int, int]]
    per_prime: dict[int, int]

    @property
    def value(self) -> int:
        return self.closed_form.value

    @property
    def lcm_upto(self) -> int:
        """lcm(1..k), put back together from the closed form on access.

        Every prime p <= k is kept, exceptional or removed, so the
        period times the exceptional factor times the removed blocks is
        exactly lcm(1..k).
        """
        removed = math.prod(q**e for q, e in self.removed_primes)
        return self.value * self.exceptional * removed


def smallest_period(prog: Progression, k: int) -> PeriodReport:
    """Smallest period of n -> window_ratio(prog, Window(n, k)).

    Equals the closed form for the reduced difference: scaling both a
    and b by their gcd scales the ratio by a constant power of d and so
    preserves the smallest period. Each prime p <= k lands in exactly
    one branch: removed (p divides the reduced difference), exceptional
    (decided by exceptional_factor), or kept with its full block p**E.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    ar = prog.a_reduced
    exc_value, exc_prime = exceptional_factor(k, ar)
    kept: dict[int, int] = {}
    removed: list[tuple[int, int]] = []
    per_prime: dict[int, int] = {}
    root = math.isqrt(k)
    for p in primes_upto(k):
        # Every prime above isqrt(k) has exponent 1.
        e = 1 if p > root else integer_log(p, k)
        if ar % p == 0:
            removed.append((p, e))
            per_prime[p] = 1
        elif p == exc_prime:
            per_prime[p] = 1
        else:
            kept[p] = e
            per_prime[p] = p**e
    return PeriodReport(
        k=k,
        a=prog.a,
        b=prog.b,
        a_reduced=ar,
        closed_form=FactoredInteger(kept),
        exceptional=exc_value,
        exceptional_prime=exc_prime,
        removed_primes=removed,
        per_prime=per_prime,
    )


def closed_form_period(k: int, a: int) -> FactoredInteger:
    """Closed-form smallest period for a reduced difference a >= 1.

    The closed_form of smallest_period(Progression(a, 1), k); stays
    public because bench/workloads.py times it.
    """
    return smallest_period(Progression(a, 1), k).closed_form


def smallest_period_bruteforce(
    prog: Progression, k: int, budget: int = DEFAULT_BUDGET
) -> int:
    """Smallest period by exhaustive search, independent of the closed form.

    Candidates are the divisors of L = lcm(1..k), ascending: L is a
    period, the gcd of two periods of a function on positive integers is
    again a period, so the smallest period divides L. Checking start
    indices 1..L covers every residue class, so the first surviving
    divisor is the smallest period. Raises BudgetExceededError rather
    than ever truncating the check.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    lf = lcm_upto(k)
    big_l = lf.value
    divisor_count = math.prod(e + 1 for e in lf.factors.values())
    work = big_l * (k + 1) * divisor_count
    if work > budget:
        raise BudgetExceededError(
            f"full-period search for k={k} needs work ~2^{work.bit_length()} "
            f"> budget {budget}"
        )
    divisors = lf.divisors()
    a, b = prog.a, prog.b
    ratios = [_ratio(a, b, n, k) for n in range(1, 2 * big_l + 1)]
    # ratios[n - 1] is the ratio at n; t is a period iff the ratios at
    # n + t equal those at n for every n in 1..L.
    for t in divisors:
        if ratios[t : t + big_l] == ratios[:big_l]:
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
    if not prog.is_reduced:
        raise ValueError("valuation periods are defined for reduced progressions")
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    max_exp = integer_log(p, k) if k >= 1 else 0
    span = p**max_exp
    work = span * (k + 1) * (max_exp + 1)
    if work > budget:
        raise BudgetExceededError(
            f"valuation-period search for p={p}, k={k} needs work ~{work} "
            f"> budget {budget}"
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
    p <= k, p < MILLER_RABIN_BOUND (so that primality is decided in
    bounded time), and the valuation of k + 1 at p is below E. Construction:
    with l = (k + 1) mod p**E, place a multiple of p**E at the window
    start when 1 <= l <= p**E - p**(E-1), otherwise at offset
    p**(E-1) - 1; either way the window starting p**(E-1) later holds
    one fewer multiple of p**E, so the valuations differ. The returned
    witness is re-verified by scan, never trusted.
    """
    if not prog.is_reduced:
        raise ValueError("witness construction requires a reduced progression")
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    # The O(1) checks come before primality, whose cost grows with p.
    if p > k:
        raise ValueError(f"{p} exceeds k={k}")
    if p >= 2 and prog.a % p == 0:
        raise ValueError(f"{p} divides the difference a={prog.a}")
    if p >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"p must be below {MILLER_RABIN_BOUND}, where primality is "
            "decided in bounded time"
        )
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
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
