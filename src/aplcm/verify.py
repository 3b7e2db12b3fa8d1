"""Exhaustive and randomized verification suites.

Each suite sweeps one family of identities at a fixed, deterministic
scale and reports every mismatch; an empty failure list is a
proof-by-exhaustion at that scale. A suite is a list of cases, each a
checker and its arguments, and run_suite is the one runner for all of
them. Sweeps are ordered lexicographically in (k, a, b, n) and random
suites use fixed seeds, so reports are identical run to run and across
worker counts. Identities that only the suites read (the lcm bounds,
the ratio recursion, the gcd transfer) are stated in their checkers.
Checkers over a range of start indices take their ratios and counted
valuations from gfun's range kernels, once per case; their oracles stay
direct: valuations of the ratios themselves, and a scan that tests
every term for each prime power.
"""

from __future__ import annotations

import functools
import math
import os
import random
from dataclasses import dataclass
from itertools import accumulate, combinations, islice, starmap
from time import perf_counter

from .errors import SelfCheckError
from .gfun import (
    Progression,
    Window,
    _counted_valuations,
    _ratio,
    _ratios,
    _require_reduced,
    _terms,
    window_ratio,
    window_terms,
)
from .numtheory import (
    _cached_lcm_upto,
    _valuation,
    integer_log,
    lcm_by_inclusion_exclusion,
    lcm_upto,
    primes_upto,
    require_prime,
    valuation,
)
from .period import (
    DEFAULT_BUDGET,
    build_period_table,
    exceptional_factor,
    fast_lcm,
    nonperiod_witness,
    smallest_period,
    smallest_period_bruteforce,
    valuation_period_bruteforce,
)

__all__ = [
    "FailureRecord",
    "VerificationReport",
    "available_suites",
    "run_suite",
]

SEED = 20260809

# A report keeps the first failure records in case order, at most this
# many; the rest are counted, not kept, so a fault that breaks every
# window of a sweep still makes a report of bounded size.
MAX_FAILURES_KEPT = 100

# Values of the smallest period for the plain consecutive-integer
# progression (a=1, b=0), k = 0..10, frozen after confirmation against
# the brute-force searches below.
CONSECUTIVE_PERIODS = (1, 1, 2, 3, 12, 20, 60, 105, 280, 504, 2520)


@dataclass(frozen=True)
class FailureRecord:
    inputs: dict
    expected: object
    actual: object


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    cases_run: int
    failures: list[FailureRecord]
    elapsed: float
    failures_dropped: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures and not self.failures_dropped


# Every checker is a generator that yields one FailureRecord per failed
# check, so a record, its inputs dict and any message are built only
# once a check has failed: the passing path is the hot one.


def _pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    """Every (a, b) with 1 <= a <= a_max and 0 <= b <= b_max, a-major."""
    return [(a, b) for a in range(1, a_max + 1) for b in range(b_max + 1)]


def _coprime_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a, b in _pairs(a_max, b_max) if math.gcd(a, b) == 1]


def _sweep(checker, ks, pairs, *extra) -> list[tuple]:
    """One case (checker, k, a, b, *extra) per k and pair, k-major."""
    return [(checker, k, a, b, *extra) for k in ks for (a, b) in pairs]


def _random_lists(seed, count, min_len, max_len, top) -> list[list[int]]:
    """count seeded lists of min_len..max_len integers in 1..top."""
    rng = random.Random(seed)
    return [
        [rng.randint(1, top) for _ in range(rng.randint(min_len, max_len))]
        for _ in range(count)
    ]


def _lcm_of_prime_periods(prog: Progression, k: int, budget: int) -> int:
    """The full period as the lcm of the per-prime period searches."""
    return math.lcm(
        *(valuation_period_bruteforce(p, prog, k, budget) for p in primes_upto(k))
    )


# --- periods ------------------------------------------------------------

def _check_period(k, a, b, budget):
    prog = Progression(a, b)
    closed = smallest_period(prog, k).value
    oracle = smallest_period_bruteforce(prog, k, budget)
    if closed != oracle:
        yield FailureRecord({"k": k, "a": a, "b": b}, oracle, closed)


def _check_consecutive_period(k, expected, budget):
    prog = Progression(1, 0)
    closed = smallest_period(prog, k).value
    if closed != expected:
        yield FailureRecord({"k": k}, expected, closed)
    if k <= 8:
        confirmed = smallest_period_bruteforce(prog, k, budget)
    else:
        # Out of comfortable full-search range: combine the per-prime
        # period searches instead (their lcm is the full period).
        confirmed = _lcm_of_prime_periods(prog, k, budget)
    if confirmed != expected:
        yield FailureRecord({"k": k, "check": "search"}, expected, confirmed)


def _check_odd_frozen_period(k, expected):
    closed = smallest_period(Progression(2, 1), k).value
    if closed != expected:
        yield FailureRecord({"k": k, "check": "frozen"}, expected, closed)


def _check_decomposition(k, a, b, budget):
    prog = Progression(a, b)
    full = smallest_period_bruteforce(prog, k, budget)
    combined = _lcm_of_prime_periods(prog, k, budget)
    if full != combined:
        yield FailureRecord({"k": k, "a": a, "b": b}, full, combined)


def _check_prime_period(k, a, b, budget):
    prog = Progression(a, b)
    exps = smallest_period(prog, k).exponents
    for p in primes_upto(k) + [11]:
        actual = valuation_period_bruteforce(p, prog, k, budget)
        expected = p ** exps.get(p, 1) if p <= k else 1
        if actual != expected:
            yield FailureRecord({"k": k, "a": a, "b": b, "p": p}, expected, actual)
        if expected != 1:
            try:
                n0 = nonperiod_witness(p, prog, k)
            # ValueError: the closed form kept a prime the witness refuses.
            except (SelfCheckError, ValueError) as exc:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "check": "witness"},
                    "valid witness",
                    str(exc),
                )
                continue
            # Re-checked from the ratio itself, not by the multiple
            # counting that nonperiod_witness already verifies with.
            half = expected // p
            before = valuation(p, window_ratio(prog, Window(n0, k)))
            after = valuation(p, window_ratio(prog, Window(n0 + half, k)))
            if before == after:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "n0": n0},
                    "differing valuations",
                    f"both {before}",
                )


def _check_exceptional(k, expected):
    try:
        actual = exceptional_factor(k, 1)
    except SelfCheckError as exc:
        actual = str(exc)
    if actual != expected:
        yield FailureRecord({"k": k}, expected, actual)


def _exceptional_cases(budget):
    # From the definition (a = 1): p qualifies at k exactly when
    # p**E <= k < p**(E+1) and p**E | k + 1, that is, when k + 1 = m * p**E
    # with 2 <= m <= p. Every other k expects (1, None).
    top = 10_000
    expected = {
        m * p**e - 1: (p**e, p)
        for p in primes_upto(top)
        for e in range(1, integer_log(p, top) + 1)
        for m in range(2, min(p, (top + 1) // p**e) + 1)
    }
    return [(_check_exceptional, k, expected.get(k, (1, None))) for k in range(top + 1)]


# --- valuations and counts --------------------------------------------

def _check_valuation(k, a, b):
    # Checked once for every n below.
    _require_reduced(Progression(a, b))
    primes = primes_upto(k)
    for p in primes:
        require_prime(p)
    ratios = _ratios(a, b, k, 1, 200)
    # The 200 ratios take few distinct values: each is valued once.
    distinct = set(ratios)
    direct = []
    for p in primes:
        by_value = {r: _valuation(p, r) for r in distinct}
        direct.append(list(map(by_value.__getitem__, ratios)))
    counted = [_counted_valuations(p, a, b, 1, 200, k) for p in primes]
    if direct == counted:
        return
    # Failures are reported n-major, then by p.
    for i in range(200):
        for p, by_direct, by_count in zip(primes, direct, counted):
            if by_direct[i] != by_count[i]:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "n": i + 1},
                    by_direct[i],
                    by_count[i],
                )


def _check_window_counts(p, a, b):
    # Checked once for every count below.
    _require_reduced(Progression(a, b))
    require_prime(p)
    # The oracle tests every term b + i*a, i = 1..67, once per p**e:
    # hits[e][i] multiples of p**e among the first i, so the window at n
    # holds hits[e][n + k] - hits[e][n - 1] of them.
    terms = range(b + a, b + 68 * a, a)
    hits = {
        e: [0, *accumulate(t % p**e == 0 for t in terms)] for e in range(1, 5)
    }
    for k in range(1, 8):
        counted = _counted_valuations(p, a, b, 1, 60, k)
        for n in range(1, 61):
            counts = [scan[n + k] - scan[n - 1] for scan in hits.values()]
            # Every multiple of p**e beyond the first adds one factor p;
            # e <= 4 is enough, as p**3 > k here.
            excess = sum(c - 1 for c in counts if c > 1)
            if counted[n - 1] != excess:
                yield FailureRecord(
                    {"check": "counted-valuation", "p": p,
                     "a": a, "b": b, "k": k, "n": n},
                    excess,
                    counted[n - 1],
                )


# --- lcm identities -----------------------------------------------------

def _check_inclusion_exclusion(xs):
    expected = math.lcm(*xs)
    actual = lcm_by_inclusion_exclusion(xs)
    if actual != expected:
        yield FailureRecord({"xs": xs}, expected, actual)


def _check_fast_lcm(table, n):
    expected = math.lcm(*window_terms(table.prog, Window(n, table.k)))
    try:
        actual = fast_lcm(table, n)
    except SelfCheckError as exc:
        actual = str(exc)
    if actual != expected:
        yield FailureRecord(
            {"k": table.k, "a": table.prog.a, "b": table.prog.b, "n": n},
            expected,
            actual,
        )


def _fast_lcm_cases(budget):
    # Each table is built once per run, here, and shared by its cases.
    tables = functools.cache(build_period_table)
    rng = random.Random(SEED + 1)
    cases = []
    for i in range(1000):
        k = rng.randint(0, 10)
        a = rng.randint(1, 8)
        b = rng.randint(0, 8)
        table = tables(Progression(a, b), k, budget)
        if i % 20 == 0:
            # Forced multiples of the period: the residue-0 slot of the
            # table (representative n = period) must be exercised.
            n = table.period * rng.randint(1, max(1, 10**9 // table.period))
        else:
            n = rng.randint(1, 10**9)
        cases.append((_check_fast_lcm, table, n))
    return cases


# --- divisibility -------------------------------------------------------

def _check_window_bound(k, a, b):
    d = Progression(a, b).d
    kfact = math.factorial(k)
    # product = lcm * ratio and gcd(t0, t1) = d at every n, so product
    # divides lcm * k! * gcd(t0, t1)**k iff ratio divides k! * d**k.
    bound = kfact * d**k
    ratios = _ratios(a, b, k, 1, 200)
    # Each distinct ratio is tested once, and the windows are walked
    # only for the values that fail.
    distinct = set(ratios)
    over_bound = {r for r in distinct if bound % r != 0}
    # Only reduced progressions have ratios dividing k!.
    over_kfact = {r for r in distinct if kfact % r != 0} if d == 1 else set()
    if not over_bound and not over_kfact:
        return
    for n, ratio in enumerate(ratios, 1):
        if ratio in over_bound:
            yield FailureRecord(
                {"check": "window-bound", "k": k, "a": a, "b": b, "n": n},
                "ratio divides k! * gcd(t0, t1)**k",
                f"{ratio} does not divide {bound}",
            )
        if ratio in over_kfact:
            yield FailureRecord(
                {"check": "ratio-divides-factorial",
                 "k": k, "a": a, "b": b, "n": n},
                f"divisor of {kfact}",
                ratio,
            )


def _check_lcm_bounds(n, k):
    # n * C(n+k, k) divides lcm(n, ..., n+k), which divides that times
    # the lcm of the k-th binomial row.
    lcm = math.lcm(*range(n, n + k + 1))
    lower = n * math.comb(n + k, k)
    upper = lower * math.lcm(*(math.comb(k, j) for j in range(k + 1)))
    if lcm % lower or upper % lcm:
        yield FailureRecord(
            {"check": "lcm-bounds", "n": n, "k": k},
            "lower | lcm | upper",
            (lower, lcm, upper),
        )


def _check_recursion(k, n):
    # For consecutive integers (a = 1, b = 0):
    # ratio_k(n) = gcd(k!, (n + k) * ratio_{k-1}(n)).
    previous = _ratio(1, 0, n, k - 1)
    if _ratio(1, 0, n, k) != math.gcd(math.factorial(k), (n + k) * previous):
        yield FailureRecord({"check": "recursion", "k": k, "n": n}, True, False)


def _check_first_divides(k, n):
    prog = Progression(1, 0)
    base = window_ratio(prog, Window(1, k))
    value = window_ratio(prog, Window(n, k))
    if value % base != 0:
        yield FailureRecord(
            {"check": "first-divides", "k": k, "n": n}, f"multiple of {base}", value
        )


# --- shifts and scaling -------------------------------------------------

def _adjusted_ratio(xs, t: int, pair_gcds) -> tuple[int, int]:
    # (product / lcm) times the gcds of all subsets of size 2..t-1, odd
    # sizes in the numerator and even ones in the denominator, unreduced;
    # pair_gcds lists the gcds of size 2.
    num, den = math.prod(xs), math.lcm(*xs)
    for r in range(2, t):
        g = math.prod(pair_gcds if r == 2 else starmap(math.gcd, combinations(xs, r)))
        if r % 2 == 1:
            num *= g
        else:
            den *= g
    return num, den


def _check_gcd_transfer(k, a, b):
    # Order-t gcd transfer: windows lcm(1..k) apart share all gcds of t
    # terms (the hypothesis), hence their adjusted ratios (conclusion).
    # The ratios are compared by cross-multiplying, so none is reduced.
    shift = lcm_upto(k)
    for n in range(1, 51):
        terms_a = _terms(a, b, n, k)
        terms_b = _terms(a, b, n + shift, k)
        for t in (2, 3) if k >= 2 else (2,):
            gcds_a = list(starmap(math.gcd, combinations(terms_a, t)))
            gcds_b = list(starmap(math.gcd, combinations(terms_b, t)))
            if t == 2:
                pairs_a, pairs_b = gcds_a, gcds_b
            if gcds_a != gcds_b:
                held = (False, None)
            else:
                num_a, den_a = _adjusted_ratio(terms_a, t, pairs_a)
                num_b, den_b = _adjusted_ratio(terms_b, t, pairs_b)
                if num_a * den_b == num_b * den_a:
                    continue
                held = (True, False)
            yield FailureRecord(
                {"k": k, "a": a, "b": b, "n": n, "t": t},
                "hypothesis and conclusion",
                held,
            )


def _check_periodicity(k, a, b):
    shift = lcm_upto(k)
    base = _ratios(a, b, k, 1, 100)
    moved = _ratios(a, b, k, 1 + shift, 100)
    for n, at_n, shifted in zip(range(1, 101), base, moved):
        if at_n != shifted:
            yield FailureRecord({"k": k, "a": a, "b": b, "n": n}, at_n, shifted)


def _check_ratio_scaling(k, a, b):
    prog = Progression(a, b)
    scale = prog.d**k
    wholes = _ratios(a, b, k, 1, 100)
    parts = _ratios(prog.a_reduced, prog.b_reduced, k, 1, 100)
    for n, whole, part in zip(range(1, 101), wholes, parts):
        scaled = scale * part
        if whole != scaled:
            yield FailureRecord(
                {"check": "ratio-scaling", "k": k, "a": a, "b": b, "n": n},
                scaled,
                whole,
            )


def _check_reduced_period(k, a, b, budget):
    prog = Progression(a, b)
    full = smallest_period_bruteforce(prog, k, budget)
    red = smallest_period_bruteforce(prog.reduced(), k, budget)
    if full != red:
        yield FailureRecord(
            {"check": "reduced-period", "k": k, "a": a, "b": b}, red, full
        )


def _check_base_relation(k, a, b):
    """Relation to the consecutive-integer period."""
    prog = Progression(a, b)
    base = smallest_period(Progression(1, 0), k).value
    removed = math.prod(
        p ** integer_log(p, k)
        for p in primes_upto(k)
        if prog.a_reduced % p == 0 and base % p == 0
    )
    expected, rem = divmod(base, removed)
    value = smallest_period(prog, k).value
    if rem != 0 or value != expected:
        yield FailureRecord(
            {"check": "base-relation", "k": k, "a": a, "b": b}, expected, value
        )
    if b % a == 0 and value != base:
        yield FailureRecord(
            {"check": "divisible-offset", "k": k, "a": a, "b": b}, base, value
        )


def _scaling_cases(budget):
    unreduced = [(a, b) for a, b in _pairs(10, 10) if math.gcd(a, b) > 1]
    return (
        _sweep(_check_ratio_scaling, range(7), unreduced)
        + _sweep(_check_reduced_period, range(7), unreduced, budget)
        + _sweep(_check_base_relation, range(9), _pairs(10, 10))
    )


# --- integer basics -----------------------------------------------------

def _check_lcm_upto(k):
    lcm = lcm_upto(k)
    iterated = math.lcm(*range(1, k + 1))
    if lcm != iterated:
        yield FailureRecord({"check": "lcm-upto", "k": k}, iterated, lcm)
    cached = _cached_lcm_upto(k)
    if cached != iterated:
        yield FailureRecord({"check": "cached-lcm-upto", "k": k}, iterated, cached)
    for p in primes_upto(k):
        if valuation(p, lcm) != integer_log(p, k):
            yield FailureRecord(
                {"check": "prime-power", "k": k, "p": p},
                integer_log(p, k),
                valuation(p, lcm),
            )


def _check_integer_log(p, k):
    e = integer_log(p, k)
    if not (p**e <= k < p ** (e + 1)):
        yield FailureRecord({"check": "integer-log", "p": p, "k": k}, "sandwich", e)


def _check_lcm_divides(xs):
    total = math.lcm(*xs)
    if any(total % x != 0 for x in xs) or math.prod(xs) % total != 0:
        yield FailureRecord({"check": "lcm", "xs": xs}, "divides", total)


# Each suite maps the work budget to its list of (checker, *args) cases.
SUITES = {
    "period-closed-form": lambda budget: _sweep(
        _check_period, range(9), _pairs(10, 10), budget
    ),
    "consecutive-periods": lambda budget: [
        (_check_consecutive_period, k, expected, budget)
        for k, expected in enumerate(CONSECUTIVE_PERIODS)
    ],
    "valuation-consistency": lambda budget: _sweep(
        _check_valuation, range(9), _coprime_pairs(10, 10)
    ),
    "prime-period": lambda budget: _sweep(
        _check_prime_period, range(2, 9), _coprime_pairs(10, 10), budget
    ),
    "period-decomposition": lambda budget: _sweep(
        _check_decomposition, range(9), _coprime_pairs(10, 10), budget
    ),
    "inclusion-exclusion": lambda budget: [
        (_check_inclusion_exclusion, xs)
        for xs in _random_lists(SEED, 10_000, 2, 8, 500)
    ],
    "fast-lcm": _fast_lcm_cases,
    "divisibility": lambda budget: (
        _sweep(_check_window_bound, range(9), _pairs(10, 10))
        + [(_check_lcm_bounds, n, k) for n in range(1, 301) for k in range(11)]
        + [(_check_recursion, k, n) for k in range(1, 9) for n in range(1, 501)]
        + [(_check_first_divides, k, n) for k in range(9) for n in range(1, 501)]
    ),
    "exceptional-prime": _exceptional_cases,
    "odd-progression": lambda budget: (
        _sweep(_check_period, range(9), [(2, 1)], budget)
        + [(_check_odd_frozen_period, k, expected)
           for k, expected in ((2, 1), (3, 3), (5, 5))]
    ),
    "gcd-transfer": lambda budget: _sweep(
        _check_gcd_transfer, range(1, 7), _coprime_pairs(6, 6)
    ),
    "scaling": _scaling_cases,
    "window-counts": lambda budget: _sweep(
        _check_window_counts, (2, 3, 5, 7), _coprime_pairs(6, 6)
    ),
    "periodicity": lambda budget: _sweep(
        _check_periodicity, range(7), _pairs(8, 8)
    ),
    "integer-basics": lambda budget: (
        [(_check_lcm_upto, k) for k in range(31)]
        + [(_check_integer_log, p, k) for p in primes_upto(30) for k in range(1, 1001)]
        + [(_check_lcm_divides, xs)
           for xs in _random_lists(SEED + 2, 2000, 1, 8, 10**6)]
    ),
}


def available_suites() -> list[str]:
    return list(SUITES)


def _guarded(checker, args):
    """checker's failure records, then one for a SelfCheckError it raises,
    with the case's arguments by name, the budget left out, as inputs."""
    try:
        yield from checker(*args)
    except SelfCheckError as exc:
        code = checker.__code__
        inputs = dict(zip(code.co_varnames[: code.co_argcount], args))
        inputs.pop("budget", None)
        yield FailureRecord(inputs, "no consistency failure", str(exc))


def _run_cases(cases) -> tuple[list[FailureRecord], int]:
    """The first MAX_FAILURES_KEPT failure records of cases, in case
    order, and the count of the others, which are dropped as they come.
    A case that raises SelfCheckError fails with that message.
    """
    kept, dropped = [], 0
    for checker, *args in cases:
        found = _guarded(checker, args)
        kept += islice(found, MAX_FAILURES_KEPT - len(kept))
        for _ in found:
            dropped += 1
    return kept, dropped


def run_suite(
    name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> VerificationReport:
    """Run every case of one suite, across min(jobs, CPU count) worker
    processes if that is above 1. Both paths keep case order, so the
    failure list is the same for every worker count.
    """
    if name not in SUITES:
        raise KeyError(name)
    start = perf_counter()
    cases = SUITES[name](budget)
    if not cases:
        raise SelfCheckError(f"suite {name} ran no cases")
    # The pool forks all its workers at once, so jobs alone must not size it.
    workers = min(jobs, os.cpu_count() or 1)
    if workers <= 1 or len(cases) < 2:
        failures, dropped = _run_cases(cases)
    else:
        # Imported here: it pulls in multiprocessing, which a serial run
        # and the CLI's other subcommands never need.
        from concurrent.futures import ProcessPoolExecutor

        size = max(1, len(cases) // (workers * 8))
        chunks = [cases[i : i + size] for i in range(0, len(cases), size)]
        failures, dropped = [], 0
        with ProcessPoolExecutor(max_workers=workers) as pool:
            # Each chunk keeps its own first records; of those, the
            # first in case order are the first of the whole suite.
            for kept, rest in pool.map(_run_cases, chunks):
                room = MAX_FAILURES_KEPT - len(failures)
                failures += kept[:room]
                dropped += rest + len(kept[room:])
    return VerificationReport(
        suite=name,
        cases_run=len(cases),
        failures=failures,
        elapsed=perf_counter() - start,
        failures_dropped=dropped,
    )
