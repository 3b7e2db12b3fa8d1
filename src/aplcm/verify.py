"""Exhaustive and randomized verification suites.

Each suite sweeps one family of identities at a fixed, deterministic
scale and reports every mismatch; an empty failure list is a
proof-by-exhaustion at that scale. A suite is a list of cases, each a
checker and its arguments, and run_suite is the one runner for all of
them. Sweeps are ordered lexicographically in (k, a, b, n) and random
suites use fixed seeds, so reports are identical run to run and across
worker counts.
"""

from __future__ import annotations

import functools
import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from time import perf_counter

from .errors import SelfCheckError
from .gfun import (
    Progression,
    Window,
    count_multiples,
    count_multiples_naive,
    ratio_valuation_by_counting,
    window_ratio,
    window_terms,
)
from .identities import (
    build_period_table,
    check_gcd_transfer,
    check_lcm_bounds,
    check_ratio_recursion,
    check_window_divisibility,
    fast_lcm,
    lcm_by_inclusion_exclusion,
)
from .numtheory import (
    integer_log,
    lcm_upto,
    primes_upto,
    valuation,
)
from .period import (
    DEFAULT_BUDGET,
    exceptional_factor,
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

    @property
    def passed(self) -> bool:
        return not self.failures


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
    for p in primes_upto(k) + [11]:
        actual = valuation_period_bruteforce(p, prog, k, budget)
        if p > k or a % p == 0:
            expected = 1
        else:
            max_exp = integer_log(p, k)
            expected = 1 if valuation(p, k + 1) >= max_exp else p**max_exp
        if actual != expected:
            yield FailureRecord({"k": k, "a": a, "b": b, "p": p}, expected, actual)
        if p <= k and a % p != 0 and expected != 1:
            try:
                n0 = nonperiod_witness(p, prog, k)
            except SelfCheckError as exc:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "check": "witness"},
                    "valid witness",
                    str(exc),
                )
                continue
            # Re-checked from the ratio itself, not by the multiple
            # counting that nonperiod_witness already verifies with.
            half = p ** (integer_log(p, k) - 1)
            before = valuation(p, window_ratio(prog, Window(n0, k)))
            after = valuation(p, window_ratio(prog, Window(n0 + half, k)))
            if before == after:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "n0": n0},
                    "differing valuations",
                    f"both {before}",
                )


def _check_exceptional(k):
    try:
        exceptional_factor(k, 1)
    except SelfCheckError as exc:
        yield FailureRecord({"k": k}, "at most one prime", str(exc))


# --- valuations and counts --------------------------------------------

def _check_valuation(k, a, b):
    prog = Progression(a, b)
    primes = primes_upto(k)
    for n in range(1, 201):
        w = Window(n, k)
        ratio = window_ratio(prog, w)
        for p in primes:
            direct = valuation(p, ratio)
            counted = ratio_valuation_by_counting(p, prog, w)
            if direct != counted:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "p": p, "n": n}, direct, counted
                )


def _check_window_counts(p, a, b):
    prog = Progression(a, b)
    for k in range(1, 8):
        max_exp = integer_log(p, k) if p <= k else 0
        windows = [Window(n, k) for n in range(1, 61)]
        for e in range(1, 5):
            for w in windows:
                fast = count_multiples(p, e, prog, w)
                slow = count_multiples_naive(p, e, prog, w)
                if fast != slow:
                    yield FailureRecord(
                        {"check": "count", "p": p, "e": e,
                         "a": a, "b": b, "k": k, "n": w.n},
                        slow,
                        fast,
                    )
                if a % p != 0:
                    if e > max_exp and fast > 1:
                        yield FailureRecord(
                            {"check": "above-threshold", "p": p, "e": e,
                             "a": a, "b": b, "k": k, "n": w.n},
                            "at most 1",
                            fast,
                        )
                    if e <= max_exp and fast < 1:
                        yield FailureRecord(
                            {"check": "below-threshold", "p": p, "e": e,
                             "a": a, "b": b, "k": k, "n": w.n},
                            "at least 1",
                            fast,
                        )
    if a % p != 0:
        # p**e consecutive terms are pairwise incongruent mod p**e.
        for e in (1, 2):
            pe = p**e
            if pe > 32:
                continue
            for n in range(1, 33):
                residues = {
                    (b + (n + i) * a) % pe for i in range(pe)
                }
                if len(residues) != pe:
                    yield FailureRecord(
                        {"check": "distinct-residues", "p": p, "e": e,
                         "a": a, "b": b, "n": n},
                        pe,
                        len(residues),
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
    prog = Progression(a, b)
    kfact = math.factorial(k)
    reduced = prog.is_reduced
    for n in range(1, 201):
        w = Window(n, k)
        report = check_window_divisibility(prog, w)
        if not report.holds:
            yield FailureRecord(
                {"check": "window-bound", "k": k, "a": a, "b": b, "n": n},
                "product divides bound",
                f"{report.product} does not divide {report.bound}",
            )
        if reduced:
            ratio = window_ratio(prog, w)
            if kfact % ratio != 0:
                yield FailureRecord(
                    {"check": "ratio-divides-factorial",
                     "k": k, "a": a, "b": b, "n": n},
                    f"divisor of {kfact}",
                    ratio,
                )


def _check_lcm_bounds(n, k):
    report = check_lcm_bounds(n, k)
    if not report.holds:
        yield FailureRecord(
            {"check": "lcm-bounds", "n": n, "k": k},
            "lower | lcm | upper",
            (report.lower, report.lcm, report.upper),
        )


def _check_recursion(k, n):
    if not check_ratio_recursion(k, n):
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

def _check_gcd_transfer(k, a, b):
    prog = Progression(a, b)
    shift = lcm_upto(k).value
    for n in range(1, 51):
        terms_a = window_terms(prog, Window(n, k))
        terms_b = window_terms(prog, Window(n + shift, k))
        for t in (2, 3) if k >= 2 else (2,):
            report = check_gcd_transfer(terms_a, terms_b, t)
            if not report.hypothesis_held or not report.conclusion_held:
                yield FailureRecord(
                    {"k": k, "a": a, "b": b, "n": n, "t": t},
                    "hypothesis and conclusion",
                    (report.hypothesis_held, report.conclusion_held),
                )


def _check_periodicity(k, a, b):
    prog = Progression(a, b)
    shift = lcm_upto(k).value
    for n in range(1, 101):
        at_n = window_ratio(prog, Window(n, k))
        shifted = window_ratio(prog, Window(n + shift, k))
        if at_n != shifted:
            yield FailureRecord({"k": k, "a": a, "b": b, "n": n}, at_n, shifted)


def _check_ratio_scaling(k, a, b):
    prog = Progression(a, b)
    reduced = prog.reduced()
    d = prog.d
    for n in range(1, 101):
        whole = window_ratio(prog, Window(n, k))
        scaled = d**k * window_ratio(reduced, Window(n, k))
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
    factored = lcm_upto(k)
    iterated = math.lcm(*range(1, k + 1))
    if factored.value != iterated:
        yield FailureRecord({"check": "lcm-upto", "k": k}, iterated, factored.value)
    for p in primes_upto(k):
        if valuation(p, factored.value) != integer_log(p, k):
            yield FailureRecord(
                {"check": "prime-power", "k": k, "p": p},
                integer_log(p, k),
                valuation(p, factored.value),
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
    "exceptional-prime": lambda budget: [
        (_check_exceptional, k) for k in range(10_001)
    ],
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


def _run_case(case):
    checker, *args = case
    return list(checker(*args))


def run_suite(
    name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> VerificationReport:
    """Run every case of one suite, across `jobs` worker processes if
    jobs > 1. Both paths keep case order, so the failure list is the
    same for every worker count.
    """
    if name not in SUITES:
        raise KeyError(name)
    start = perf_counter()
    cases = SUITES[name](budget)
    if not cases:
        raise SelfCheckError(f"suite {name} ran no cases")
    if jobs <= 1 or len(cases) < 2:
        results = list(map(_run_case, cases))
    else:
        chunksize = max(1, len(cases) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_case, cases, chunksize=chunksize))
    return VerificationReport(
        suite=name,
        cases_run=len(cases),
        failures=[f for sub in results for f in sub],
        elapsed=perf_counter() - start,
    )
