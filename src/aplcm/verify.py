"""Exhaustive and randomized verification suites.

Each suite sweeps one family of identities at a fixed, deterministic
scale and reports every mismatch; an empty failure list is a
proof-by-exhaustion at that scale. Sweeps are ordered lexicographically
in (k, a, b, n) and random suites use fixed seeds, so reports are
identical run to run and across worker counts.
"""

from __future__ import annotations

import math
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
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


def _map_cases(checker, cases, jobs: int) -> list[list[FailureRecord]]:
    """Apply checker to every case, optionally across processes.

    Both paths preserve case order, so the merged failure list is
    deterministic regardless of worker count.
    """
    if jobs <= 1 or len(cases) < 2:
        return [checker(case) for case in cases]
    chunksize = max(1, len(cases) // (jobs * 8))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(checker, cases, chunksize=chunksize))


def _flatten(results) -> list[FailureRecord]:
    return [f for sub in results for f in sub]


def _coprime_pairs(a_max: int, b_max: int) -> list[tuple[int, int]]:
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(b_max + 1)
        if math.gcd(a, b) == 1
    ]


# --- period-closed-form -----------------------------------------------

def _check_period_case(case, budget):
    k, a, b = case
    prog = Progression(a, b)
    closed = smallest_period(prog, k).value
    oracle = smallest_period_bruteforce(prog, k, budget)
    if closed != oracle:
        return [FailureRecord({"k": k, "a": a, "b": b}, oracle, closed)]
    return []


def _suite_period_closed_form(budget, jobs):
    cases = [
        (k, a, b)
        for k in range(9)
        for a in range(1, 11)
        for b in range(11)
    ]
    results = _map_cases(partial(_check_period_case, budget=budget), cases, jobs)
    return len(cases), _flatten(results)


# --- consecutive-periods ----------------------------------------------

def _suite_consecutive_periods(budget, jobs):
    del jobs
    prog = Progression(1, 0)
    failures = []
    for k, expected in enumerate(CONSECUTIVE_PERIODS):
        closed = smallest_period(prog, k).value
        if closed != expected:
            failures.append(FailureRecord({"k": k}, expected, closed))
        if k <= 8:
            confirmed = smallest_period_bruteforce(prog, k, budget)
        else:
            # Out of comfortable full-search range: combine the per-prime
            # period searches instead (their lcm is the full period).
            confirmed = math.lcm(
                *(valuation_period_bruteforce(p, prog, k, budget)
                  for p in primes_upto(k))
            )
        if confirmed != expected:
            failures.append(
                FailureRecord({"k": k, "check": "search"}, expected, confirmed)
            )
    return len(CONSECUTIVE_PERIODS), failures


# --- valuation-consistency --------------------------------------------

def _check_valuation_case(case, n_max):
    k, a, b = case
    prog = Progression(a, b)
    primes = primes_upto(k)
    failures = []
    for n in range(1, n_max + 1):
        w = Window(n, k)
        ratio = window_ratio(prog, w)
        for p in primes:
            direct = valuation(p, ratio)
            counted = ratio_valuation_by_counting(p, prog, w)
            if direct != counted:
                failures.append(
                    FailureRecord(
                        {"k": k, "a": a, "b": b, "p": p, "n": n},
                        direct,
                        counted,
                    )
                )
    return failures


def _suite_valuation_consistency(budget, jobs):
    del budget
    cases = [
        (k, a, b)
        for k in range(9)
        for (a, b) in _coprime_pairs(10, 10)
    ]
    results = _map_cases(partial(_check_valuation_case, n_max=200), cases, jobs)
    return len(cases), _flatten(results)


# --- prime-period ------------------------------------------------------

def _check_prime_period_case(case, budget):
    k, a, b = case
    prog = Progression(a, b)
    failures = []
    for p in primes_upto(k) + [11]:
        actual = valuation_period_bruteforce(p, prog, k, budget)
        if p > k or a % p == 0:
            expected = 1
        else:
            max_exp = integer_log(p, k)
            expected = 1 if valuation(p, k + 1) >= max_exp else p**max_exp
        if actual != expected:
            failures.append(
                FailureRecord({"k": k, "a": a, "b": b, "p": p}, expected, actual)
            )
        if p <= k and a % p != 0 and expected != 1:
            try:
                n0 = nonperiod_witness(p, prog, k)
            except SelfCheckError as exc:
                failures.append(
                    FailureRecord(
                        {"k": k, "a": a, "b": b, "p": p, "check": "witness"},
                        "valid witness",
                        str(exc),
                    )
                )
                continue
            half = p ** (integer_log(p, k) - 1)
            before = ratio_valuation_by_counting(p, prog, Window(n0, k))
            after = ratio_valuation_by_counting(p, prog, Window(n0 + half, k))
            if before == after:
                failures.append(
                    FailureRecord(
                        {"k": k, "a": a, "b": b, "p": p, "n0": n0},
                        "differing valuations",
                        f"both {before}",
                    )
                )
    return failures


def _suite_prime_period(budget, jobs):
    cases = [
        (k, a, b)
        for k in range(2, 9)
        for (a, b) in _coprime_pairs(10, 10)
    ]
    results = _map_cases(partial(_check_prime_period_case, budget=budget), cases, jobs)
    return len(cases), _flatten(results)


# --- period-decomposition ----------------------------------------------

def _check_decomposition_case(case, budget):
    k, a, b = case
    prog = Progression(a, b)
    full = smallest_period_bruteforce(prog, k, budget)
    combined = math.lcm(
        *(valuation_period_bruteforce(p, prog, k, budget) for p in primes_upto(k))
    )
    if full != combined:
        return [FailureRecord({"k": k, "a": a, "b": b}, full, combined)]
    return []


def _suite_period_decomposition(budget, jobs):
    cases = [
        (k, a, b)
        for k in range(9)
        for (a, b) in _coprime_pairs(10, 10)
    ]
    results = _map_cases(
        partial(_check_decomposition_case, budget=budget), cases, jobs
    )
    return len(cases), _flatten(results)


# --- inclusion-exclusion ------------------------------------------------

def _check_inclusion_exclusion_case(xs):
    expected = math.lcm(*xs)
    actual = lcm_by_inclusion_exclusion(xs)
    if actual != expected:
        return [FailureRecord({"xs": list(xs)}, expected, actual)]
    return []


def _suite_inclusion_exclusion(budget, jobs):
    del budget
    rng = random.Random(SEED)
    cases = [
        tuple(rng.randint(1, 500) for _ in range(rng.randint(2, 8)))
        for _ in range(10_000)
    ]
    results = _map_cases(_check_inclusion_exclusion_case, cases, jobs)
    return len(cases), _flatten(results)


# --- fast-lcm ------------------------------------------------------------

def _suite_fast_lcm(budget, jobs):
    del jobs  # tables are cached across cases; serial is faster here
    rng = random.Random(SEED + 1)
    tables = {}
    failures = []
    cases_run = 0
    for i in range(1000):
        k = rng.randint(0, 10)
        a = rng.randint(1, 8)
        b = rng.randint(0, 8)
        key = (a, b, k)
        if key not in tables:
            tables[key] = build_period_table(Progression(a, b), k, budget)
        table = tables[key]
        if i % 20 == 0:
            # Forced multiples of the period: the residue-0 slot of the
            # table (representative n = period) must be exercised.
            n = table.period * rng.randint(1, max(1, 10**9 // table.period))
        else:
            n = rng.randint(1, 10**9)
        cases_run += 1
        expected = math.lcm(*window_terms(table.prog, Window(n, k)))
        try:
            actual = fast_lcm(table, n)
        except SelfCheckError as exc:
            failures.append(
                FailureRecord({"k": k, "a": a, "b": b, "n": n}, expected, str(exc))
            )
            continue
        if actual != expected:
            failures.append(
                FailureRecord({"k": k, "a": a, "b": b, "n": n}, expected, actual)
            )
    return cases_run, failures


# --- divisibility ---------------------------------------------------------

def _check_divisibility_case(case, n_max):
    tag = case[0]
    failures = []
    if tag == "window":
        _, k, a, b = case
        prog = Progression(a, b)
        kfact = math.factorial(k)
        reduced = prog.is_reduced
        for n in range(1, n_max + 1):
            w = Window(n, k)
            report = check_window_divisibility(prog, w)
            if not report.holds:
                failures.append(
                    FailureRecord(
                        {"check": "window-bound", "k": k, "a": a, "b": b, "n": n},
                        "product divides bound",
                        f"{report.product} does not divide {report.bound}",
                    )
                )
            if reduced:
                ratio = window_ratio(prog, w)
                if kfact % ratio != 0:
                    failures.append(
                        FailureRecord(
                            {"check": "ratio-divides-factorial",
                             "k": k, "a": a, "b": b, "n": n},
                            f"divisor of {kfact}",
                            ratio,
                        )
                    )
    elif tag == "bounds":
        _, n, k = case
        report = check_lcm_bounds(n, k)
        if not report.holds:
            failures.append(
                FailureRecord(
                    {"check": "lcm-bounds", "n": n, "k": k},
                    "lower | lcm | upper",
                    (report.lower, report.lcm, report.upper),
                )
            )
    elif tag == "recursion":
        _, k, n = case
        if not check_ratio_recursion(k, n):
            failures.append(
                FailureRecord(
                    {"check": "recursion", "k": k, "n": n}, True, False
                )
            )
    else:  # first-divides
        _, k, n = case
        prog = Progression(1, 0)
        base = window_ratio(prog, Window(1, k))
        value = window_ratio(prog, Window(n, k))
        if value % base != 0:
            failures.append(
                FailureRecord(
                    {"check": "first-divides", "k": k, "n": n},
                    f"multiple of {base}",
                    value,
                )
            )
    return failures


def _suite_divisibility(budget, jobs):
    del budget
    cases = (
        [("window", k, a, b)
         for k in range(9)
         for a in range(1, 11)
         for b in range(11)]
        + [("bounds", n, k) for n in range(1, 301) for k in range(11)]
        + [("recursion", k, n) for k in range(1, 9) for n in range(1, 501)]
        + [("first", k, n) for k in range(9) for n in range(1, 501)]
    )
    results = _map_cases(partial(_check_divisibility_case, n_max=200), cases, jobs)
    return len(cases), _flatten(results)


# --- exceptional-prime -----------------------------------------------------

def _check_exceptional_case(k):
    try:
        exceptional_factor(k, 1)
    except SelfCheckError as exc:
        return [FailureRecord({"k": k}, "at most one prime", str(exc))]
    return []


def _suite_exceptional_prime(budget, jobs):
    del budget
    cases = list(range(10_001))
    results = _map_cases(_check_exceptional_case, cases, jobs)
    return len(cases), _flatten(results)


# --- odd-progression --------------------------------------------------------

def _suite_odd_progression(budget, jobs):
    del jobs
    prog = Progression(2, 1)
    failures = []
    cases_run = 0
    for k in range(9):
        cases_run += 1
        closed = smallest_period(prog, k).value
        oracle = smallest_period_bruteforce(prog, k, budget)
        if closed != oracle:
            failures.append(FailureRecord({"k": k}, oracle, closed))
    for k, expected in ((2, 1), (3, 3), (5, 5)):
        cases_run += 1
        closed = smallest_period(prog, k).value
        if closed != expected:
            failures.append(
                FailureRecord({"k": k, "check": "frozen"}, expected, closed)
            )
    return cases_run, failures


# --- gcd-transfer -------------------------------------------------------------

def _check_gcd_transfer_case(case, n_max):
    k, a, b = case
    prog = Progression(a, b)
    shift = lcm_upto(k).value
    failures = []
    for n in range(1, n_max + 1):
        terms_a = window_terms(prog, Window(n, k))
        terms_b = window_terms(prog, Window(n + shift, k))
        report = check_gcd_transfer(terms_a, terms_b, 2)
        if not report.hypothesis_held or not report.conclusion_held:
            failures.append(
                FailureRecord(
                    {"k": k, "a": a, "b": b, "n": n, "t": 2},
                    "hypothesis and conclusion",
                    (report.hypothesis_held, report.conclusion_held),
                )
            )
        if k >= 2:
            report3 = check_gcd_transfer(terms_a, terms_b, 3)
            if not report3.hypothesis_held or not report3.conclusion_held:
                failures.append(
                    FailureRecord(
                        {"k": k, "a": a, "b": b, "n": n, "t": 3},
                        "hypothesis and conclusion",
                        (report3.hypothesis_held, report3.conclusion_held),
                    )
                )
    return failures


def _suite_gcd_transfer(budget, jobs):
    del budget
    cases = [
        (k, a, b)
        for k in range(1, 7)
        for (a, b) in _coprime_pairs(6, 6)
    ]
    results = _map_cases(partial(_check_gcd_transfer_case, n_max=50), cases, jobs)
    return len(cases), _flatten(results)


# --- scaling --------------------------------------------------------------------

def _check_scaling_case(case, budget):
    tag = case[0]
    failures = []
    if tag == "ratio":
        _, k, a, b = case
        prog = Progression(a, b)
        reduced = prog.reduced()
        d = prog.d
        for n in range(1, 101):
            whole = window_ratio(prog, Window(n, k))
            scaled = d**k * window_ratio(reduced, Window(n, k))
            if whole != scaled:
                failures.append(
                    FailureRecord(
                        {"check": "ratio-scaling", "k": k, "a": a, "b": b, "n": n},
                        scaled,
                        whole,
                    )
                )
    elif tag == "period":
        _, k, a, b = case
        prog = Progression(a, b)
        full = smallest_period_bruteforce(prog, k, budget)
        red = smallest_period_bruteforce(prog.reduced(), k, budget)
        if full != red:
            failures.append(
                FailureRecord(
                    {"check": "reduced-period", "k": k, "a": a, "b": b}, red, full
                )
            )
    else:  # relation to the consecutive-integer period
        _, k, a, b = case
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
            failures.append(
                FailureRecord(
                    {"check": "base-relation", "k": k, "a": a, "b": b},
                    expected,
                    value,
                )
            )
        if b % a == 0 and value != base:
            failures.append(
                FailureRecord(
                    {"check": "divisible-offset", "k": k, "a": a, "b": b},
                    base,
                    value,
                )
            )
    return failures


def _suite_scaling(budget, jobs):
    unreduced = [
        (a, b)
        for a in range(1, 11)
        for b in range(11)
        if math.gcd(a, b) > 1
    ]
    cases = (
        [("ratio", k, a, b) for k in range(7) for (a, b) in unreduced]
        + [("period", k, a, b) for k in range(7) for (a, b) in unreduced]
        + [("relation", k, a, b)
           for k in range(9)
           for a in range(1, 11)
           for b in range(11)]
    )
    results = _map_cases(partial(_check_scaling_case, budget=budget), cases, jobs)
    return len(cases), _flatten(results)


# --- window-counts -----------------------------------------------------------------

def _check_window_counts_case(case, n_max):
    p, a, b = case
    prog = Progression(a, b)
    failures = []
    for k in range(1, 8):
        max_exp = integer_log(p, k) if p <= k else 0
        for e in range(1, 5):
            for n in range(1, n_max + 1):
                w = Window(n, k)
                fast = count_multiples(p, e, prog, w)
                slow = count_multiples_naive(p, e, prog, w)
                if fast != slow:
                    failures.append(
                        FailureRecord(
                            {"check": "count", "p": p, "e": e,
                             "a": a, "b": b, "k": k, "n": n},
                            slow,
                            fast,
                        )
                    )
                if a % p != 0:
                    if e > max_exp and fast > 1:
                        failures.append(
                            FailureRecord(
                                {"check": "above-threshold", "p": p, "e": e,
                                 "a": a, "b": b, "k": k, "n": n},
                                "at most 1",
                                fast,
                            )
                        )
                    if e <= max_exp and fast < 1:
                        failures.append(
                            FailureRecord(
                                {"check": "below-threshold", "p": p, "e": e,
                                 "a": a, "b": b, "k": k, "n": n},
                                "at least 1",
                                fast,
                            )
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
                    failures.append(
                        FailureRecord(
                            {"check": "distinct-residues", "p": p, "e": e,
                             "a": a, "b": b, "n": n},
                            pe,
                            len(residues),
                        )
                    )
    return failures


def _suite_window_counts(budget, jobs):
    del budget
    cases = [
        (p, a, b)
        for p in (2, 3, 5, 7)
        for (a, b) in _coprime_pairs(6, 6)
    ]
    results = _map_cases(partial(_check_window_counts_case, n_max=60), cases, jobs)
    return len(cases), _flatten(results)


# --- periodicity ----------------------------------------------------------------------

def _check_periodicity_case(case, n_max):
    k, a, b = case
    prog = Progression(a, b)
    shift = lcm_upto(k).value
    failures = []
    for n in range(1, n_max + 1):
        at_n = window_ratio(prog, Window(n, k))
        shifted = window_ratio(prog, Window(n + shift, k))
        if at_n != shifted:
            failures.append(
                FailureRecord({"k": k, "a": a, "b": b, "n": n}, at_n, shifted)
            )
    return failures


def _suite_periodicity(budget, jobs):
    del budget
    cases = [
        (k, a, b)
        for k in range(7)
        for a in range(1, 9)
        for b in range(9)
    ]
    results = _map_cases(partial(_check_periodicity_case, n_max=100), cases, jobs)
    return len(cases), _flatten(results)


# --- integer-basics ----------------------------------------------------------------------

def _suite_integer_basics(budget, jobs):
    del budget, jobs
    failures = []
    cases_run = 0
    for k in range(31):
        cases_run += 1
        factored = lcm_upto(k)
        iterated = math.lcm(*range(1, k + 1))
        if factored.value != iterated:
            failures.append(
                FailureRecord({"check": "lcm-upto", "k": k}, iterated, factored.value)
            )
        for p in primes_upto(k):
            if valuation(p, factored.value) != integer_log(p, k):
                failures.append(
                    FailureRecord(
                        {"check": "prime-power", "k": k, "p": p},
                        integer_log(p, k),
                        valuation(p, factored.value),
                    )
                )
    for p in primes_upto(30):
        for k in range(1, 1001):
            cases_run += 1
            e = integer_log(p, k)
            if not (p**e <= k < p ** (e + 1)):
                failures.append(
                    FailureRecord({"check": "integer-log", "p": p, "k": k},
                                  "sandwich", e)
                )
    rng = random.Random(SEED + 2)
    for _ in range(2000):
        cases_run += 1
        xs = [rng.randint(1, 10**6) for _ in range(rng.randint(1, 8))]
        total = math.lcm(*xs)
        if any(total % x != 0 for x in xs) or math.prod(xs) % total != 0:
            failures.append(
                FailureRecord({"check": "lcm", "xs": xs}, "divides", total)
            )
    return cases_run, failures


SUITES = {
    "period-closed-form": _suite_period_closed_form,
    "consecutive-periods": _suite_consecutive_periods,
    "valuation-consistency": _suite_valuation_consistency,
    "prime-period": _suite_prime_period,
    "period-decomposition": _suite_period_decomposition,
    "inclusion-exclusion": _suite_inclusion_exclusion,
    "fast-lcm": _suite_fast_lcm,
    "divisibility": _suite_divisibility,
    "exceptional-prime": _suite_exceptional_prime,
    "odd-progression": _suite_odd_progression,
    "gcd-transfer": _suite_gcd_transfer,
    "scaling": _suite_scaling,
    "window-counts": _suite_window_counts,
    "periodicity": _suite_periodicity,
    "integer-basics": _suite_integer_basics,
}


def available_suites() -> list[str]:
    return list(SUITES)


def run_suite(
    name: str, budget: int = DEFAULT_BUDGET, jobs: int = 1
) -> VerificationReport:
    if name not in SUITES:
        raise KeyError(name)
    start = perf_counter()
    cases_run, failures = SUITES[name](budget, jobs)
    if cases_run <= 0:
        raise SelfCheckError(f"suite {name} ran no cases")
    return VerificationReport(
        suite=name,
        cases_run=cases_run,
        failures=failures,
        elapsed=perf_counter() - start,
    )
