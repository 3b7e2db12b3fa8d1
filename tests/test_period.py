import math
import pickle
import random
import sys
import tracemalloc
from itertools import accumulate

import pytest

from aplcm import numtheory, period
from aplcm.errors import BudgetExceededError, SelfCheckError
from aplcm.gfun import (
    Progression,
    Window,
    window_ratio,
)
from aplcm.numtheory import (
    MILLER_RABIN_BOUND,
    _product_tree,
    integer_log,
    lcm_upto,
    primes_upto,
    valuation,
)
from aplcm.period import (
    closed_form_period,
    exceptional_factor,
    nonperiod_witness,
    period_rows,
    smallest_period,
    smallest_period_bruteforce,
    valuation_period_bruteforce,
)


def coprime_pairs(a_max, b_max):
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(b_max + 1)
        if math.gcd(a, b) == 1
    ]


def test_exceptional_factor_examples():
    assert exceptional_factor(3, 1) == (2, 2)
    assert exceptional_factor(5, 1) == (3, 3)
    assert exceptional_factor(4, 1) == (1, None)
    assert exceptional_factor(0, 7) == (1, None)
    assert exceptional_factor(1, 1) == (1, None)
    # the qualifying prime must not divide a
    assert exceptional_factor(5, 3) == (1, None)


def _exceptional_by_definition(k, a):
    """Every prime p <= k, p not dividing a, whose valuation in k + 1
    reaches integer_log(p, k); at most one."""
    hits = [p for p in primes_upto(k)
            if a % p != 0 and valuation(p, k + 1) >= integer_log(p, k)]
    assert len(hits) <= 1, (k, a, hits)
    return (hits[0] ** integer_log(hits[0], k), hits[0]) if hits else (1, None)


def test_exceptional_factor_matches_its_definition():
    # k = 3 needs the sieve's primes up to isqrt(k + 1), not isqrt(k);
    # at k = 11 the leftover 3 of k + 1 = 12 has exponent 2 in lcm(1..11).
    for k in range(3001):
        for a in (1, 2, 3, 6, 7, 30):
            assert exceptional_factor(k, a) == _exceptional_by_definition(k, a), (k, a)


def test_exceptional_factor_on_an_empty_sieve(monkeypatch):
    for k, want in ((0, (1, None)), (1, (1, None)), (2, (1, None)), (3, (2, 2))):
        monkeypatch.setattr(numtheory, "_sieve", (1, (), (), ()))
        assert exceptional_factor(k, 1) == want


def test_closed_form_period_examples():
    for k, a, expected in ((2, 1, 2), (3, 1, 3), (5, 2, 5), (0, 7, 1)):
        exponents = closed_form_period(k, a)
        assert math.prod(p ** exponents.get(p, 1) for p in primes_upto(k)) == expected


def test_closed_form_matches_bruteforce_for_coprime_pairs():
    for k in range(6):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            assert smallest_period(prog, k).value == \
                smallest_period_bruteforce(prog, k)


def test_smallest_period_examples():
    assert smallest_period(Progression(1, 0), 7).value == 105
    assert smallest_period(Progression(2, 1), 2).value == 1
    assert smallest_period(Progression(6, 3), 5).value == 5
    # each confirmed by the exhaustive search
    assert smallest_period_bruteforce(Progression(1, 0), 7) == 105
    assert smallest_period_bruteforce(Progression(2, 1), 2) == 1
    assert smallest_period_bruteforce(Progression(6, 3), 5) == 5


def test_period_report_structure():
    report = smallest_period(Progression(6, 3), 5)
    assert report.a_reduced == 2
    assert report.exceptional == 3 and report.exceptional_prime == 3
    assert report.removed_primes == [(2, 2)]
    # period * exceptional * removed prime powers recovers lcm(1..k)
    removed = math.prod(q**e for q, e in report.removed_primes)
    assert report.value * report.exceptional * removed == lcm_upto(5)
    # the per-prime periods p ** exponents.get(p, 1) multiply to the period
    assert report.exponents == {2: 0, 3: 0}
    exps = report.exponents
    assert math.prod(p ** exps.get(p, 1) for p in primes_upto(5)) == report.value


def test_period_report_identities_hold_across_sweep():
    cases = [(k, a, b) for k in range(9) for a in range(1, 11) for b in range(11)]
    cases += [(k, a, 1) for k in (100, 1000, 10**4) for a in (1, 6, 35)]
    cases += [(10**5, 7, 3), (10**6, 7, 3)]
    for k, a, b in cases:
        report = smallest_period(Progression(a, b), k)
        removed = _product_tree(q**e for q, e in report.removed_primes)
        assert report.value * report.exceptional * removed == lcm_upto(k)
        exps = report.exponents
        assert _product_tree(p ** exps.get(p, 1) for p in primes_upto(k)) == \
            report.value
        dropped = {q for q, _ in report.removed_primes}
        dropped.add(report.exceptional_prime)
        kept = {p: integer_log(p, k) for p in primes_upto(k) if p not in dropped}
        # The sparse table: every exponent of the period other than 1.
        exponents = {p: e for p, e in kept.items() if e != 1}
        exponents.update((q, 0) for q in dropped - {None})
        assert report.exponents == exponents
        assert closed_form_period(k, report.a_reduced) == exponents


def test_report_derives_its_factorization_on_access():
    report = smallest_period(Progression(6, 1), 10**5)
    assert "exponents" not in vars(report)
    # Before and after the exponent table is derived, a pickled report
    # comes back equal and derives the same table.
    fresh = pickle.loads(pickle.dumps(report))
    assert "exponents" not in vars(fresh)
    exponents = report.exponents
    # 2 and 3 divide a, and 100001 = 11 * 9091 absorbs the block 9091.
    assert report.exceptional_prime == 9091
    assert {p for p, e in exponents.items() if not e} == {2, 3, 9091}
    for copy in (fresh, pickle.loads(pickle.dumps(report))):
        assert copy == report and copy.value == report.value
        assert copy.exponents == exponents
    assert closed_form_period(10**5, report.a_reduced) == exponents


def test_removed_primes_are_the_prime_divisors_of_a_large_difference():
    # Every sweep elsewhere draws a <= 60; here a reaches 10^6, so its
    # large prime divisors up to k must be removed too.
    rng = random.Random(20)
    for _ in range(200):
        a, k = rng.randint(1, 10**6), rng.choice((100, 1000, 5000))
        want = [(p, integer_log(p, k)) for p in primes_upto(k) if a % p == 0]
        assert smallest_period(Progression(a, 1), k).removed_primes == want, (a, k)


def test_report_lcm_upto_matches_lcm_upto():
    cases = [(k, a, b) for k in range(61) for a, b in ((1, 0), (6, 1), (35, 12))]
    cases.append((10**4, 35, 12))
    reports = [smallest_period(Progression(a, b), k) for k, a, b in cases]
    for report in reports:
        removed = math.prod(q**e for q, e in report.removed_primes)
        assert report.value * report.exceptional * removed == lcm_upto(report.k)
    # The sweep meets both primes that drop out of the period.
    assert any(r.removed_primes for r in reports)
    assert any(r.exceptional_prime is not None for r in reports)


def test_period_is_checked_against_the_cached_lcm(monkeypatch):
    # lcm(1..10) = 2520 and a = 6 removes 2^3 * 3^2 = 72; half of 2520 is
    # no multiple of 72, so the division leaves a remainder.
    monkeypatch.setattr(
        "aplcm.period._cached_lcm_upto", lambda k: lcm_upto(k) // 2
    )
    with pytest.raises(SelfCheckError):
        smallest_period(Progression(6, 1), 10)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int/str digit limit",
)
def test_reprs_of_large_results_convert_no_big_integer():
    # At k = 10^4 the period and lcm(1..k) have over 4300 digits, the
    # interpreter's default limit for converting an int to decimal.
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        report = smallest_period(Progression(1, 0), 10**4)
        assert report.value * report.exceptional > 10**4300
        assert repr(report).startswith("PeriodReport")
    finally:
        sys.set_int_max_str_digits(saved)


ROW_PAIRS = ((1, 0), (7, 3), (6, 4), (35, 12), (30, 1), (12, 18))


@pytest.mark.parametrize("a, b", ROW_PAIRS)
def test_period_rows_match_smallest_period(a, b):
    # Covers unreduced pairs and a = 30, which removes 2, 3 and 5.
    prog = Progression(a, b)
    rows = list(period_rows(prog, 600))
    assert [row[0] for row in rows] == list(range(601))
    for k, lcm, exceptional, period in rows:
        report = smallest_period(prog, k)
        assert (exceptional, period) == (report.exceptional, report.value), k
        # period_rows walks the sieve's ladder; lcm_upto does not.
        assert lcm == lcm_upto(k), k


def test_period_rows_smallest_ranges():
    for a, b in ROW_PAIRS:
        prog = Progression(a, b)
        assert list(period_rows(prog, 0)) == [(0, 1, 1, 1)]
        assert list(period_rows(prog, 1)) == [(0, 1, 1, 1), (1, 1, 1, 1)]
    with pytest.raises(ValueError):
        list(period_rows(Progression(1, 0), -1))


def test_period_rows_from_an_empty_sieve(monkeypatch):
    # k_max <= 1 leaves the empty sieve as it is, so the ladder is empty.
    for k_max, rows in ((0, [(0, 1, 1, 1)]), (1, [(0, 1, 1, 1), (1, 1, 1, 1)])):
        monkeypatch.setattr(numtheory, "_sieve", (1, (), (), ()))
        assert list(period_rows(Progression(1, 0), k_max)) == rows
        assert numtheory._sieve[0] == 1


def test_period_rows_run_to_the_end_of_the_ladder(monkeypatch):
    # From an empty sieve, k_max = 1024 = 2^10 is the sieve's limit and
    # its last prime power, so the walk uses up the whole ladder.
    monkeypatch.setattr(numtheory, "_sieve", (1, (), (), ()))
    rows = list(period_rows(Progression(1, 0), 1024))
    assert numtheory._sieve[0] == 1024
    assert rows[-1][:2] == (1024, lcm_upto(1024))


def test_bruteforce_small_examples():
    assert smallest_period_bruteforce(Progression(1, 0), 0) == 1
    assert smallest_period_bruteforce(Progression(1, 0), 2) == 2
    # ratio at n = 1..6 cycles 2, 2, 6
    values = [window_ratio(Progression(1, 0), Window(n, 3)) for n in range(1, 7)]
    assert values == [2, 2, 6, 2, 2, 6]
    assert smallest_period_bruteforce(Progression(1, 0), 3) == 3


def test_bruteforce_asks_the_kernel_for_one_span_and_its_answer(monkeypatch):
    # The search compares the ratios at 1..L with those at t+1..t+L for
    # the divisors t of L = lcm(1..k) in turn, and reads no ratio past
    # L + t for the t it returns: exactly L + t windows.
    requested = []
    kernel = period._ratios

    def counting(a, b, k, n_lo, count):
        requested.append(count)
        return kernel(a, b, k, n_lo, count)

    monkeypatch.setattr(period, "_ratios", counting)
    for k in range(9):
        for a, b in ((1, 0), (3, 2), (6, 4)):
            requested.clear()
            t = smallest_period_bruteforce(Progression(a, b), k)
            assert sum(requested) == lcm_upto(k) + t


def _corrupt_ratio_at(monkeypatch, bad_n):
    """Make the kernel return 0, which no ratio equals, at start index bad_n."""
    kernel = period._ratios

    def corrupted(a, b, k, n_lo, count):
        values = kernel(a, b, k, n_lo, count)
        if n_lo <= bad_n < n_lo + count:
            values[bad_n - n_lo] = 0
        return values

    monkeypatch.setattr(period, "_ratios", corrupted)


# (k, L, t): the consecutive-integer progression with a period t below L.
SHORT_PERIODS = [(3, 6, 3), (5, 60, 20), (7, 420, 105)]


@pytest.mark.parametrize("k, big_l, t", SHORT_PERIODS)
def test_bruteforce_reads_the_tail_its_answer_needs(monkeypatch, k, big_l, t):
    assert smallest_period_bruteforce(Progression(1, 0), k) == t
    # The ratio at L + t is compared only by the part of the check that
    # reads past L; no divisor of L is a period of the corrupted sequence.
    _corrupt_ratio_at(monkeypatch, big_l + t)
    with pytest.raises(SelfCheckError, match="no divisor"):
        smallest_period_bruteforce(Progression(1, 0), k)


@pytest.mark.parametrize("k, big_l, t", SHORT_PERIODS)
def test_bruteforce_checks_the_first_span(monkeypatch, k, big_l, t):
    # The ratio at 1 is compared only inside the first span, with the
    # ratio at 1 + t, never by the part of the check that reads past L.
    _corrupt_ratio_at(monkeypatch, 1)
    with pytest.raises(SelfCheckError, match="no divisor"):
        smallest_period_bruteforce(Progression(1, 0), k)


def test_bruteforce_budget_guard():
    with pytest.raises(BudgetExceededError):
        smallest_period_bruteforce(Progression(1, 0), 8, budget=100)
    with pytest.raises(BudgetExceededError, match=r"work ~2\^\d+ > budget"):
        smallest_period_bruteforce(Progression(1, 0), 13)
    # The work, about 2^407 here, is given by its bit length only.
    with pytest.raises(BudgetExceededError, match=r"needs work ~2\^\d+ > budget"):
        valuation_period_bruteforce(2, Progression(1, 0), 10**60, budget=10**6)


def test_bruteforce_refuses_a_large_k_before_it_sieves(monkeypatch):
    # (k + 1) << k, a lower bound of the work from k = 7 on, is charged
    # before the sieve and lcm(1..k).
    def refuse(k):
        raise AssertionError("the refused search sieved or built lcm(1..k)")

    monkeypatch.setattr(period, "primes_upto", refuse)
    monkeypatch.setattr(period, "lcm_upto", refuse)
    with pytest.raises(BudgetExceededError, match=r"k=1000000 needs work ~2\^1000020\b"):
        smallest_period_bruteforce(Progression(1, 0), 10**6)


def test_bruteforce_refuses_k_1e9_without_building_its_bound():
    # (k + 1) << k would be a 125 MB int at k = 10^9; its bit length,
    # k + 30, is compared with the budget's first.
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError,
                           match=r"k=1000000000 needs work ~2\^1000000030 > budget 10000000$"):
            smallest_period_bruteforce(Progression(1, 0), 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_bruteforce_lower_bound_refusal_names_the_same_work_either_way():
    # Half the bound is refused by bit length alone, bound - 1 mostly by
    # comparing the bound itself; both name ~2^N, N the bound's bits.
    for k in range(7, 40):
        bound = (k + 1) << k
        for budget in (bound >> 1, bound - 1):
            with pytest.raises(BudgetExceededError) as refused:
                smallest_period_bruteforce(Progression(1, 0), k, budget)
            assert str(refused.value) == (
                f"full-period search for k={k} needs work "
                f"~2^{bound.bit_length()} > budget {budget}"
            )


def test_bruteforce_lower_bound_never_exceeds_the_work():
    # lcm(1..k) >= 2^k for k >= 7 (Nair), so the bound admits every
    # search that the exact work admits: at k = 7 the work is
    # lcm(1..7) * 8 * 24 divisors = 80 640, against a bound of 1024.
    for k, lcm in enumerate(accumulate(range(1, 3001), math.lcm, initial=1)):
        assert k < 7 or lcm >= 1 << k, k
    assert smallest_period_bruteforce(Progression(1, 0), 7, budget=80_640) == 105
    with pytest.raises(BudgetExceededError):
        smallest_period_bruteforce(Progression(1, 0), 7, budget=80_639)


@pytest.mark.parametrize("a, b", [(1, 0), (7, 3), (194, 1)])
@pytest.mark.parametrize("p", [2, 97])
def test_valuation_period_search_at_large_k_is_under_the_default_budget(p, a, b):
    # The search is charged 2 * p**E * (E + 1): 229 376 at p = 2 and
    # 56 454 at p = 97 for k = 10**4, where E = 13 and 2.
    prog = Progression(a, b)
    k = 10**4
    expected = p ** smallest_period(prog, k).exponents.get(p, 1)
    assert valuation_period_bruteforce(p, prog, k) == expected


def test_valuation_period_examples():
    assert valuation_period_bruteforce(2, Progression(1, 0), 5) == 4
    assert valuation_period_bruteforce(3, Progression(1, 0), 5) == 1
    assert valuation_period_bruteforce(5, Progression(5, 2), 6) == 1
    with pytest.raises(ValueError):
        valuation_period_bruteforce(2, Progression(4, 2), 5)


def test_valuation_period_dichotomy():
    for k in range(2, 7):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for p in primes_upto(k):
                if a % p == 0:
                    expected = 1
                else:
                    max_e = integer_log(p, k)
                    expected = 1 if valuation(p, k + 1) >= max_e else p**max_e
                assert valuation_period_bruteforce(p, prog, k) == expected


def test_full_period_is_lcm_of_valuation_periods():
    for k in range(7):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            parts = [
                valuation_period_bruteforce(p, prog, k) for p in primes_upto(k)
            ]
            assert smallest_period_bruteforce(prog, k) == math.lcm(*parts)


def ratio_valuations(p, prog, k, n0, shift):
    """The valuations at p of the ratios at n0 and n0 + shift, directly."""
    return tuple(valuation(p, window_ratio(prog, Window(n, k)))
                 for n in (n0, n0 + shift))


def test_nonperiod_witness_examples():
    # The proof: n0 and the valuations at n0 and n0 + p**(E-1).
    assert nonperiod_witness(2, Progression(1, 0), 5) == (4, 3, 2)
    assert ratio_valuations(2, Progression(1, 0), 5, 4, 2) == (3, 2)

    n0, *counts = nonperiod_witness(3, Progression(1, 0), 9)
    assert n0 % 9 == 0
    assert tuple(counts) == ratio_valuations(3, Progression(1, 0), 9, n0, 3)
    assert nonperiod_witness(2, Progression(3, 1), 5) == (1, 3, 2)
    assert ratio_valuations(2, Progression(3, 1), 5, 1, 2) == (3, 2)


def test_nonperiod_witness_end_placement_case():
    """(k+1) mod p**E in the top p**(E-1)-1 residues puts the multiple of
    p**E at offset p**(E-1)-1 instead of the window start."""
    # 7 mod 4 = 3 > 2
    assert nonperiod_witness(2, Progression(1, 0), 6) == (3, 3, 2)
    assert ratio_valuations(2, Progression(1, 0), 6, 3, 2) == (3, 2)

    n0, *counts = nonperiod_witness(3, Progression(1, 0), 15)  # 16 mod 9 = 7 > 6
    assert n0 % 9 == 7 and counts == [5, 4]
    assert ratio_valuations(3, Progression(1, 0), 15, n0, 3) == (5, 4)

    n0, *counts = nonperiod_witness(2, Progression(5, 3), 6)
    assert n0 == 4
    assert tuple(counts) == ratio_valuations(2, Progression(5, 3), 6, 4, 2)


def test_nonperiod_witness_verified_by_scan():
    for k in range(2, 8):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for p in primes_upto(k):
                max_e = integer_log(p, k)
                if a % p == 0 or valuation(p, k + 1) >= max_e:
                    continue
                n0, before, after = nonperiod_witness(p, prog, k)
                assert n0 >= 1
                half = p ** (max_e - 1)
                assert (before, after) == ratio_valuations(p, prog, k, n0, half)
                assert before != after


def test_nonperiod_witness_preconditions():
    with pytest.raises(ValueError, match="reduced"):
        nonperiod_witness(2, Progression(4, 2), 5)
    with pytest.raises(ValueError, match="divides"):
        nonperiod_witness(2, Progression(2, 1), 5)
    with pytest.raises(ValueError, match="exceeds"):
        nonperiod_witness(7, Progression(1, 0), 5)
    with pytest.raises(ValueError, match="maximal"):
        nonperiod_witness(2, Progression(1, 0), 3)


def no_primality_test(n):
    raise AssertionError(f"is_prime({n}) was called")


def test_nonperiod_witness_refuses_p_at_the_primality_bound(monkeypatch):
    # is_prime would refuse such a p too; the bound is checked before it.
    monkeypatch.setattr(numtheory, "is_prime", no_primality_test)
    with pytest.raises(ValueError, match="must be below"):
        nonperiod_witness(MILLER_RABIN_BOUND, Progression(1, 0), 10**26)
    # The O(1) preconditions still come first.
    with pytest.raises(ValueError, match="exceeds"):
        nonperiod_witness(MILLER_RABIN_BOUND, Progression(1, 0), 10)
    with pytest.raises(ValueError, match="divides"):
        nonperiod_witness(MILLER_RABIN_BOUND, Progression(MILLER_RABIN_BOUND, 1),
                          10**26)


# Every public function that takes a prime p, called with p = 2**89 - 1:
# a Mersenne prime above the bound, where is_prime decides nothing.
PRIME_TAKERS = {
    "valuation": lambda p: valuation(p, 5),
    "valuation_period_bruteforce": lambda p: valuation_period_bruteforce(
        p, Progression(1, 0), 5
    ),
    "nonperiod_witness": lambda p: nonperiod_witness(p, Progression(1, 0), 10**27),
}


@pytest.mark.parametrize("call", PRIME_TAKERS.values(), ids=PRIME_TAKERS)
def test_prime_argument_is_bounded_before_any_primality_test(monkeypatch, call):
    p = 2**89 - 1
    assert p > MILLER_RABIN_BOUND
    monkeypatch.setattr(numtheory, "is_prime", no_primality_test)
    with pytest.raises(ValueError, match="must be below"):
        call(p)


def test_closed_form_equals_bruteforce_including_unreduced():
    for k in range(6):
        for a in range(1, 7):
            for b in range(7):
                prog = Progression(a, b)
                assert smallest_period(prog, k).value == \
                    smallest_period_bruteforce(prog, k)


def test_reduction_preserves_smallest_period():
    pairs = [(a, b) for a in range(1, 9) for b in range(9) if math.gcd(a, b) > 1]
    for k in range(6):
        for a, b in pairs:
            prog = Progression(a, b)
            assert smallest_period_bruteforce(prog, k) == \
                smallest_period_bruteforce(prog.reduced(), k)


def test_relation_to_consecutive_integer_period():
    for k in range(9):
        base = smallest_period(Progression(1, 0), k).value
        for a in range(1, 11):
            for b in range(11):
                prog = Progression(a, b)
                removed = math.prod(
                    p ** integer_log(p, k)
                    for p in primes_upto(k)
                    if prog.a_reduced % p == 0 and base % p == 0
                )
                assert base % removed == 0
                assert smallest_period(prog, k).value == base // removed
                if b % a == 0:
                    assert smallest_period(prog, k).value == base


def test_selfcheck_error_is_distinct_from_value_error():
    assert not issubclass(SelfCheckError, ValueError)


def test_smallest_period_around_prime_squares():
    # Primes above isqrt(k) take exponent 1 without integer_log; k = p**2
    # is where p itself needs the second power.
    progs = [Progression(1, 0), Progression(2, 1), Progression(3, 1),
             Progression(5, 2), Progression(6, 4)]
    for p in (2, 3):
        for k in (p * p - 1, p * p, p * p + 1):
            for prog in progs:
                assert smallest_period(prog, k).value == \
                    smallest_period_bruteforce(prog, k)
    for p in (5, 7):
        for k in (p * p - 1, p * p, p * p + 1):
            for prog in progs[:4]:
                per_prime = math.lcm(*(
                    valuation_period_bruteforce(q, prog, k)
                    for q in primes_upto(k)
                ))
                assert smallest_period(prog, k).value == per_prime


def test_oracles_validate_before_their_loops():
    with pytest.raises(ValueError, match="k must be"):
        smallest_period_bruteforce(Progression(1, 0), -1)
    with pytest.raises(ValueError, match="k must be"):
        valuation_period_bruteforce(2, Progression(1, 0), -1)
    with pytest.raises(ValueError, match="reduced"):
        valuation_period_bruteforce(2, Progression(6, 4), 5)
    with pytest.raises(ValueError, match="not prime"):
        valuation_period_bruteforce(4, Progression(1, 0), 5)
