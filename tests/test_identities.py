import hashlib
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from aplcm import verify
from aplcm.errors import BudgetExceededError, SelfCheckError
from aplcm.gfun import Progression, Window, _ratio, window_ratio, window_terms
from aplcm.identities import (
    PeriodTable,
    _adjusted_ratio,
    build_period_table,
    check_gcd_transfer,
    check_lcm_bounds,
    check_ratio_recursion,
    fast_lcm,
    lcm_by_inclusion_exclusion,
    load_period_table,
    save_period_table,
)


def test_inclusion_exclusion_examples():
    assert lcm_by_inclusion_exclusion([2, 3, 4]) == 12
    assert lcm_by_inclusion_exclusion([7]) == 7
    assert lcm_by_inclusion_exclusion([6, 10, 15]) == 30


def test_inclusion_exclusion_matches_lcm_many():
    rng = random.Random(3)
    for _ in range(500):
        xs = [rng.randint(1, 500) for _ in range(rng.randint(2, 8))]
        assert lcm_by_inclusion_exclusion(xs) == math.lcm(*xs)


def test_inclusion_exclusion_matches_lcm_up_to_the_cap():
    rng = random.Random(5)
    small = [2, 2, 3, 4, 5, 6, 9, 12, 30]
    for n in range(1, 21):
        for _ in range(3):
            # Entries up to 10**9 that share small factors, with 1s and
            # repeats among them.
            xs = [rng.choice(small) * rng.randint(1, 10**9 // 30)
                  for _ in range(n)]
            for i in rng.sample(range(n), n // 4):
                xs[i] = rng.choice([1, xs[0]])
            assert lcm_by_inclusion_exclusion(xs) == math.lcm(*xs), xs


def test_inclusion_exclusion_when_every_subset_has_its_own_gcd():
    # x_i = P / p_i: a subset's gcd is P over the product of its primes,
    # so all 2**12 - 1 subsets have different gcds.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
    big_p = math.prod(primes)
    assert lcm_by_inclusion_exclusion([big_p // p for p in primes]) == big_p


def test_inclusion_exclusion_input_guards():
    with pytest.raises(ValueError):
        lcm_by_inclusion_exclusion([])
    with pytest.raises(ValueError):
        lcm_by_inclusion_exclusion([3, 0, 2])
    with pytest.raises(BudgetExceededError):
        lcm_by_inclusion_exclusion([1] * 21)


def test_gcd_transfer_matching_windows():
    report = check_gcd_transfer([3, 4, 5, 6], [9, 10, 11, 12], 2)
    assert report.hypothesis_held and report.conclusion_held
    assert report.invariant_a == report.invariant_b == Fraction(6)


def test_gcd_transfer_identical_tuples():
    for t in (2, 3, 4):
        report = check_gcd_transfer([6, 10, 15, 21], [6, 10, 15, 21], t)
        assert report.hypothesis_held and report.conclusion_held


def test_gcd_transfer_failed_hypothesis():
    report = check_gcd_transfer([2, 4], [3, 9], 2)
    assert not report.hypothesis_held
    assert report.conclusion_held is None and report.invariant_a is None


def test_gcd_transfer_order_three():
    # windows shifted by lcm(1..3) = 6 keep all pairwise gcds, hence
    # all triple gcds, and both adjusted ratios
    xs_a = window_terms(Progression(1, 0), Window(2, 3))
    xs_b = window_terms(Progression(1, 0), Window(8, 3))
    report = check_gcd_transfer(xs_a, xs_b, 3)
    assert report.hypothesis_held and report.conclusion_held


def stepwise_adjusted_ratio(xs, t):
    """The adjusted ratio one Fraction step per subset gcd."""
    inv = Fraction(math.prod(xs), math.lcm(*xs))
    for r in range(2, t):
        for comb in combinations(xs, r):
            g = math.gcd(*comb)
            inv = inv * g if r % 2 == 1 else inv / g
    return inv


def test_adjusted_ratio_matches_the_stepwise_product():
    rng = random.Random(11)
    for _ in range(400):
        xs = [rng.randint(1, 300) for _ in range(rng.randint(2, 7))]
        for t in range(2, len(xs) + 1):
            assert _adjusted_ratio(xs, t) == stepwise_adjusted_ratio(xs, t)


def test_gcd_transfer_validation():
    with pytest.raises(ValueError):
        check_gcd_transfer([1, 2], [1, 2, 3], 2)
    with pytest.raises(ValueError):
        check_gcd_transfer([1, 2], [1, 2], 3)
    with pytest.raises(ValueError):
        check_gcd_transfer([1, 2], [1, 2], 1)


def test_lcm_bounds_examples():
    report = check_lcm_bounds(2, 2)
    assert (report.lcm, report.lower, report.upper) == (12, 12, 24)
    assert report.holds

    report = check_lcm_bounds(1, 0)
    assert (report.lcm, report.lower, report.upper) == (1, 1, 1)
    assert report.holds

    report = check_lcm_bounds(5, 3)
    assert (report.lcm, report.lower, report.upper) == (840, 280, 840)
    assert report.holds


def test_lcm_bounds_sweep():
    for n in range(1, 80):
        for k in range(8):
            assert check_lcm_bounds(n, k).holds


def test_window_divisibility_examples():
    # The product of the terms divides lcm(terms) * k! * gcd(t0, t1)**k,
    # and the divisibility suite's checker finds no failure.
    for prog, w, expected in (
        (Progression(2, 1), Window(1, 2), (105, 105 * 2)),
        (Progression(1, 0), Window(3, 3), (360, 60 * 6)),
        (Progression(4, 2), Window(1, 1), (60, 30 * 1 * 2)),
    ):
        terms = window_terms(prog, w)
        # t1 = t0 + a, also when k = 0 and the window holds t0 alone.
        d01 = math.gcd(terms[0], terms[0] + prog.a)
        bound = math.lcm(*terms) * math.factorial(w.k) * d01**w.k
        assert (math.prod(terms), bound) == expected
        assert bound % math.prod(terms) == 0
        assert not list(verify._check_window_bound(w.k, prog.a, prog.b))


def test_window_divisibility_sweep_includes_unreduced():
    # The verify suite checks the ratio form: product = lcm * ratio and
    # gcd(t0, t1) = gcd(a, b), so the product divides lcm * B iff the
    # ratio divides B. B runs over the bound k! * gcd(t0, t1)**k and its
    # quotients by small primes, so the forms also agree where B fails.
    for k in range(9):
        kfact = math.factorial(k)
        for a in range(1, 7):
            for b in range(7):
                prog = Progression(a, b)
                assert not list(verify._check_window_bound(k, a, b))
                for n in range(1, 51):
                    terms = window_terms(prog, Window(n, k))
                    d01 = math.gcd(terms[0], terms[0] + a)
                    assert d01 == math.gcd(a, b)
                    bound = kfact * d01**k
                    ratio = _ratio(a, b, n, k)
                    lcm, product = math.lcm(*terms), math.prod(terms)
                    assert lcm * bound % product == 0 and bound % ratio == 0
                    for q in (2, 3, 5, 7):
                        if bound % q == 0:
                            cut = bound // q
                            assert (lcm * cut % product == 0) == \
                                (cut % ratio == 0)


def test_ratio_recursion_examples():
    assert check_ratio_recursion(3, 3)
    assert check_ratio_recursion(1, 5)
    assert check_ratio_recursion(2, 2)


def test_ratio_recursion_sweep():
    for k in range(1, 7):
        for n in range(1, 120):
            assert check_ratio_recursion(k, n)


def test_build_period_table_examples():
    table = build_period_table(Progression(1, 0), 2)
    assert table.period == 2 and table.values == (2, 1)

    table = build_period_table(Progression(2, 1), 2)
    assert table.period == 1 and table.values == (1,)

    table = build_period_table(Progression(1, 0), 0)
    assert table.period == 1 and table.values == (1,)


def test_build_period_table_budget():
    with pytest.raises(BudgetExceededError):
        build_period_table(Progression(1, 0), 10, budget=100)
    # The period 33256080 has 25 bits; the work is given as a power of two.
    with pytest.raises(BudgetExceededError, match=r"25 bits.* needs work ~2\^\d+ >"):
        build_period_table(Progression(1, 0), 20)


def test_period_table_covers_three_periods():
    prog = Progression(3, 1)
    table = build_period_table(prog, 4)
    for n in range(1, 3 * table.period + 1):
        assert window_ratio(prog, Window(n, 4)) == table.values[n % table.period]


def test_period_table_length_validation():
    with pytest.raises(ValueError):
        PeriodTable(Progression(1, 0), 2, 2, (1,))
    with pytest.raises(ValueError, match="period must be >= 1"):
        PeriodTable(Progression(1, 0), 2, 0, ())
    with pytest.raises(ValueError, match="entries must be >= 1"):
        PeriodTable(Progression(1, 0), 2, 2, (2, 0))


def test_period_table_entries_divide_scaled_factorial():
    for a, b, k in ((1, 0, 5), (2, 1, 6), (4, 2, 4), (6, 3, 5)):
        prog = Progression(a, b)
        table = build_period_table(prog, k)
        bound = math.factorial(k) * prog.d**k
        assert all(bound % v == 0 for v in table.values)


def test_fast_lcm_examples():
    table = build_period_table(Progression(1, 0), 2)
    assert fast_lcm(table, 10) == 660
    assert fast_lcm(table, 11) == 1716

    odd = build_period_table(Progression(2, 1), 2)
    n = 10**6
    assert fast_lcm(odd, n) == math.lcm(*window_terms(Progression(2, 1), Window(n, 2)))


def test_fast_lcm_matches_direct_across_periods():
    for a, b, k in ((1, 0, 4), (2, 1, 5), (3, 2, 3), (4, 6, 4)):
        prog = Progression(a, b)
        table = build_period_table(prog, k)
        for n in list(range(1, 2 * table.period + 2)) + [10**9, 10**9 + 7]:
            expected = math.lcm(*window_terms(prog, Window(n, k)))
            assert fast_lcm(table, n) == expected


def test_fast_lcm_detects_corrupt_table():
    table = PeriodTable(Progression(1, 0), 2, 2, (7, 1))
    with pytest.raises(SelfCheckError):
        fast_lcm(table, 10)


def test_table_roundtrip_is_bit_exact(tmp_path):
    table = build_period_table(Progression(3, 2), 5)
    path = tmp_path / "table.txt"
    save_period_table(table, path)
    text = path.read_text()
    assert text.splitlines()[0] == \
        f"aplcm-table v1 a=3 b=2 k=5 period={table.period}"

    loaded = load_period_table(path)
    assert loaded == table
    second = tmp_path / "again.txt"
    save_period_table(loaded, second)
    assert second.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("a, b, k, digest", [
    (1, 0, 10, "c092fafa14de7ad306ae251f471d18fa37616ab23f64c7735918f6dd13afb901"),
    (7, 3, 8, "5fe8e68ba91cb7bb0f4971693122a5c953ab74a4f67c661776afeb1ed0f83dcc"),
])
def test_saved_table_bytes_are_pinned(tmp_path, a, b, k, digest):
    # SHA-256 of the files written when each entry was its own window
    # ratio, index 0 the one at n = period.
    path = tmp_path / "table.txt"
    save_period_table(build_period_table(Progression(a, b), k), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_table_load_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.txt"
    bad_header.write_text("not-a-table v1\n1\n")
    with pytest.raises(ValueError):
        load_period_table(bad_header)

    wrong_count = tmp_path / "b.txt"
    wrong_count.write_text("aplcm-table v1 a=1 b=0 k=2 period=2\n1\n")
    with pytest.raises(ValueError):
        load_period_table(wrong_count)

    junk_value = tmp_path / "c.txt"
    junk_value.write_text("aplcm-table v1 a=1 b=0 k=2 period=2\n1\nx\n")
    with pytest.raises(ValueError):
        load_period_table(junk_value)

    empty = tmp_path / "d.txt"
    empty.write_text("")
    with pytest.raises(ValueError):
        load_period_table(empty)

    for name, text in (
        ("period0.txt", "aplcm-table v1 a=1 b=0 k=2 period=0\n"),
        ("zero.txt", "aplcm-table v1 a=1 b=0 k=2 period=2\n2\n0\n"),
        ("negative.txt", "aplcm-table v1 a=1 b=0 k=2 period=2\n2\n-2\n"),
    ):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=name):
            load_period_table(path)
