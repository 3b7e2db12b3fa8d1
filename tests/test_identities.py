import hashlib
import math
import random
import re
from fractions import Fraction
from itertools import combinations, starmap
from types import SimpleNamespace

import pytest

from aplcm import identities, verify
from aplcm.errors import BudgetExceededError, SelfCheckError
from aplcm.gfun import Progression, Window, _ratio, window_ratio, window_terms
from aplcm.identities import (
    PeriodTable,
    build_period_table,
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
    # so all 2**18 - 1 subsets have different gcds.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    big_p = math.prod(primes)
    assert lcm_by_inclusion_exclusion([big_p // p for p in primes]) == big_p


def test_inclusion_exclusion_with_a_large_prime_entry():
    # 2**61 - 1 is prime; no entry or gcd is ever factored.
    xs = [2**61 - 1, 6, 10**40]
    assert lcm_by_inclusion_exclusion(xs) == math.lcm(*xs)


def test_inclusion_exclusion_raises_on_an_inexact_step(monkeypatch):
    # With gcd(3, 5) taken as 2, the inner lcm 2 does not divide 5.
    monkeypatch.setattr(identities, "math", SimpleNamespace(gcd=lambda x, y: 2))
    with pytest.raises(SelfCheckError):
        lcm_by_inclusion_exclusion([3, 5])


def test_inclusion_exclusion_input_guards():
    with pytest.raises(ValueError):
        lcm_by_inclusion_exclusion([])
    with pytest.raises(ValueError):
        lcm_by_inclusion_exclusion([3, 0, 2])
    with pytest.raises(BudgetExceededError):
        lcm_by_inclusion_exclusion([1] * 21)


def test_gcd_transfer_matching_windows():
    # The windows at n = 3 and 3 + lcm(1..3) share their pairwise gcds,
    # and the checker finds the same for n = 1..50, t = 2 and 3.
    assert verify._adjusted_ratio([3, 4, 5, 6], 2, None) == (360, 60)
    assert verify._adjusted_ratio([9, 10, 11, 12], 2, None) == (11880, 1980)
    for k in range(1, 7):
        assert not list(verify._check_gcd_transfer(k, 1, 0))


def test_gcd_transfer_identical_tuples(monkeypatch):
    # With a shift of 0 the two windows are the same tuple, which meets
    # the hypothesis and the conclusion at every k, t and n.
    monkeypatch.setattr(verify, "lcm_upto", lambda k: 0)
    for k in range(1, 7):
        for a, b in ((1, 0), (6, 5)):
            assert not list(verify._check_gcd_transfer(k, a, b))


def test_gcd_transfer_failed_hypothesis(monkeypatch):
    # A shift of 1 in place of lcm(1..2) = 2 breaks the shared gcds:
    # gcd(n, n + 2) is 2 for even n only, so the pairwise gcds of the
    # windows at n and n + 1 differ at every n. The triple gcds are all 1.
    monkeypatch.setattr(verify, "lcm_upto", lambda k: 1)
    records = list(verify._check_gcd_transfer(2, 1, 0))
    assert len(records) == 50
    assert {r.actual for r in records} == {(False, None)}
    assert records[0].inputs == {"k": 2, "a": 1, "b": 0, "n": 1, "t": 2}
    assert records[0].expected == "hypothesis and conclusion"


def test_gcd_transfer_order_three(monkeypatch):
    # Windows shifted by lcm(1..3) = 6 keep all pairwise gcds, hence all
    # triple gcds, and both adjusted ratios.
    xs_a = window_terms(Progression(1, 0), Window(2, 3))
    xs_b = window_terms(Progression(1, 0), Window(8, 3))
    assert Fraction(*verify._adjusted_ratio(xs_a, 3, pair_gcds(xs_a))) == \
        Fraction(*verify._adjusted_ratio(xs_b, 3, pair_gcds(xs_b)))
    # A conclusion that fails where the hypothesis holds is reported.
    monkeypatch.setattr(verify, "_adjusted_ratio", lambda xs, t, pairs: (xs[0], 1))
    records = list(verify._check_gcd_transfer(3, 1, 0))
    assert len(records) == 50 * 2
    assert {r.actual for r in records} == {(True, False)}


def pair_gcds(xs):
    return list(starmap(math.gcd, combinations(xs, 2)))


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
            num, den = verify._adjusted_ratio(xs, t, pair_gcds(xs))
            assert Fraction(num, den) == stepwise_adjusted_ratio(xs, t)


def test_lcm_bounds_examples(monkeypatch):
    # (lower, lcm, upper): n * C(n+k, k) | lcm(n..n+k) | upper.
    for n, k in ((2, 2), (1, 0), (5, 3)):
        assert not list(verify._check_lcm_bounds(n, k))
    # An lcm one too large, of the window and of the binomial row, breaks
    # the bounds; the record carries the three values.
    fake = SimpleNamespace(lcm=lambda *xs: math.lcm(*xs) + 1, comb=math.comb)
    monkeypatch.setattr(verify, "math", fake)
    for n, k, values in ((2, 2, (12, 13, 36)), (5, 3, (280, 841, 1120))):
        (record,) = verify._check_lcm_bounds(n, k)
        assert record.inputs == {"check": "lcm-bounds", "n": n, "k": k}
        assert record.expected == "lower | lcm | upper"
        assert record.actual == values


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


def test_ratio_recursion_examples(monkeypatch):
    # ratio_k(n) = gcd(k!, (n + k) * ratio_{k-1}(n)) for a = 1, b = 0.
    for k, n in ((3, 3), (1, 5), (2, 2)):
        assert not list(verify._check_recursion(k, n))
    # ratio_3(3) = 3*4*5*6 / 60 = 6; a ratio of 7 breaks the identity.
    monkeypatch.setattr(verify, "_ratio", lambda a, b, n, k: 7)
    (record,) = verify._check_recursion(3, 3)
    assert record.inputs == {"check": "recursion", "k": 3, "n": 3}
    assert (record.expected, record.actual) == (True, False)


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


def test_fast_lcm_names_a_huge_start_index_briefly():
    # 7 divides none of 10**200, 10**200 + 1 and 10**200 + 2.
    table = PeriodTable(Progression(1, 0), 2, 2, (7, 1))
    n = f"1{'0' * 19}...{'0' * 20} (201 digits)"
    with pytest.raises(SelfCheckError,
                       match=rf"^inexact division at n={re.escape(n)} "):
        fast_lcm(table, 10**200)


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
