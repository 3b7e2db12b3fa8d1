import dataclasses
import math
import pickle
import random
import tracemalloc

import pytest

from aplcm import gfun, verify
from aplcm.gfun import (
    Progression,
    Window,
    _ratio,
    _ratio_scan,
    _ratios,
    window_ratio,
    window_terms,
)
from aplcm.numtheory import lcm_upto, valuation


def coprime_pairs(a_max, b_max):
    return [
        (a, b)
        for a in range(1, a_max + 1)
        for b in range(b_max + 1)
        if math.gcd(a, b) == 1
    ]


def test_progression_reduction():
    p = Progression(1, 0)
    assert (p.d, p.a_reduced, p.b_reduced) == (1, 1, 0)
    p = Progression(4, 2)
    assert (p.d, p.a_reduced, p.b_reduced) == (2, 2, 1)
    assert p.reduced() == Progression(2, 1)
    p = Progression(3, 0)
    assert (p.d, p.a_reduced, p.b_reduced) == (3, 1, 0)


def test_progression_validation():
    with pytest.raises(ValueError):
        Progression(0, 3)
    with pytest.raises(ValueError):
        Progression(2, -1)


def test_window_validation():
    with pytest.raises(ValueError):
        Window(0, 3)
    with pytest.raises(ValueError):
        Window(1, -1)


def test_window_terms():
    assert window_terms(Progression(1, 0), Window(3, 3)) == [3, 4, 5, 6]
    assert window_terms(Progression(2, 1), Window(1, 2)) == [3, 5, 7]
    assert window_terms(Progression(5, 3), Window(2, 1)) == [13, 18]


def test_window_ratio_values():
    # product / lcm computed by hand: 360 / 60 and 945 / 315
    terms = window_terms(Progression(1, 0), Window(3, 3))
    assert math.prod(terms) == 360 and math.lcm(*terms) == 60
    assert window_ratio(Progression(1, 0), Window(3, 3)) == 6

    terms = window_terms(Progression(2, 1), Window(1, 3))
    assert math.prod(terms) == 945 and math.lcm(*terms) == 315
    assert window_ratio(Progression(2, 1), Window(1, 3)) == 3

    assert window_ratio(Progression(1, 0), Window(1, 0)) == 1


def test_ratio_valuation():
    ratio = window_ratio(Progression(1, 0), Window(3, 3))
    assert valuation(2, ratio) == 1
    assert valuation(3, ratio) == 1
    assert valuation(5, ratio) == 0


def test_ratio_valuation_requires_reduced():
    # The one check that every caller of the counted valuations runs.
    with pytest.raises(ValueError, match="not reduced"):
        gfun._require_reduced(Progression(4, 2))
    gfun._require_reduced(Progression(4, 3))


def multiples_in_window(pe, prog, w):
    """Window terms divisible by pe, by testing every term."""
    return sum(t % pe == 0 for t in window_terms(prog, w))


def test_ratio_valuation_by_counting_examples():
    # Arguments: p, a, b, n, shift, k; the windows at n and n + shift.
    assert gfun._counted_pair(2, 1, 0, 4, 2, 5) == (3, 2)
    assert gfun._counted_pair(2, 1, 0, 6, 0, 5) == (2, 2)
    assert gfun._counted_pair(2, 2, 1, 7, 1, 4) == (0, 0)


@pytest.mark.parametrize("seed", range(4))
def test_counted_valuations_match_the_per_window_count(seed):
    rng = random.Random(seed)
    for _ in range(150):
        p = rng.choice([2, 3, 5, 7, 11, 97])
        a = rng.choice([p * rng.randint(1, 9), rng.randint(1, 10**6)])
        b = rng.randint(0, 10**6)
        if math.gcd(a, b) != 1:
            continue
        k = rng.choice([0, rng.randint(1, p - 1) if p > 2 else 1,
                        rng.randint(1, 300)])
        big_e = 0
        while p ** (big_e + 1) <= k:
            big_e += 1
        count = rng.choice([0, 1, 2 * p**big_e])
        n_lo = rng.choice([1, rng.randint(1, 10**9), rng.randint(1, 10**60)])
        # Shifts 0, p**(E-1) (the witness's) and one beyond p**E.
        for shift in (0, p ** max(big_e - 1, 0), p**big_e + rng.randint(1, 10**9)):
            assert [
                gfun._counted_pair(p, a, b, n, shift, k)
                for n in range(n_lo, n_lo + count)
            ] == list(zip(
                gfun._counted_valuations(p, a, b, n_lo, count, k),
                gfun._counted_valuations(p, a, b, n_lo + shift, count, k),
            ))


def test_counted_valuations_edge_cases():
    # p | a, p > k and k = 0 all give zeros; an empty range gives [].
    assert gfun._counted_valuations(3, 6, 1, 1, 5, 20) == [0] * 5
    assert gfun._counted_valuations(11, 1, 0, 10**60, 4, 10) == [0] * 4
    assert gfun._counted_valuations(2, 1, 0, 7, 3, 0) == [0] * 3
    assert gfun._counted_valuations(2, 1, 0, 7, 0, 9) == []


def test_counted_valuations_match_the_ratio():
    for k in range(9):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for p in (2, 3, 5, 7):
                assert gfun._counted_valuations(p, a, b, 5, 40, k) == [
                    valuation(p, window_ratio(prog, Window(n, k)))
                    for n in range(5, 45)
                ]


def test_valuation_paths_agree():
    for k in range(7):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            ratios = [window_ratio(prog, Window(n, k)) for n in range(1, 69)]
            for p in (2, 3, 5):
                direct = [valuation(p, ratio) for ratio in ratios]
                for n in range(1, 61):
                    for shift in (0, 1, p, 7):
                        assert gfun._counted_pair(p, a, b, n, shift, k) == \
                            (direct[n - 1], direct[n - 1 + shift])


def test_count_bounds_around_max_exponent():
    """Above the largest exponent with p**e <= k at most one term is
    divisible by p**e; at or below it at least one is (p not dividing a).
    """
    for p in (2, 3):
        for a, b in coprime_pairs(5, 5):
            if a % p == 0:
                continue
            prog = Progression(a, b)
            for k in range(1, 8):
                max_e = 0
                while p ** (max_e + 1) <= k:
                    max_e += 1
                for n in range(1, 41):
                    for e in range(1, max_e + 3):
                        count = multiples_in_window(p**e, prog, Window(n, k))
                        if e <= max_e:
                            assert count >= 1
                        else:
                            assert count <= 1


def test_ratio_divides_factorial():
    for k in range(7):
        kfact = math.factorial(k)
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for n in range(1, 51):
                assert kfact % window_ratio(prog, Window(n, k)) == 0


def test_scaling_by_gcd_power():
    pairs = [(a, b) for a in range(1, 9) for b in range(9) if math.gcd(a, b) > 1]
    for a, b in pairs:
        prog = Progression(a, b)
        reduced = prog.reduced()
        d = prog.d
        for k in range(5):
            for n in range(1, 41):
                assert window_ratio(prog, Window(n, k)) == \
                    d**k * window_ratio(reduced, Window(n, k))


def test_shift_by_lcm_preserves_ratio():
    for k in range(6):
        shift = lcm_upto(k)
        for a in range(1, 7):
            for b in range(7):
                prog = Progression(a, b)
                for n in range(1, 41):
                    assert window_ratio(prog, Window(n, k)) == \
                        window_ratio(prog, Window(n + shift, k))


def test_window_kernel_matches_the_definition():
    for a in range(1, 13):
        for b in range(13):
            prog = Progression(a, b)
            for k in range(11):
                for n in (1, 2, 7, 30):
                    w = Window(n, k)
                    explicit = [b + (n + i) * a for i in range(k + 1)]
                    assert window_terms(prog, w) == explicit
                    assert window_ratio(prog, w) == \
                        math.prod(explicit) // math.lcm(*explicit)


# Every a, b <= 10 meets every k, start and short count. The long
# counts, whose reference loop would take about 100 s CPU over all 110
# pairs, use consecutive integers, a reduced and an unreduced pair.
KERNEL_PAIRS = [(1, 0), (7, 10), (10, 10)]


@pytest.mark.parametrize("k", range(14))
def test_range_kernel_matches_the_window_ratio(k):
    for n_lo in (1, 3, 10**9, 10**60):
        for a in range(1, 11):
            for b in range(11):
                want = [_ratio(a, b, n, k) for n in range(n_lo, n_lo + k + 2)]
                for count in (0, 1, k, k + 1, k + 2):
                    assert _ratios(a, b, k, n_lo, count) == want[:count]
                    assert _ratio_scan(a, b, k, n_lo, count) == want[:count]
        for a, b in KERNEL_PAIRS:
            want = [_ratio(a, b, n, k) for n in range(n_lo, n_lo + 1680)]
            for count in (300, 1680):
                assert _ratios(a, b, k, n_lo, count) == want[:count]


@pytest.mark.parametrize("k", [30, 99])
def test_range_kernel_joins_two_wide_parts(k):
    # Near n = 10**15 and 10**60 both parts of most windows have lcms of
    # hundreds to thousands of bits, whose gcd is far from 1.
    for n_lo in (10**15, 10**60):
        for a, b in KERNEL_PAIRS:
            want = [_ratio(a, b, n, k) for n in range(n_lo, n_lo + 3 * k + 4)]
            for count in (1, k, k + 1, k + 2, 3 * k + 4):
                assert _ratios(a, b, k, n_lo, count) == want[:count]
                assert _ratio_scan(a, b, k, n_lo, count) == want[:count]


@pytest.mark.parametrize("scan_bytes", [0, 1500, 4000, 10**4])
def test_range_kernel_chunks_agree(monkeypatch, scan_bytes):
    # From no block per chunk (window by window) to several, with short
    # last chunks.
    monkeypatch.setattr(gfun, "_SCAN_BYTES", scan_bytes)
    for k in (1, 4, 7, 30):
        for a, b in KERNEL_PAIRS:
            want = [_ratio(a, b, n, k) for n in range(5, 305)]
            for count in (16, k + 17, 100, 300):
                assert _ratios(a, b, k, 5, count) == want[:count]


def _peak_bytes(f, *args):
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_range_kernel_memory_is_bounded(monkeypatch):
    scan_bytes = 1 << 20
    monkeypatch.setattr(gfun, "_SCAN_BYTES", scan_bytes)
    # Too few windows for a scan go one by one: memory linear in k,
    # where a scan would hold about k**2 / 2 terms of suffix products.
    assert _peak_bytes(_ratios, 1, 0, 300, 1, 7) < 100 * 301
    # So do windows whose block is too big for _SCAN_BYTES.
    assert _peak_bytes(_ratios, 1, 0, 3000, 1, 8) < 100 * 3001
    # Long ranges run in chunks: at n = 10**30 one scan over all 5000
    # windows would hold about 7 MB, each chunk about 1 MB.
    assert _peak_bytes(_ratios, 1, 0, 100, 10**30, 5000) < 3 * scan_bytes


def test_counting_valuation_is_the_sum_of_excess_multiples():
    # Every multiple of p**e beyond the first adds one factor p; for
    # k <= 8 no power above p**5 can matter.
    for k in range(9):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for p in (2, 3, 5, 7):
                excess = [
                    sum(
                        max(0, multiples_in_window(p**e, prog, Window(n, k)) - 1)
                        for e in range(1, 6)
                    )
                    for n in range(1, 51)
                ]
                for n in range(1, 41):
                    for shift in (0, 1, 9):
                        assert gfun._counted_pair(p, a, b, n, shift, k) == \
                            (excess[n - 1], excess[n - 1 + shift])


def test_progression_keeps_equality_hash_and_pickling_with_cached_d():
    p = Progression(4, 2)
    fresh = Progression(4, 2)
    assert p.d == 2  # cached on p only
    assert p == fresh and hash(p) == hash(fresh)
    assert repr(p) == "Progression(a=4, b=2)"
    assert [f.name for f in dataclasses.fields(p)] == ["a", "b"]
    assert dataclasses.asdict(p) == {"a": 4, "b": 2}
    for obj in (p, fresh):
        copy = pickle.loads(pickle.dumps(obj))
        assert copy == p and hash(copy) == hash(p)
        assert (copy.d, copy.a_reduced, copy.b_reduced) == (2, 2, 1)
    assert dataclasses.replace(p, b=3).d == 1
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.a = 6


def test_window_functions_validate_every_call():
    # The window-counts checker calls the counted valuations unvalidated
    # only after it has checked p and the progression itself.
    with pytest.raises(ValueError, match="not prime"):
        list(verify._check_window_counts(4, 1, 0))
    with pytest.raises(ValueError, match="not reduced"):
        list(verify._check_window_counts(2, 4, 2))
