import math

import pytest

from aplcm.gfun import (
    Progression,
    Window,
    count_multiples,
    count_multiples_naive,
    ratio_valuation_by_counting,
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
    assert (p.d, p.a_reduced, p.b_reduced, p.is_reduced) == (1, 1, 0, True)
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
    with pytest.raises(ValueError):
        ratio_valuation_by_counting(2, Progression(4, 2), Window(1, 3))


def test_count_multiples_examples():
    assert count_multiples(2, 2, Progression(1, 0), Window(3, 5)) == 2
    assert count_multiples(2, 1, Progression(2, 1), Window(1, 9)) == 0
    assert count_multiples(3, 1, Progression(2, 1), Window(1, 3)) == 2


def test_count_multiples_matches_naive_scan():
    for p in (2, 3, 5):
        for a, b in coprime_pairs(5, 5):
            prog = Progression(a, b)
            for e in range(1, 5):
                for k in range(8):
                    for n in range(1, 61):
                        w = Window(n, k)
                        assert count_multiples(p, e, prog, w) == \
                            count_multiples_naive(p, e, prog, w)


def test_ratio_valuation_by_counting_examples():
    assert ratio_valuation_by_counting(2, Progression(1, 0), Window(4, 5)) == 3
    assert ratio_valuation_by_counting(2, Progression(1, 0), Window(6, 5)) == 2
    assert ratio_valuation_by_counting(2, Progression(2, 1), Window(7, 4)) == 0


def test_valuation_paths_agree():
    for k in range(7):
        for a, b in coprime_pairs(6, 6):
            prog = Progression(a, b)
            for n in range(1, 61):
                w = Window(n, k)
                ratio = window_ratio(prog, w)
                for p in (2, 3, 5):
                    assert valuation(p, ratio) == \
                        ratio_valuation_by_counting(p, prog, w)


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
                    w = Window(n, k)
                    for e in range(1, max_e + 3):
                        count = count_multiples(p, e, prog, w)
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
        shift = lcm_upto(k).value
        for a in range(1, 7):
            for b in range(7):
                prog = Progression(a, b)
                for n in range(1, 41):
                    assert window_ratio(prog, Window(n, k)) == \
                        window_ratio(prog, Window(n + shift, k))
