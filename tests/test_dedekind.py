import math
import random
from fractions import Fraction

import pytest

from dedsum import _kernel_py
from dedsum.dedekind import (
    CoprimePair,
    dedekind_sum_naive,
    normalized_sum,
    normalized_sum_fast,
    reduce_pair,
    sawtooth,
)


def coprime_pairs(b_max):
    for b in range(1, b_max + 1):
        for a in range(b):
            if math.gcd(a, b) == 1:
                yield a, b


def test_sawtooth_values():
    assert sawtooth(Fraction(3)) == 0
    assert sawtooth(Fraction(1, 4)) == Fraction(-1, 4)
    assert sawtooth(Fraction(-1, 4)) == Fraction(1, 4)


def test_sawtooth_is_odd_and_periodic():
    rng = random.Random(7)
    for _ in range(50):
        x = Fraction(rng.randint(-50, 50), rng.randint(1, 40))
        assert sawtooth(-x) == -sawtooth(x)
        assert sawtooth(x + 3) == sawtooth(x)


def test_naive_known_values():
    assert dedekind_sum_naive(5, 14) == Fraction(3, 14)
    assert dedekind_sum_naive(0, 1) == 0
    assert dedekind_sum_naive(1, 3) == Fraction(1, 18)


def test_normalized_sum_both_methods():
    assert normalized_sum(5, 14, "naive") == Fraction(18, 7)
    assert normalized_sum(5, 14, "fast") == Fraction(18, 7)
    assert normalized_sum(2, 5) == 0
    assert normalized_sum(1, 3) == Fraction(2, 3)


def test_normalized_sum_rejects_unknown_method():
    with pytest.raises(ValueError):
        normalized_sum(1, 3, "guess")


def test_fast_known_values():
    assert normalized_sum_fast(5, 14) == Fraction(18, 7)
    assert normalized_sum_fast(27, 70) == Fraction(18, 7)
    assert normalized_sum_fast(1, 2) == 0


def test_reduce_pair():
    assert reduce_pair(19, 14) == CoprimePair(5, 14)
    assert reduce_pair(-9, 14) == CoprimePair(5, 14)
    assert reduce_pair(5, 14) == CoprimePair(5, 14)


def test_reduce_pair_errors():
    with pytest.raises(ValueError, match="not coprime"):
        reduce_pair(6, 14)
    with pytest.raises(ValueError, match="invalid modulus"):
        reduce_pair(3, 0)
    with pytest.raises(ValueError, match="invalid modulus"):
        reduce_pair(3, -2)


def test_coprime_pair_validates():
    with pytest.raises(ValueError):
        CoprimePair(14, 5)  # not reduced
    with pytest.raises(ValueError):
        CoprimePair(2, 4)  # not coprime
    with pytest.raises(ValueError):
        CoprimePair(0, 2)  # gcd(0, 2) = 2


def test_fast_equals_naive_exhaustively_small():
    # the full b <= 200 sweep lives in the acceptance suite
    for a, b in coprime_pairs(60):
        assert normalized_sum_fast(a, b) == 12 * dedekind_sum_naive(a, b), (a, b)


def test_shift_invariance():
    rng = random.Random(11)
    for _ in range(40):
        b = rng.randint(1, 10**6)
        a = rng.randrange(b)
        while math.gcd(a, b) != 1:
            a = rng.randrange(b)
        base = normalized_sum_fast(a, b)
        for j in range(-3, 4):
            assert normalized_sum_fast(a + j * b, b) == base


def test_reciprocity_small():
    # classical identity, independent of both evaluators
    for a in range(1, 41):
        for b in range(1, 41):
            if math.gcd(a, b) != 1:
                continue
            lhs = normalized_sum_fast(a, b) + normalized_sum_fast(b, a)
            rhs = -3 + Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)
            assert lhs == rhs, (a, b)


def test_b_times_sum_is_even_integer():
    for a, b in coprime_pairs(200):
        q = b * normalized_sum_fast(a, b)
        assert q.denominator == 1 and q.numerator % 2 == 0, (a, b)


def test_zero_family():
    for a in range(1, 101):
        assert normalized_sum_fast(a, a * a + 1) == 0


def test_pure_kernel_handles_huge_operands():
    # deep family member, far beyond any machine word
    a = 3689685095
    b = 10262775614
    assert _kernel_py.normalized_sum_parts(a, b) == (18, 7)
    big = 10**40
    num, den = _kernel_py.normalized_sum_parts(1, big)
    assert Fraction(num, den) == Fraction(big * big - 3 * big + 2, big)


def test_pure_kernel_rejects_non_coprime():
    with pytest.raises(ValueError, match="not coprime"):
        _kernel_py.normalized_sum_parts(6, 14)
    with pytest.raises(ValueError, match="not coprime"):
        _kernel_py.normalized_sum_parts(0, 5)
