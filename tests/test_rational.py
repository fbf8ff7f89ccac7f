import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dedsum import rational

ints = st.integers(min_value=-10**12, max_value=10**12)


# The canonical "num/den" form is normalized: lowest terms, positive
# denominator, zero as 0/1.

def test_normalize_reduces_to_lowest_terms():
    assert rational.format_exact(rational.parse_exact("24/14")) == "12/7"


def test_normalize_zero_case():
    assert rational.format_exact(Fraction(0, -5)) == "0/1"
    assert rational.format_exact(rational.parse_exact("-0/5")) == "0/1"


def test_normalize_sign_moves_to_numerator():
    assert rational.format_exact(Fraction(-36, -14)) == "18/7"
    assert rational.format_exact(Fraction(5, -7)) == "-5/7"


@given(ints, ints, ints)
def test_integer_ring_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c


@given(ints, st.integers(min_value=1, max_value=10**12))
def test_normalize_idempotent(num, den):
    text = rational.format_exact(rational.parse_exact(f"{num}/{den}"))
    assert rational.parse_exact(text) == Fraction(num, den)
    assert rational.format_exact(rational.parse_exact(text)) == text


@given(ints, st.integers(min_value=1, max_value=10**9))
def test_coprime_round_trip(p, q):
    g = math.gcd(p, q)
    p, q = p // g, q // g
    assert rational.format_exact(Fraction(p, q)) == f"{p}/{q}"


@pytest.mark.parametrize(
    "q,text",
    [
        (Fraction(18, 7), "18/7"),
        (Fraction(-5, 7), "-5/7"),
        (Fraction(0), "0/1"),
        (Fraction(4), "4/1"),
    ],
)
def test_format_exact(q, text):
    assert rational.format_exact(q) == text
    assert rational.parse_exact(text) == q


def test_parse_accepts_bare_integers():
    assert rational.parse_exact("4") == Fraction(4)
    assert rational.parse_exact("-3") == Fraction(-3)


@pytest.mark.parametrize("bad", ["1.5", "a/b", "1/2/3", " 18/7", "18/7 ", "", "1/-2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        rational.parse_exact(bad)


def test_parse_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rational.parse_exact("3/0")


def test_decimal_approx_is_display_only_and_exactly_rounded():
    assert rational.decimal_approx(Fraction(18, 7)) == "2.57142857143"
    assert rational.decimal_approx(Fraction(0)) == "0"
    assert rational.decimal_approx(Fraction(-5, 7)) == "-0.714285714286"
