import math
from fractions import Fraction
from itertools import product

import pytest

from dedsum.contfrac import (
    CfExpansion,
    Convergent,
    convergents,
    evaluate,
    expand,
    iter_convergents,
    to_alternate,
)


def test_expand_known():
    assert expand(5, 14).terms == (2, 1, 4)
    assert expand(0, 1).terms == ()
    assert expand(1, 2).terms == (2,)


def test_expand_rejects_unreduced_input():
    with pytest.raises(ValueError, match="unreduced"):
        expand(14, 5)
    with pytest.raises(ValueError, match="unreduced"):
        expand(-1, 5)
    with pytest.raises(ValueError, match="unreduced"):
        expand(3, 0)
    with pytest.raises(ValueError, match="not coprime"):
        expand(2, 4)


def test_alternate_form():
    assert to_alternate(expand(5, 14)).terms == (2, 1, 3, 1)
    assert to_alternate(expand(1, 2)).terms == (1, 1)
    assert to_alternate(expand(1, 3)).terms == (2, 1)


def test_alternate_form_errors():
    with pytest.raises(ValueError, match="no alternate form"):
        to_alternate(expand(0, 1))
    with pytest.raises(ValueError):
        to_alternate(to_alternate(expand(5, 14)))


def test_evaluate_known():
    assert evaluate(expand(5, 14)) == Fraction(5, 14)
    assert evaluate(CfExpansion(())) == 0
    assert evaluate(CfExpansion((2, 1, 3, 1))) == Fraction(5, 14)


def test_str_rendering():
    assert str(expand(5, 14)) == "[0; 2, 1, 4]"
    assert str(expand(0, 1)) == "[0; ]"


def test_round_trip_exhaustive():
    for b in range(1, 501):
        for a in range(b):
            if math.gcd(a, b) != 1:
                continue
            e = expand(a, b)
            assert evaluate(e) == Fraction(a, b), (a, b)
            if e.terms:
                assert e.terms[-1] >= 2, (a, b)
                assert all(c >= 1 for c in e.terms), (a, b)
                assert evaluate(to_alternate(e)) == Fraction(a, b), (a, b)


def test_periodic_convergents_known_rows():
    period = (2, 1, 3, 1, 1)
    rows = {r.k: r for r in convergents(period, 34)}
    assert (rows[4].p, rows[4].q) == (5, 14)
    assert (rows[14].p, rows[14].q) == (4535, 12614)
    assert (rows[24].p, rows[24].q) == (4090565, 11377814)
    assert (rows[34].p, rows[34].q) == (3689685095, 10262775614)


def test_convergents_start_row():
    assert convergents((7,), 0) == [Convergent(0, 0, 1)]


def test_convergent_invariants():
    for period in [(1,), (2,), (2, 1, 3, 1, 1), (1, 1, 1), (4, 3, 2, 1)]:
        rows = convergents(period, 40)
        for prev, cur in zip(rows, rows[1:]):
            det = cur.p * prev.q - prev.p * cur.q
            assert det == (-1) ** (cur.k - 1), (period, cur.k)
            assert math.gcd(cur.p, cur.q) == 1
        # q_{k+2} > 2 q_k for k >= 1: exponential growth of denominators
        for k in range(1, 39):
            assert rows[k + 2].q > 2 * rows[k].q, (period, k)


def test_bad_periods_rejected():
    with pytest.raises(ValueError, match="empty period"):
        next(iter_convergents(()))
    with pytest.raises(ValueError):
        next(iter_convergents((1, 0, 2)))
    with pytest.raises(ValueError):
        convergents((1, 2), -1)


def test_streaming_is_lazy():
    gen = iter_convergents((1,))
    for want_k in range(6):
        row = next(gen)
        assert row.k == want_k
    # Fibonacci numerators/denominators for the all-ones period
    assert row == Convergent(5, 5, 8)
