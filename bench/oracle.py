"""Reference arithmetic the benchmark checks the program's outputs against.

Nothing here imports dedsum: every expected value is derived from the
definitions, so a fault in the library cannot hide itself by also being
in the check.

* :func:`normalized_sum` is the defining sum with integers only,
  S(a, b) = 12 s(a, b) = 12 * sum_k (2k - b)(2(ak mod b) - b) / (4 b^2),
  O(b) terms.  It is the oracle for every value the benchmark can afford
  to recompute (b up to a few thousand).
* :func:`convergents` is the two-term recurrence p_k = c p_{k-1} + p_{k-2},
  which gives the exact members of a family and the big operands of
  ``sum`` whose value is known from the family they belong to.
* :func:`search_hits` is the complete answer of ``search``: every hit
  satisfies 12 b s(a, b) = a + a^-1 (mod b), so only roots of
  a^2 - N a + 1 = 0 (mod b) are evaluated, each with the oracle.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterator, Sequence


def normalized_sum(a: int, b: int) -> Fraction:
    """S(a, b) from the defining sum; requires b >= 1 and gcd(a, b) = 1."""
    if b < 1 or gcd(a, b) != 1:
        raise ValueError(f"({a}, {b}) is not a coprime pair")
    a %= b
    # 0 < k < b and gcd(a, b) = 1, so neither sawtooth argument is an integer
    total = sum((2 * k - b) * (2 * (a * k % b) - b) for k in range(1, b))
    return Fraction(3 * total, b * b)


def cf_terms(a: int, b: int) -> list[int]:
    """Canonical continued-fraction terms of a/b for 0 <= a < b."""
    terms = []
    while a:
        c, r = divmod(b, a)
        terms.append(c)
        b, a = a, r
    return terms


def convergents(period: Sequence[int]) -> Iterator[tuple[int, int, int]]:
    """(k, p_k, q_k) for k = 0, 1, ... of [0; period repeated]."""
    p_prev, p, q_prev, q = 1, 0, 0, 1
    k = 0
    yield 0, 0, 1
    while True:
        c = period[k % len(period)]
        k += 1
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
        yield k, p, q


def family_period(a: int, b: int, c: int = 1) -> tuple[str, tuple[int, ...] | None]:
    """(case, period) of the family of the reduced source a/b.

    An even-length expansion gets the free term c appended; an odd-length
    one ends (c_n - 1, 1) and gets one more 1; the source 0/1 is the zero
    family (m, m^2 + 1), which has no period.
    """
    if a == 0:
        return "zero-family", None
    terms = cf_terms(a, b)
    if len(terms) % 2 == 0:
        return "append-term", tuple(terms) + (c,)
    return "rewrite-tail", tuple(terms[:-1]) + (terms[-1] - 1, 1, 1)


def family_members(a: int, b: int, c: int = 1) -> Iterator[tuple[int | None, int, int]]:
    """(k, a_t, b_t) of members t = 0, 1, ... of the family of the reduced a/b."""
    case, period = family_period(a, b, c)
    if period is None:
        m = 1
        while True:
            yield None, m, m * m + 1
            m += 1
    length = len(period)
    for k, p, q in convergents(period):
        if k % (2 * length) == length - 1:
            yield k, p, q


def _mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def family_member(a: int, b: int, c: int, t: int) -> tuple[int, int]:
    """(a_t, b_t) of member t of a periodic family, by powers of the period's matrix.

    [[p_k, p_k-1], [q_k, q_k-1]] is the product of [[c_i, 1], [1, 0]] over
    c_0 = 0, c_1, ..., c_k; for k = L-1 + 2Lt that is the period's product
    taken 2t times, then its first L-1 terms.
    """
    period = family_period(a, b, c)[1]
    whole, head = (1, 0, 0, 1), (1, 0, 0, 1)
    for j, x in enumerate(period):
        whole = _mul(whole, (x, 1, 1, 0))
        if j < len(period) - 1:
            head = _mul(head, (x, 1, 1, 0))
    power, n = (0, 1, 1, 0), 2 * t
    while n:
        if n & 1:
            power = _mul(power, whole)
        whole = _mul(whole, whole)
        n >>= 1
    m = _mul(power, head)
    return m[0], m[2]


def search_hits(target: Fraction, bound: int) -> list[tuple[int, int]]:
    """Every (a, b) with 0 < a < b < bound, gcd 1 and S(a, b) == target, by (b, a)."""
    u, v = target.numerator, target.denominator
    hits = []
    for b in range(2, bound):
        if b * u % v:  # b*S(a, b) is an integer
            continue
        n = b * u // v % b
        for a in range(1, b):
            if (a * (a - n) + 1) % b == 0 and normalized_sum(a, b) == target:
                hits.append((a, b))
    return hits
