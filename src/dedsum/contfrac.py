"""Continued fractions of rationals in [0, 1) and convergent streams.

A canonical expansion [0; c_1, ..., c_n] has every c_i >= 1 and, when
nonempty, c_n >= 2; each rational in [0, 1) has exactly one such form.
The alternate form trades the final term for a trailing 1,

    (..., c_n)  ->  (..., c_n - 1, 1),

which changes the length parity without changing the value; a trailing
1 is how the alternate form is recognised.  Convergents p_k/q_k follow
the two-term recurrence from p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 0/1, so
for a rational a/b the last convergent is exactly p_n = a, q_n = b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, NamedTuple, Sequence


@dataclass(frozen=True)
class CfExpansion:
    """Finite expansion [0; terms].  Empty terms encode the value 0."""

    terms: tuple[int, ...]

    def __str__(self) -> str:
        if not self.terms:
            return "[0; ]"
        return "[0; " + ", ".join(str(c) for c in self.terms) + "]"


class Convergent(NamedTuple):
    k: int
    p: int
    q: int


def expand(a: int, b: int) -> CfExpansion:
    """Canonical expansion of a/b for the reduced representative.

    Requires 0 <= a < b and gcd(a, b) = 1 (go through reduce_pair
    first); the Euclidean quotients of (b, a) are exactly the canonical
    terms, with the final one >= 2 automatically.
    """
    if b < 1 or not 0 <= a < b:
        raise ValueError("unreduced input")
    terms = []
    r0, r1 = b, a
    while r1:
        c, r2 = divmod(r0, r1)
        terms.append(c)
        r0, r1 = r1, r2
    if r0 != 1:  # the descent ends at gcd(a, b)
        raise ValueError("not coprime")
    return CfExpansion(tuple(terms))


def to_alternate(e: CfExpansion) -> CfExpansion:
    """Equal-valued form one term longer, ending in 1."""
    if not e.terms:
        raise ValueError("no alternate form for zero")
    if e.terms[-1] == 1:
        raise ValueError("expansion is already in alternate form")
    return CfExpansion(e.terms[:-1] + (e.terms[-1] - 1, 1))


def evaluate(e: CfExpansion) -> Fraction:
    """Exact value of the finite continued fraction."""
    value = Fraction(0)
    for c in reversed(e.terms):
        value = Fraction(1, c + value)
    return value


def iter_convergents(period: Sequence[int]) -> Iterator[Convergent]:
    """Stream (k, p_k, q_k), k = 0, 1, 2, ... of [0; period repeated].

    Rows are produced one at a time because q_k grows exponentially;
    callers pull as deep as they need and memory follows the size of the
    current row, not a precomputed table.
    """
    period = tuple(period)
    if not period:
        raise ValueError("empty period")
    if any(c < 1 for c in period):
        raise ValueError("period terms must be >= 1")
    length = len(period)
    p_prev, p = 1, 0  # p_{-1}, p_0
    q_prev, q = 0, 1
    yield Convergent(0, 0, 1)
    k = 0
    while True:
        c = period[k % length]
        k += 1
        p_prev, p = p, c * p + p_prev
        q_prev, q = q, c * q + q_prev
        yield Convergent(k, p, q)


def convergents(period: Sequence[int], upto_k: int) -> list[Convergent]:
    """Rows k = 0..upto_k inclusive, as a list."""
    if upto_k < 0:
        raise ValueError("upto_k must be >= 0")
    return list(islice(iter_convergents(period), upto_k + 1))
