"""Classical and normalized Dedekind sums.

For an integer a and natural number b with gcd(a, b) = 1,

    s(a, b) = sum_{k=1}^{b} ((k/b)) ((a*k/b))

where ((x)) is the centered sawtooth: x - floor(x) - 1/2 off the
integers and 0 on them.  The normalized variant S(a, b) = 12*s(a, b) is
what the rest of the package works with; b*S(a, b) is always an even
integer, and S is unchanged when a shifts by any multiple of b, so every
entry point reduces to the representative 0 <= a < b.

Two evaluators are provided on purpose.  :func:`dedekind_sum_naive`
computes the defining sum term by term in O(b) and is kept permanently
as the oracle the fast path is tested against.
:func:`normalized_sum_fast` runs the Euclidean remainder sequence in
O(log b) arithmetic steps and is the production path used by the family
and search code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _backend


@dataclass(frozen=True)
class CoprimePair:
    """Reduced pair: b >= 1, gcd(a, b) = 1, 0 <= a < b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.b < 1:
            raise ValueError("invalid modulus")
        if not 0 <= self.a < self.b:
            raise ValueError("pair is not reduced")
        if math.gcd(self.a, self.b) != 1:
            raise ValueError("not coprime")


def reduce_pair(a: int, b: int) -> CoprimePair:
    """Representative of (a, b) with 0 <= a < b.

    The shift a -> a mod b does not change the sum, so all downstream
    code may assume the reduced form.
    """
    if b < 1:
        raise ValueError("invalid modulus")
    if math.gcd(a, b) != 1:
        raise ValueError("not coprime")
    return CoprimePair(a % b, b)


def sawtooth(x: Fraction) -> Fraction:
    """((x)): 0 at integers, else x - floor(x) - 1/2."""
    x = Fraction(x)
    if x.denominator == 1:
        return Fraction(0)
    return x - math.floor(x) - Fraction(1, 2)


def dedekind_sum_naive(a: int, b: int) -> Fraction:
    """s(a, b) straight from the defining sum; O(b) terms.

    This is the test oracle.  It skips the k = b term, which is always
    zero, and exploits nothing else.  For 0 < k < b neither k/b nor
    a*k/b is an integer, so ((k/b)) = (2k - b)/(2b) and
    ((a*k/b)) = (2(a*k mod b) - b)/(2b); the terms are summed over the
    common denominator 4b^2 in integers.
    """
    pair = reduce_pair(a, b)
    a, b = pair.a, pair.b
    total = sum((2 * k - b) * (2 * (a * k % b) - b) for k in range(1, b))
    return Fraction(total, 4 * b * b)


def normalized_sum_fast(a: int, b: int) -> Fraction:
    """S(a, b) = 12*s(a, b) via the Euclidean kernel; O(log b) steps."""
    pair = reduce_pair(a, b)
    num, den = _backend.eval_parts(pair.a, pair.b)
    return Fraction(num, den)


def normalized_sum(a: int, b: int, method: str = "fast") -> Fraction:
    """S(a, b) by the chosen evaluator; both agree on every input."""
    if method == "fast":
        return normalized_sum_fast(a, b)
    if method == "naive":
        return 12 * dedekind_sum_naive(a, b)
    raise ValueError(f"unknown method: {method!r}")
