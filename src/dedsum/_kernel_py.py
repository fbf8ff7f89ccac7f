"""Pure-Python kernel: normalized Dedekind sums by Euclidean descent and
the inner loop of the pair search.

All arithmetic is exact, on Python ints of any size.

The evaluator uses a closed form read off the Euclidean remainder
sequence of a/b.  With quotients c_1..c_n and q_{n-1} the denominator of
the next-to-last convergent,

    12*s(a, b) = sum_i (-1)**(i-1) * c_i  -  3*(n odd)
                 + (a + (-1)**(n-1) * q_{n-1}) / b

which is the reciprocity law telescoped along the remainder sequence.
One Euclidean pass produces the quotients, q_{n-1} and the gcd, so a
non-coprime pair is detected for free.
"""

from __future__ import annotations

from math import gcd


def normalized_sum_parts(a: int, b: int) -> tuple[int, int]:
    """Reduced (num, den) of 12*s(a, b) for 0 <= a < b, gcd(a, b) = 1."""
    if a == 0:
        if b != 1:
            raise ValueError("not coprime")
        return 0, 1
    alt = 0
    sign = 1
    q_prev, q = 0, 1  # q_{-1}, q_0
    r0, r1 = b, a
    n_odd = 0
    while r1:
        c = r0 // r1
        alt += sign * c
        sign = -sign
        n_odd ^= 1
        q_prev, q = q, c * q + q_prev
        r0, r1 = r1, r0 - c * r1
    if r0 != 1:
        raise ValueError("not coprime")
    num = (alt - 3 * n_odd) * b + a + (q_prev if n_odd else -q_prev)
    g = gcd(num, b)
    return num // g, b // g


def scan_slice(
    u: int, v: int, lo: int, hi: int, prune: bool
) -> tuple[list[tuple[int, int]], int]:
    """Hits and scanned-count for the denominator slice lo <= b < hi.

    A hit is a coprime pair with 0 < a < b and 12*s(a, b) == u/v, where
    u/v is the target in lowest terms, v > 0.  ``scanned`` counts the
    coprime pairs actually evaluated.  With prune=True, denominators
    where b*u/v cannot be an even integer are skipped whole; b*S(a, b)
    is always an even integer, so no hit is ever lost.
    """
    hits: list[tuple[int, int]] = []
    scanned = 0
    target = (u, v)
    twice_v = 2 * v
    for b in range(lo, hi):
        if prune and (b * u) % twice_v:
            continue
        for a in range(1, b):
            if gcd(a, b) != 1:  # C-level check, cheaper than a descent that fails
                continue
            scanned += 1
            if normalized_sum_parts(a, b) == target:
                hits.append((a, b))
    return hits, scanned
