"""Infinite families of coprime pairs sharing one normalized Dedekind sum.

Given coprime (a, b), the canonical expansion of a/b is turned into an
odd-length period: an even-length expansion gets one free term c >= 1
appended, an odd-length one is rewritten to end (c_n - 1, 1) and then a
single 1 is appended.  Either way the resulting periodic fraction has
odd period length L, its convergent at k = L-1 is exactly (a, b), and
every convergent with k = L-1 (mod 2L) has the same normalized sum
S(a, b) while the denominators q_k grow exponentially.

The degenerate source a/b = 0/1 has no expansion to work with; it is
dispatched to the classical zero family (a, a^2 + 1), all of whose
members have sum 0.

verify_members re-checks a whole family at once, and
verify_period_constancy checks a period the same way.  Member t+1's
expansion is member t's with 2L period terms in front, so one Euclidean
descent of the deepest member passes through every shallower member's
pair, and a backward sweep over its quotients gives each member's sum.
Members not met on that path, and zero-family members, are evaluated one
by one; verify_member stays as the per-member oracle.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Sequence

from .contfrac import Convergent, expand, iter_convergents, to_alternate
from .dedekind import CoprimePair, normalized_sum_fast, reduce_pair


class VerificationError(RuntimeError):
    """An already-constructed member failed re-verification; a bug."""


class FamilyCase(enum.Enum):
    APPEND_TERM = "append-term"    # even expansion length: period (c_1..c_n, c)
    REWRITE_TAIL = "rewrite-tail"  # odd length: period (c_1..c_{n-1}, c_n - 1, 1, 1)
    ZERO = "zero-family"           # source 0/1: members (a, a^2 + 1)


@dataclass(frozen=True)
class FamilyPlan:
    source: CoprimePair
    case: FamilyCase
    period: tuple[int, ...] | None  # None for the zero family
    appended_term: int | None       # the free term c, APPEND_TERM only
    value: Fraction                 # S(source), shared by every member

    @property
    def period_length(self) -> int | None:
        return None if self.period is None else len(self.period)


@dataclass(frozen=True)
class FamilyMember:
    t: int            # ordinal within the family
    k: int | None     # convergent index; None for zero-family members
    pair: CoprimePair
    value: Fraction


def plan_family(a: int, b: int, c: int = 1) -> FamilyPlan:
    """Build the odd-period plan for (a, b) with free appended term c.

    c only matters when the canonical expansion has even length;
    different choices of c give different families for the same value.
    """
    if c < 1:
        raise ValueError("appended term must be >= 1")
    source = reduce_pair(a, b)
    value = normalized_sum_fast(source.a, source.b)
    if source.a == 0:  # b == 1 necessarily
        return FamilyPlan(source, FamilyCase.ZERO, None, None, value)
    e = expand(source.a, source.b)
    if len(e.terms) % 2 == 0:
        return FamilyPlan(source, FamilyCase.APPEND_TERM, e.terms + (c,), c, value)
    period = to_alternate(e).terms + (1,)
    return FamilyPlan(source, FamilyCase.REWRITE_TAIL, period, None, value)


def iter_members(plan: FamilyPlan) -> Iterator[FamilyMember]:
    """Lazy stream of members t = 0, 1, 2, ...; denominators increase strictly.

    The member value is stamped from the plan, not recomputed -- use
    verify_members (or verify_member, one at a time) for an independent
    check.
    """
    if plan.case is FamilyCase.ZERO:
        t = 0
        while True:
            base = t + 1
            yield FamilyMember(t, None, CoprimePair(base, base * base + 1), plan.value)
            t += 1
    assert plan.period is not None
    for t, row in enumerate(_progression(plan.period)):
        yield FamilyMember(t, row.k, CoprimePair(row.p, row.q), plan.value)


def _progression(period: Sequence[int]) -> Iterator[Convergent]:
    """The convergent rows k = L-1 + 2*L*t, t = 0, 1, 2, ...: member t is row t."""
    return islice(iter_convergents(period), len(period) - 1, None, 2 * len(period))


def members(plan: FamilyPlan, count: int) -> list[FamilyMember]:
    """The first ``count`` members (t = 0..count-1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return list(islice(iter_members(plan), count))


def verify_member(member: FamilyMember, source: CoprimePair) -> bool:
    """Recompute both sums from scratch; trusts nothing stored in the member."""
    got = normalized_sum_fast(member.pair.a, member.pair.b)
    want = normalized_sum_fast(source.a, source.b)
    return got == want


def verify_members(plan: FamilyPlan, rows: Sequence[FamilyMember]) -> None:
    """Fail closed: raise VerificationError naming the lowest failing t.

    ``rows`` are in t order.  Each member's sum is recomputed from its
    pair and compared with S(plan.source), recomputed too.  For a
    periodic plan the members met on the descent of the deepest one
    share that descent; every other member gets its own.
    """
    want = normalized_sum_fast(plan.source.a, plan.source.b)
    pairs = [(m.pair.a, m.pair.b) for m in rows]
    shared = _shared_descent(pairs, want) if plan.period is not None else {}
    i = _first_mismatch(pairs, want, shared)
    if i is not None:
        m = rows[i]
        raise VerificationError(
            f"member t={m.t} ({m.pair.a}, {m.pair.b}) does not match the source value"
        )


def _first_mismatch(pairs: Sequence[tuple[int, int]], want: Fraction,
                    shared: dict[int, bool]) -> int | None:
    """First index whose S is not ``want`` (from ``shared``, else the kernel), or None."""
    for i, (a, b) in enumerate(pairs):
        ok = shared.get(i)
        if ok is None:
            ok = normalized_sum_fast(a, b) == want
        if not ok:
            return i
    return None


def _shared_descent(pairs: Sequence[tuple[int, int]], want: Fraction) -> dict[int, bool]:
    """{pair index: S == want} for the pairs met on the deepest pair's descent.

    Pairs are (a, b), 0 <= a < b.  The result is empty unless the descent
    ends at remainder 1; gcd is constant along it, so every pair met is coprime.
    Only the quotients c_1..c_n are kept.  A pair met at step j has the
    quotients c_{j+1}..c_n, so the kernel's closed form is read from the
    end: the alternating sum A_j = c_{j+1} - A_{j+1}, and q_{n-1} as the
    continuant U_j = c_{j+1}*U_{j+1} + U_{j+2} with U_{n-1} = 1, U_n = 0.
    """
    # (b, a, index) by b descending; r0 only decreases, so one pointer
    # walks the list.  The sentinel's b = 0 is never reached.
    todo = sorted(((b, a, i) for i, (a, b) in enumerate(pairs)), reverse=True)
    todo.append((0, 0, -1))
    r0, r1 = todo[0][0], todo[0][1]
    pos = 0
    met: dict[int, int] = {}  # step j -> pair index
    quotients = []
    while r1:
        while todo[pos][0] > r0:
            pos += 1
        b, a, i = todo[pos]
        if b == r0 and a == r1:
            met[len(quotients)] = i
            pos += 1
        c = r0 // r1
        quotients.append(c)
        r0, r1 = r1, r0 - c * r1
    if r0 != 1:
        return {}
    n = len(quotients)
    num_want, den_want = want.numerator, want.denominator
    out = {}
    alt, u, u_next = 0, 0, 1  # A_n, U_n, U_{n+1}
    for j in range(n - 1, -1, -1):
        c = quotients[j]
        alt = c - alt
        u, u_next = c * u + u_next, u
        i = met.get(j)
        if i is not None:
            a, b = pairs[i]
            odd = (n - j) & 1
            num = (alt - 3 * odd) * b + a + (u if odd else -u)
            out[i] = num * den_want == num_want * b  # num/b == want, no gcd
    return out


def verify_period_constancy(period: Sequence[int], depth: int = 3) -> bool:
    """Check S(p_k, q_k) is constant over k = L-1, 3L-1, ..., (2*depth-1)*L-1.

    Requires odd period length; checks the pairs against the first one's
    sum with the checker verify_members uses.
    """
    period = tuple(period)
    if not period:
        raise ValueError("empty period")
    if len(period) % 2 == 0:
        raise ValueError("odd period length required")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pairs = [(row.p, row.q) for row in islice(_progression(period), depth)]
    want = normalized_sum_fast(*pairs[0])
    return _first_mismatch(pairs, want, _shared_descent(pairs, want)) is None
