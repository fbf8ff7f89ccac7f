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

Members are built, not re-derived.  progression seeds the rows k = L-2
and L-1 from iter_convergents and moves from member t to member t+1 by
one 2x2 period matrix, the product of [[c, 1], [1, 0]] over the 2L
period terms in between.  Their coprimality is certified by
construction, so no gcd of the large numbers is taken: consecutive
convergents satisfy p_k*q_{k-1} - p_{k-1}*q_k = +-1, and
gcd(n, n^2 + 1) = 1 for the zero family.  CoprimePair itself still
checks every pair built any other way.

verify_members re-checks a whole family at once, and
verify_period_constancy checks a period the same way.  Member t+1's
expansion is member t's with 2L period terms in front, so one Euclidean
descent of the deepest member passes through every shallower member's
pair, and a backward sweep over its quotients gives each member's sum.
The descent certifies coprimality a second time: it trusts the pairs it
met only when it ends at remainder 1.  Members not met on that path
(on the zero family, every member but the deepest) are evaluated one
by one by the kernel, which rejects a non-coprime pair itself;
verify_member stays as the per-member oracle.
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

    Periodic members are the rows of progression, one period-matrix step
    apart; zero-family member t is (t + 1, (t + 1)^2 + 1).  Both are
    coprime by construction (the determinant identity of consecutive
    convergents, gcd(n, n^2 + 1) = 1), so their pairs skip the gcd that
    CoprimePair would take.  The member value is stamped from the plan,
    not recomputed -- use verify_members (or verify_member, one at a
    time) for an independent check.
    """
    if plan.case is FamilyCase.ZERO:
        t = 0
        while True:
            base = t + 1
            yield FamilyMember(t, None, _certified(base, base * base + 1), plan.value)
            t += 1
    assert plan.period is not None
    for t, row in enumerate(progression(plan.period)):
        yield FamilyMember(t, row.k, _certified(row.p, row.q), plan.value)


def _certified(a: int, b: int) -> CoprimePair:
    """CoprimePair(a, b) without its checks, for a pair reduced and coprime by construction."""
    pair = object.__new__(CoprimePair)
    object.__setattr__(pair, "a", a)  # the dataclass is frozen
    object.__setattr__(pair, "b", b)
    return pair


def progression(period: Sequence[int], *, walk: bool = False) -> Iterator[Convergent]:
    """The convergent rows k = L-1 + 2*L*t, t = 0, 1, 2, ...: member t is row t.

    Rows k = L-2 and L-1 come from iter_convergents; every later row is
    the one 2L before it times the period matrix, eight multiplications
    per member instead of 2L convergent rows.  walk=True takes every row
    from iter_convergents instead, the plain recurrence that
    verify_period_constancy checks the theorem on.
    """
    length = len(period)
    if walk:
        return islice(iter_convergents(period), length - 1, None, 2 * length)
    return _stepped(period)


def _stepped(period: Sequence[int]) -> Iterator[Convergent]:
    length = len(period)
    rows = iter_convergents(period)
    prev, row = Convergent(-1, 1, 0), next(rows)  # rows k = -1 and 0
    for _ in range(length - 1):
        prev, row = row, next(rows)
    # (p_{k+2L}, p_{k+2L-1}) = (p_k, p_{k-1}) M, M the product of
    # [[c, 1], [1, 0]] over the period terms of rows k+1 .. k+2L
    m00, m01, m10, m11 = 1, 0, 0, 1
    for j in range(2 * length):
        c = period[(length - 1 + j) % length]
        m00, m01, m10, m11 = m00 * c + m01, m00, m10 * c + m11, m10
    k, p, q = row
    p_prev, q_prev = prev.p, prev.q
    while True:
        yield Convergent(k, p, q)
        k += 2 * length
        p, p_prev = p * m00 + p_prev * m10, p * m01 + p_prev * m11
        q, q_prev = q * m00 + q_prev * m10, q * m01 + q_prev * m11


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
    pair and compared with S(plan.source), recomputed too.  The members
    met on the descent of the deepest one share that descent; every
    other member gets its own.
    """
    want = normalized_sum_fast(plan.source.a, plan.source.b)
    i = _first_mismatch([(m.pair.a, m.pair.b) for m in rows], want)
    if i is not None:
        m = rows[i]
        raise VerificationError(
            f"member t={m.t} ({m.pair.a}, {m.pair.b}) does not match the source value"
        )


def _first_mismatch(pairs: Sequence[tuple[int, int]], want: Fraction) -> int | None:
    """First index whose S is not ``want`` (by the shared descent, else the kernel), or None."""
    shared = _shared_descent(pairs, want)
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

    Requires odd period length.  The rows are walked by the plain
    convergent recurrence, not built by the period matrix, and checked
    against the first one's sum with the checker verify_members uses.
    """
    period = tuple(period)
    if not period:
        raise ValueError("empty period")
    if len(period) % 2 == 0:
        raise ValueError("odd period length required")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    pairs = [(row.p, row.q) for row in islice(progression(period, walk=True), depth)]
    return _first_mismatch(pairs, normalized_sum_fast(*pairs[0])) is None
