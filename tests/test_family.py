import dataclasses
import math
import random
import re
from fractions import Fraction
from itertools import islice

import pytest

from dedsum import contfrac, family
from dedsum.cli import main
from dedsum.dedekind import CoprimePair, dedekind_sum_naive, normalized_sum_fast
from dedsum.family import (
    FamilyCase,
    FamilyMember,
    VerificationError,
    iter_members,
    members,
    plan_family,
    verify_member,
    verify_members,
    verify_period_constancy,
)
from dedsum.surd import closed_form_value, surd_from_period


def test_plan_worked_example():
    plan = plan_family(5, 14)
    assert plan.case is FamilyCase.REWRITE_TAIL
    assert plan.period == (2, 1, 3, 1, 1)
    assert plan.period_length == 5
    assert plan.value == Fraction(18, 7)


def test_plan_odd_expansion_examples():
    plan = plan_family(1, 3, c=7)  # 1/3 = [0; 3], odd length: c unused
    assert plan.case is FamilyCase.REWRITE_TAIL
    assert plan.period == (2, 1, 1)
    assert plan.appended_term is None

    plan = plan_family(1, 2, c=3)
    assert plan.case is FamilyCase.REWRITE_TAIL
    assert plan.period == (1, 1, 1)


def test_plan_even_expansion_appends_free_term():
    for c in (1, 2, 7):
        plan = plan_family(2, 5, c=c)  # 2/5 = [0; 2, 2], even length
        assert plan.case is FamilyCase.APPEND_TERM
        assert plan.period == (2, 2, c)
        assert plan.appended_term == c
        assert plan.value == 0


def test_plan_zero_family_dispatch():
    for a in (0, 1, 7, -3):
        plan = plan_family(a, 1)
        assert plan.case is FamilyCase.ZERO
        assert plan.period is None
        assert plan.value == 0


def test_plan_errors():
    with pytest.raises(ValueError):
        plan_family(5, 14, c=0)
    with pytest.raises(ValueError, match="not coprime"):
        plan_family(6, 14)
    with pytest.raises(ValueError, match="invalid modulus"):
        plan_family(1, 0)


def test_members_worked_example():
    rows = members(plan_family(5, 14), 4)
    assert [(m.pair.a, m.pair.b) for m in rows] == [
        (5, 14),
        (4535, 12614),
        (4090565, 11377814),
        (3689685095, 10262775614),
    ]
    assert [m.k for m in rows] == [4, 14, 24, 34]
    assert all(m.value == Fraction(18, 7) for m in rows)


def test_members_zero_family():
    rows = members(plan_family(0, 1), 3)
    assert [(m.pair.a, m.pair.b) for m in rows] == [(1, 2), (2, 5), (3, 10)]
    assert all(m.value == 0 for m in rows)
    assert all(m.k is None for m in rows)


def test_members_first_is_source():
    rows = members(plan_family(1, 3), 1)
    assert (rows[0].t, rows[0].pair) == (0, CoprimePair(1, 3))


def test_members_count_validation():
    with pytest.raises(ValueError):
        members(plan_family(1, 3), 0)


def test_member_indices_follow_progression():
    plan = plan_family(3, 11, c=2)
    length = plan.period_length
    for m in members(plan, 5):
        assert m.k == length - 1 + 2 * length * m.t
        assert m.k % (2 * length) == length - 1


def test_members_are_the_convergent_rows():
    # iter_convergents, walked row by row, is the oracle for the
    # period-matrix step
    wanted = [(FamilyCase.APPEND_TERM, c) for c in range(1, 10)] + [(FamilyCase.REWRITE_TAIL, 1)] * 5
    for plan in seeded_plans(wanted, b_max=2000):
        length = plan.period_length
        oracle = [row for row in islice(contfrac.iter_convergents(plan.period), 120 * length)
                  if row.k % (2 * length) == length - 1]
        assert len(oracle) == 60
        for count in range(1, 61):
            rows = oracle[:count]
            got = [(m.t, m.k, m.pair.a, m.pair.b) for m in members(plan, count)]
            assert got == [(t, k, p, q) for t, (k, p, q) in enumerate(rows)], (plan.source, count)
            assert verify_period_constancy(plan.period, depth=count), (plan.source, count)


@pytest.mark.parametrize("period", [(1,), (4,), (2, 1, 3, 1, 1), (9, 1, 1, 7, 2, 2, 5)])
def test_progression_steps_match_the_walk(period):
    # includes L = 1, whose row k = L-2 is the recurrence's seed (1, 0)
    assert (list(islice(family.progression(period), 30))
            == list(islice(family.progression(period, walk=True), 30)))


@pytest.mark.parametrize("source", [(5, 14), (0, 1)])
def test_members_skip_the_gcd(monkeypatch, source):
    # member pairs are coprime by construction; only the source goes
    # through CoprimePair's own checks
    checked = []
    real = CoprimePair.__post_init__
    monkeypatch.setattr(CoprimePair, "__post_init__", lambda self: checked.append(self) or real(self))
    plan = plan_family(*source)
    rows = members(plan, 200)
    assert checked == [plan.source]
    verify_members(plan, rows)


def test_verify_member():
    source = CoprimePair(5, 14)
    value = Fraction(18, 7)
    assert verify_member(FamilyMember(1, 14, CoprimePair(4535, 12614), value), source)
    assert verify_member(FamilyMember(0, 4, CoprimePair(5, 14), value), source)
    assert verify_member(FamilyMember(0, None, CoprimePair(27, 70), value), source)
    assert not verify_member(FamilyMember(0, None, CoprimePair(1, 3), value), source)


def test_period_constancy_known():
    assert verify_period_constancy((2, 1, 3, 1, 1), depth=3)
    assert verify_period_constancy((1,), depth=3)
    assert verify_period_constancy((1, 1, 1), depth=2)


def convergents_with_row(k_bad, p, q):
    """family.iter_convergents with row k_bad's pair replaced by (p, q)."""
    real = family.iter_convergents

    def fake(period):
        for row in real(period):
            yield row._replace(p=p, q=q) if row.k == k_bad else row

    return fake


@pytest.mark.parametrize("k_bad", [4, 24, 34])  # the first, a middle and the last row
def test_period_constancy_fails_closed(capsys, monkeypatch, k_bad):
    # S(1, 3) = 2/3, not 18/7
    monkeypatch.setattr(family, "iter_convergents", convergents_with_row(k_bad, 1, 3))
    assert not verify_period_constancy((2, 1, 3, 1, 1), depth=4)
    assert main(["verify", "2", "1", "3", "1", "1", "--depth", "4"]) == 3
    out = capsys.readouterr()
    assert "FAILED" in out.out
    assert "not constant" in out.err


def test_period_constancy_rejects_a_row_that_is_not_coprime(monkeypatch):
    # gcd(42, 77) = 7, yet the closed form read off its descent is 18/7;
    # the descent ends at remainder 7, so it must certify nothing and
    # leave the row to the kernel
    monkeypatch.setattr(family, "iter_convergents", convergents_with_row(14, 42, 77))
    with pytest.raises(ValueError, match="not coprime"):
        verify_period_constancy((2, 1, 3, 1, 1), depth=2)


def test_period_constancy_shares_one_descent(monkeypatch):
    calls = []
    real = family.normalized_sum_fast
    monkeypatch.setattr(family, "normalized_sum_fast", lambda a, b: calls.append((a, b)) or real(a, b))
    assert verify_period_constancy((2, 1, 3, 1, 1), depth=12)
    assert calls == [(5, 14)]  # the first row; the other eleven are read off its descent


def test_period_constancy_errors():
    with pytest.raises(ValueError, match="odd"):
        verify_period_constancy((1, 2), depth=3)
    with pytest.raises(ValueError, match="empty"):
        verify_period_constancy((), depth=3)
    with pytest.raises(ValueError, match="depth"):
        verify_period_constancy((1,), depth=0)


def random_sources(n, b_max, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < n:
        b = rng.randint(2, b_max)
        a = rng.randrange(1, b)
        if math.gcd(a, b) == 1:
            out.append((a, b, rng.choice((1, 2, 3))))
    return out


def test_random_families_verify():
    # the acceptance suite runs the full 200-source version
    for a, b, c in random_sources(60, 10**4, seed=20260810):
        plan = plan_family(a, b, c)
        rows = members(plan, 3)
        assert rows[0].pair == plan.source
        denominators = [m.pair.b for m in rows]
        assert denominators == sorted(set(denominators)), (a, b, c)
        for m in rows:
            assert verify_member(m, plan.source), (a, b, c, m.t)
        if plan.period is not None:
            surd = surd_from_period(plan.period)
            assert closed_form_value(surd) == plan.value, (a, b, c)


def test_plan_value_matches_oracle_spot_checks():
    for a, b in [(5, 14), (1, 3), (2, 5), (3, 11), (10, 17)]:
        plan = plan_family(a, b)
        assert plan.value == 12 * dedekind_sum_naive(a, b)


def test_iter_members_is_lazy():
    gen = iter_members(plan_family(5, 14))
    first = next(gen)
    assert (first.t, first.k) == (0, 4)
    second = next(gen)
    assert (second.t, second.k) == (1, 14)


def seeded_plans(wanted, b_max=500, seed=20261018):
    """One plan per (case, c) in ``wanted``, from seeded sources with b <= b_max."""
    rng = random.Random(seed)
    wanted = list(wanted)
    plans = []
    while wanted:
        b = rng.randint(2, b_max)
        a = rng.randrange(1, b)
        if math.gcd(a, b) != 1:
            continue
        for case, c in wanted:
            plan = plan_family(a, b, c)
            if plan.case is case:
                wanted.remove((case, c))
                plans.append(plan)
                break
    return plans


def oracle_plans():
    """Two rewrite-tail plans, append-term plans for c in (1, 2, 3, 9), and
    zero families, from seeded sources with b < 500."""
    plans = [plan_family(0, 1), plan_family(5, 14), plan_family(2, 5, c=3)]  # S = 0, 18/7, 0
    wanted = [(FamilyCase.REWRITE_TAIL, 1)] * 2 + [(FamilyCase.APPEND_TERM, c) for c in (1, 2, 3, 9)]
    return plans + seeded_plans(wanted)


def first_failure(plan, rows):
    """The t verify_members names, or None when it accepts the rows."""
    try:
        verify_members(plan, rows)
    except VerificationError as exc:
        return int(re.match(r"member t=(\d+) ", str(exc)).group(1))
    return None


def oracle_failure(plan, rows):
    """The lowest t that the per-member oracle rejects, or None."""
    return next((m.t for m in rows if not verify_member(m, plan.source)), None)


def corruptions(rows):
    """Copies of rows with one pair changed (a+-1, b+-1, a -> b-a) or two pairs swapped."""
    for i, m in enumerate(rows):
        a, b = m.pair.a, m.pair.b
        for x, y in ((a + 1, b), (a - 1, b), (a, b + 1), (a, b - 1), (b - a, b)):
            if 0 <= x < y and math.gcd(x, y) == 1:
                yield rows[:i] + [dataclasses.replace(m, pair=CoprimePair(x, y))] + rows[i + 1:]
    for i, j in [(i, i + 1) for i in range(len(rows) - 1)] + [(0, len(rows) - 1)]:
        if i < j:
            out = list(rows)
            out[i] = dataclasses.replace(rows[i], pair=rows[j].pair)
            out[j] = dataclasses.replace(rows[j], pair=rows[i].pair)
            yield out


def test_verify_members_agrees_with_per_member_oracle():
    rng = random.Random(7)
    rejected = 0
    for plan in oracle_plans():
        for count in (1, rng.randint(2, 39), 40):
            rows = members(plan, count)
            assert first_failure(plan, rows) is None, (plan.source, count)
            for bad in corruptions(rows):
                want = oracle_failure(plan, bad)
                assert first_failure(plan, bad) == want, (plan.source, count)
                rejected += want is not None
    assert rejected > 1000


def test_verify_members_accepts_a_correct_pair_off_the_chain(monkeypatch):
    plan = plan_family(5, 14)
    rows = members(plan, 4)
    rows[2] = dataclasses.replace(rows[2], pair=CoprimePair(27, 70))  # S(27, 70) = 18/7
    calls = []
    real = family.normalized_sum_fast
    monkeypatch.setattr(family, "normalized_sum_fast", lambda a, b: calls.append((a, b)) or real(a, b))
    verify_members(plan, rows)
    assert calls == [(5, 14), (27, 70)]  # the source, then the one member off the descent


def test_verify_members_shares_one_descent(monkeypatch):
    # a silent fallback to one descent per member must fail here, not
    # only show up as a slower benchmark
    plan = plan_family(5, 14)
    rows = members(plan, 200)
    calls = []
    real = family.normalized_sum_fast
    monkeypatch.setattr(family, "normalized_sum_fast", lambda a, b: calls.append((a, b)) or real(a, b))
    verify_members(plan, rows)
    assert calls == [(5, 14)]
