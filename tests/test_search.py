import math
import os
import random
from collections import defaultdict
from fractions import Fraction

import pytest

from dedsum import _kernel_py, search
from dedsum.dedekind import CoprimePair, dedekind_sum_naive
from dedsum.search import search_stream, search_value

# Every reduced pair with b < 1000 whose normalized sum is 18/7.  The
# well-known table of these pairs lists one numerator per denominator;
# the remaining numerators are their inverses mod b (Dedekind sums are
# invariant under a -> a^{-1} mod b), which is why b = 259 and b = 455
# carry two inverse orbits each.  Each pair below has been confirmed
# against the defining sum directly.
HITS_18_7_BELOW_1000 = [
    (3, 14), (5, 14),
    (13, 70), (27, 70),
    (13, 119), (55, 119),
    (31, 259), (68, 259), (80, 259), (117, 259),
    (75, 406), (157, 406),
    (47, 455), (73, 455), (122, 455), (138, 455), (187, 455), (213, 455),
    (111, 707), (293, 707),
    (111, 854), (377, 854),
]


def test_full_enumeration_18_7_below_1000():
    result = search_value(Fraction(18, 7), 1000)
    assert [(p.a, p.b) for p in result.hits] == HITS_18_7_BELOW_1000
    # closed under modular inversion of the numerator
    hits = {(p.a, p.b) for p in result.hits}
    assert all((pow(a, -1, b), b) in hits for a, b in hits)
    # the attained denominators below 1000, exactly
    assert sorted({p.b for p in result.hits}) == [14, 70, 119, 259, 406, 455, 707, 854]


def test_hits_confirmed_by_defining_sum():
    for a, b in HITS_18_7_BELOW_1000:
        assert 12 * dedekind_sum_naive(a, b) == Fraction(18, 7), (a, b)


def test_small_bound_18_7():
    result = search_value(Fraction(18, 7), 150)
    assert [(p.a, p.b) for p in result.hits] == [
        (3, 14), (5, 14), (13, 70), (27, 70), (13, 119), (55, 119),
    ]


def test_zero_target_small_bounds():
    assert [(p.a, p.b) for p in search_value(Fraction(0), 3).hits] == [(1, 2)]
    # frozen from the brute-force sweep; equivalently a^2 = -1 (mod b)
    assert [(p.a, p.b) for p in search_value(Fraction(0), 6).hits] == [
        (1, 2), (2, 5), (3, 5),
    ]


def test_nonzero_integer_targets_are_never_attained():
    assert search_value(Fraction(1), 400).hits == ()
    assert search_value(Fraction(-2), 400).hits == ()


def test_bound_is_exclusive():
    assert search_value(Fraction(18, 7), 14).hits == ()
    assert [(p.a, p.b) for p in search_value(Fraction(18, 7), 15).hits] == [
        (3, 14), (5, 14),
    ]


def test_input_validation():
    with pytest.raises(ValueError, match="bound"):
        search_value(Fraction(0), 1)
    with pytest.raises(ValueError, match="jobs"):
        search_value(Fraction(0), 10, jobs=0)


def test_matches_brute_force_oracle_for_observed_targets():
    bound = 200
    by_value = defaultdict(list)
    for b in range(2, bound):
        for a in range(1, b):
            if math.gcd(a, b) == 1:
                by_value[12 * dedekind_sum_naive(a, b)].append((a, b))
    rng = random.Random(99)
    targets = rng.sample(sorted(by_value, key=lambda q: (q.denominator, q.numerator)), 20)
    for target in targets:
        expected = sorted(by_value[target], key=lambda ab: (ab[1], ab[0]))
        got = [(p.a, p.b) for p in search_value(target, bound).hits]
        assert got == expected, target


def test_prune_is_behavior_preserving():
    # the denominator filter and the congruence screen against the exhaustive
    # scan; targets include 0, negatives, integers and denominators divisible
    # by 2, 3 and 4, and values the defining sum says are attained below 400
    fixed = [Fraction(0), Fraction(1), Fraction(-2), Fraction(18, 7), Fraction(-18, 7),
             Fraction(3, 2), Fraction(-1, 2), Fraction(2, 3), Fraction(-2, 3),
             Fraction(-4, 3), Fraction(5, 4), Fraction(-7, 4), Fraction(7, 6),
             Fraction(11, 12), Fraction(8, 21), Fraction(7, 5)]
    rng = random.Random(10)
    attained = set()
    while len(attained) < 20:
        b = rng.randrange(3, 400)
        a = rng.randrange(1, b)
        if math.gcd(a, b) == 1:
            attained.add(12 * dedekind_sum_naive(a, b))
    for target in fixed + sorted(attained - set(fixed)):
        pruned = search_value(target, 400, prune=True)
        full = search_value(target, 400, prune=False)
        assert pruned.hits == full.hits, target
        assert pruned.pairs_scanned <= full.pairs_scanned, target


def test_every_pair_is_a_root_of_its_congruence():
    # the fact the screen rests on: N = 12*b*s(a, b) is an even integer and
    # N = a + a^-1 (mod b), i.e. a^2 - N*a + 1 = 0 (mod b); checked on the
    # defining sum, not the kernel
    for b in range(2, 151):
        for a in range(1, b):
            if math.gcd(a, b) != 1:
                continue
            n = 12 * b * dedekind_sum_naive(a, b)
            assert n.denominator == 1 and n.numerator % 2 == 0, (a, b)
            assert (a * a - n.numerator * a + 1) % b == 0, (a, b)


def test_screen_evaluates_only_the_roots(monkeypatch):
    calls = []
    evaluate = _kernel_py.normalized_sum_parts

    def counting(a, b):
        calls.append((a, b))
        return evaluate(a, b)

    monkeypatch.setattr(_kernel_py, "normalized_sum_parts", counting)
    result = search_value(Fraction(18, 7), 1000)
    assert [(p.a, p.b) for p in result.hits] == HITS_18_7_BELOW_1000
    # brute-force roots of a^2 - N*a + 1 = 0 (mod b) over the b the filter keeps
    roots = 0
    for b in range(2, 1000):
        if b * 18 % 14:
            continue
        n = b * 18 // 7 % b
        roots += sum(1 for a in range(1, b) if (a * a - n * a + 1) % b == 0)
    assert len(calls) == roots


def test_parallel_runs_are_identical():
    lone = search_value(Fraction(18, 7), 500, jobs=1)
    for jobs in (2, 4, 8):
        many = search_value(Fraction(18, 7), 500, jobs=jobs)
        assert many.hits == lone.hits
        assert many.pairs_scanned == lone.pairs_scanned


def test_stream_emits_hits_in_order():
    seen = []
    summary = search_stream(Fraction(18, 7), 200, seen.append)
    assert seen == list(summary.hits)
    assert [(p.a, p.b) for p in seen] == [(3, 14), (5, 14), (13, 70), (27, 70), (13, 119), (55, 119)]
    assert all(isinstance(p, CoprimePair) for p in seen)
    assert summary == search_value(Fraction(18, 7), 200)


def test_scanned_counts_post_prune_coprime_evaluations():
    # with the filter off, every coprime pair with 2 <= b < bound is evaluated
    full = search_value(Fraction(18, 7), 100, prune=False)
    assert full.pairs_scanned == sum(
        sum(1 for a in range(1, b) if math.gcd(a, b) == 1) for b in range(2, 100)
    )
    pruned = search_value(Fraction(18, 7), 100, prune=True)
    # only multiples of 7 survive the even-integer filter for 18/7
    assert pruned.pairs_scanned == sum(
        sum(1 for a in range(1, b) if math.gcd(a, b) == 1) for b in range(2, 100) if b % 7 == 0
    )


def test_slices_cover_the_range_in_order():
    for bound in range(2, 120):
        for jobs in (1, 2, 3, 8):
            slices = search._chunks(bound, jobs)
            edges = [2] + [hi for _, hi in slices]
            assert [lo for lo, _ in slices] == edges[:-1], (bound, jobs)
            assert edges[-1] == bound and all(lo < hi for lo, hi in slices), (bound, jobs)


def test_slices_balance_estimated_cost():
    # scanning one b costs about b, so equal-cost slices carry equal sums of b
    for bound, jobs in [(10**5, 2), (4000, 2), (2500, 2), (10**6, 8)]:
        costs = [sum(range(lo, hi)) for lo, hi in search._chunks(bound, jobs)]
        assert len(costs) == 4 * jobs
        assert max(costs) <= 1.25 * min(costs), (bound, jobs)


@pytest.fixture
def in_process_pool(monkeypatch):
    """install(cpus) swaps search.Pool for an in-process fake on a machine
    with ``cpus`` CPUs; it returns the pool sizes asked for and the tasks run."""
    def install(cpus):
        asked, tasks = [], []

        class InProcessPool:
            def __init__(self, processes, initializer, initargs):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, fn, work):
                tasks.extend(work)
                return map(fn, work)

        monkeypatch.setattr(search, "Pool", InProcessPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        return asked, tasks

    return install


def test_pool_is_never_larger_than_its_work(in_process_pool):
    asked, _ = in_process_pool(cpus=64)
    many = search_value(Fraction(0), 6, jobs=64)
    assert asked and all(n <= 4 for n in asked)
    lone = search_value(Fraction(0), 6, jobs=1)
    assert (many.hits, many.pairs_scanned) == (lone.hits, lone.pairs_scanned)


def test_jobs_are_capped_at_the_cpu_count(in_process_pool):
    # without the cap, jobs=10**5 cuts 750 nonempty slices and asks for 750 processes
    asked, tasks = in_process_pool(cpus=2)
    many = search_value(Fraction(18, 7), 1000, jobs=10**5)
    assert asked and all(n <= 2 for n in asked)
    assert len(tasks) <= 8
    lone = search_value(Fraction(18, 7), 1000, jobs=1)
    assert [(p.a, p.b) for p in many.hits] == HITS_18_7_BELOW_1000
    assert (many.hits, many.pairs_scanned) == (lone.hits, lone.pairs_scanned)
