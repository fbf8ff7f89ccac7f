"""Acceptance suite: one check per contract criterion, exact equality only.

Runs under pytest like everything else; running the file directly
(``python tests/test_acceptance.py``) prints one PASS/FAIL line per
criterion and exits nonzero if any fail.

Criterion 5 compares the exhaustive enumeration for S = 18/7, b < 1000
against an 8-entry reference table.  The enumeration provably finds 22
pairs (the table records a single numerator per attained denominator;
sums are invariant under a -> a^{-1} mod b, so numerators come in
inverse orbits).  That check therefore fails, by design loudly, with a
diagnostic dump of the discrepancy; see tests/test_search.py for the
confirmed full listing.
"""

import contextlib
import io
import math
import random
import sys
from fractions import Fraction

from dedsum.cli import main as cli_main
from dedsum.contfrac import convergents, expand
from dedsum.dedekind import dedekind_sum_naive, normalized_sum_fast
from dedsum.family import FamilyCase, members, plan_family, verify_member, verify_period_constancy
from dedsum.search import search_value
from dedsum.surd import closed_form_value, surd_from_period

REFERENCE_TABLE_18_7 = [
    (5, 14), (27, 70), (13, 119), (31, 259),
    (157, 406), (47, 455), (293, 707), (111, 854),
]


def _criterion_01():
    assert 12 * dedekind_sum_naive(5, 14) == Fraction(18, 7)
    assert normalized_sum_fast(5, 14) == Fraction(18, 7)


def _criterion_02():
    assert expand(5, 14).terms == (2, 1, 4)
    plan = plan_family(5, 14)
    assert plan.case is FamilyCase.REWRITE_TAIL
    assert plan.period == (2, 1, 3, 1, 1)
    assert plan.period_length == 5


def _criterion_03():
    rows = {r.k: r for r in convergents((2, 1, 3, 1, 1), 34)}
    assert (rows[14].p, rows[14].q) == (4535, 12614)
    assert (rows[24].p, rows[24].q) == (4090565, 11377814)
    assert (rows[34].p, rows[34].q) == (3689685095, 10262775614)
    for k in (14, 24, 34):
        assert normalized_sum_fast(rows[k].p, rows[k].q) == Fraction(18, 7), k


def _criterion_04():
    s = surd_from_period((2, 1, 3, 1, 1))
    assert s.trace() == Fraction(-10, 7)
    assert closed_form_value(s) == 2 - 1 + 3 - 1 + 1 + Fraction(-10, 7) == Fraction(18, 7)
    # positive root (-B + sqrt(disc))/(2A) must equal -5/7 + sqrt(226)/14:
    # rational parts match and disc/(2A)^2 == 226/14^2, all in integers
    assert Fraction(-s.b, 2 * s.a) == Fraction(-5, 7)
    assert s.disc * 14**2 == 226 * (2 * s.a) ** 2


def _criterion_05():
    result = search_value(Fraction(18, 7), 1000)
    got = [(p.a, p.b) for p in result.hits]
    want = REFERENCE_TABLE_18_7
    if got != want:
        extra = [p for p in got if p not in want]
        missing = [p for p in want if p not in got]
        raise AssertionError("\n".join([
            "enumeration does not match the 8-entry reference table",
            f"reference  ({len(want)} pairs): {want}",
            f"enumerated ({len(got)} pairs): {got}",
            f"extra   ({len(extra)}): {extra}",
            f"missing ({len(missing)}): {missing}",
            f"reference denominators:  {sorted({b for _, b in want})}",
            f"enumerated denominators: {sorted({b for _, b in got})}",
            "every enumerated pair is confirmed by the defining sum",
            "(tests/test_search.py); the table lists one numerator per",
            "denominator while the sweep finds the whole inverse orbit",
            "a -> a^(-1) (mod b) for each attained b.",
        ]))


def _criterion_06():
    for a in range(1, 101):
        assert normalized_sum_fast(a, a * a + 1) == 0, a


def _criterion_07():
    for b in range(1, 201):
        for a in range(b):
            if math.gcd(a, b) == 1:
                assert normalized_sum_fast(a, b) == 12 * dedekind_sum_naive(a, b), (a, b)


def _criterion_08():
    for a in range(1, 101):
        for b in range(1, 101):
            if math.gcd(a, b) != 1:
                continue
            lhs = normalized_sum_fast(a, b) + normalized_sum_fast(b, a)
            rhs = -3 + Fraction(a, b) + Fraction(b, a) + Fraction(1, a * b)
            assert lhs == rhs, (a, b)


def _criterion_09():
    rng = random.Random(18_7)
    sources = []
    while len(sources) < 200:
        b = rng.randint(2, 10**4)
        a = rng.randrange(1, b)
        if math.gcd(a, b) == 1:
            sources.append((a, b, rng.choice((1, 2, 3))))
    for a, b, c in sources:
        plan = plan_family(a, b, c)
        rows = members(plan, 3)
        assert rows[0].pair == plan.source, (a, b, c)
        assert rows[0].pair.b < rows[1].pair.b < rows[2].pair.b, (a, b, c)
        for m in rows:
            assert verify_member(m, plan.source), (a, b, c, m.t)


def _criterion_10():
    from itertools import product

    for length in (1, 3, 5):
        for period in product((1, 2, 3), repeat=length):
            assert verify_period_constancy(period, depth=3), period


def _criterion_11():
    def run(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(argv)
        assert code == 0
        return buf.getvalue()

    for fmt in ("tsv", "json"):
        one = run(["search", "18/7", "500", "--jobs", "1", "--format", fmt])
        eight = run(["search", "18/7", "500", "--jobs", "8", "--format", fmt])
        assert one == eight, fmt
        assert one  # the sweep does find pairs below 500


CRITERIA = {
    1: ("worked example: S(5,14) = 18/7 by both evaluators", _criterion_01),
    2: ("worked example: expansion [0; 2, 1, 4], period (2,1,3,1,1), L = 5", _criterion_02),
    3: ("worked example: convergents k = 14, 24, 34 and their sums", _criterion_03),
    4: ("closed form: trace -10/7, value 18/7, root -5/7 + sqrt(226)/14", _criterion_04),
    5: ("enumeration for 18/7, b < 1000, vs the 8-entry reference table", _criterion_05),
    6: ("zero family: S(a, a^2+1) = 0 for a = 1..100", _criterion_06),
    7: ("oracle suite: fast evaluator = defining sum, all b <= 200", _criterion_07),
    8: ("reciprocity suite: classical cross-identity, all a, b <= 100", _criterion_08),
    9: ("family suite: 200 random sources, 3 members each, re-verified", _criterion_09),
    10: ("constancy suite: depth 3, all odd periods L in {1,3,5}, terms <= 3", _criterion_10),
    11: ("determinism: search 18/7 500 identical with 1 and 8 workers", _criterion_11),
}


def _run(num):
    label, fn = CRITERIA[num]
    try:
        fn()
    except AssertionError:
        print(f"criterion {num:02d} FAIL  {label}")
        raise
    print(f"criterion {num:02d} PASS  {label}")


def test_criterion_01_worked_example_value():
    _run(1)


def test_criterion_02_worked_example_expansion():
    _run(2)


def test_criterion_03_worked_example_convergents():
    _run(3)


def test_criterion_04_closed_form():
    _run(4)


def test_criterion_05_reference_enumeration():
    _run(5)


def test_criterion_06_zero_family():
    _run(6)


def test_criterion_07_oracle_suite():
    _run(7)


def test_criterion_08_reciprocity_suite():
    _run(8)


def test_criterion_09_family_suite():
    _run(9)


def test_criterion_10_constancy_suite():
    _run(10)


def test_criterion_11_search_determinism():
    _run(11)


def main() -> int:
    failures = 0
    for num in sorted(CRITERIA):
        label, fn = CRITERIA[num]
        try:
            fn()
        except AssertionError as exc:
            failures += 1
            print(f"criterion {num:02d} FAIL  {label}")
            for line in str(exc).splitlines():
                print(f"    {line}")
        else:
            print(f"criterion {num:02d} PASS  {label}")
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
