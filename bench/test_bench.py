"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import dedsum.cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def argvs(name, seed, rounds=3):
    stream = workloads.WORKLOADS[name].rounds(seed)
    return [op.argv for ops in itertools.islice(stream, rounds) for op in ops]


def test_same_seed_gives_same_argv_list():
    for name in workloads.WORKLOADS:
        assert argvs(name, 7) == argvs(name, 7)
        assert argvs(name, 7) != argvs(name, 8)


def test_oracle_agrees_with_naive_for_every_reduced_pair_up_to_60():
    for b in range(1, 61):
        for a in range(b):
            if gcd(a, b) == 1:
                assert oracle.normalized_sum(a, b) == 12 * dedsum.dedekind_sum_naive(a, b)


def test_search_hits_match_the_exhaustive_scan():
    for target in (Fraction(0), Fraction(18, 7), Fraction(3, 2), Fraction(22, 3)):
        want = [(p.a, p.b) for p in dedsum.search_value(target, 300, prune=False).hits]
        assert oracle.search_hits(target, 300) == want


def test_family_recurrence_matches_the_library():
    for a, b, c in ((5, 14, 1), (2, 7, 4), (0, 1, 1)):
        plan = dedsum.plan_family(a, b, c)
        assert oracle.family_period(a, b, c) == (plan.case.value, plan.period)
        want = [(m.k, m.pair.a, m.pair.b) for m in dedsum.members(plan, 6)]
        assert list(itertools.islice(oracle.family_members(a, b, c), 6)) == want
        if plan.period is not None:
            assert [oracle.family_member(a, b, c, t) for t in range(6)] == [w[1:] for w in want]


class PlantedCli:
    """Prints the true hits of a search plus one pair that is not a hit."""

    @staticmethod
    def main(argv):
        target, bound = Fraction(argv[1]), int(argv[2])
        for a, b in oracle.search_hits(target, bound) + [(1, 14)]:
            print(f"{a}\t{b}")
        return 0


def test_planted_wrong_hit_is_a_failed_op():
    op = workloads.search_op(Fraction(18, 7), 200, 1)
    planted = workloads.Workload("planted", "b", 90.0, 1, "word-bigint", (),
                                 lambda rng, r: [op])
    runner = run.Runner(PlantedCli)
    attempted, failed, _, details = run.measure(planted, 0, 0.0, runner, run.Clock("word-bigint"))
    assert (attempted, failed, details["fail_ratio"]) == (1, 1, 1.0)
    assert "differ from the oracle" in runner.failures[0]


def test_true_output_passes_every_check():
    runner = run.Runner(dedsum.cli)
    ops = next(workloads.WORKLOADS["cli-mix"].rounds(0)) + [
        workloads.search_op(Fraction(18, 7), 150, 2, rerun_serial=True),
        workloads.family_op(5, 14, None, 3),
        workloads.family_op(2, 7, 4, 3),
        workloads.family_op(9, 1, None, 3),
    ]
    for op in ops:
        rc, out, _ = runner.call(op.argv)
        assert runner.check(op, rc, out), runner.failures


def result_line(capsys, *args):
    assert run.main(["--workload", "cli-mix", "--seed", "1", "--seconds", "0.05", *args]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result["metrics"]


def test_result_line_carries_every_metric_of_benchmark_json(capsys):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
        got = {(name, m["unit"]) for name, m in result_line(capsys, "--trace", trace).items()}
        assert got == {(m["name"], m["unit"]) for m in spec[kind]}


def test_clock_scales_by_the_reference_samples_nearest_in_time():
    clock = run.Clock("descent")
    clock.at = [float(t) for t in range(10)]
    clock.secs = [0.01] * 5 + [0.02] * 5  # the machine halves its speed at t = 5
    assert clock.scale(1.5) == run.REF_S / 0.01
    assert clock.scale(8.2) == run.REF_S / 0.02
    assert clock.scale(-3.0) == clock.scale(0.0) and clock.scale(99.0) == clock.scale(9.0)
