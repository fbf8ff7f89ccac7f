"""The four seeded workloads: each is an endless stream of rounds of CLI ops.

Every op is one ``dedsum`` command line (the argv the program sees), the
amount of work it stands for, and a check of its stdout.  A round holds
the same mix of op kinds and sizes whatever the seed; the seed only
chooses the operands inside each size stratum and the order within the
round.  That is what keeps the figures of one run close to the figures
of another run with a different seed.  Why each workload exists is in
README.md next to this file.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

import oracle

# Run checks on operands the defining sum can afford; larger ones are
# checked against a value known from the family they belong to.
ORACLE_MAX_B = 5000
# Family members and big `sum` operands stay below this many digits; at
# 4,300 CPython refuses int<->str conversion, a known defect of the CLI
# (ROADMAP item 5) that an op of these workloads never reaches.
MAX_DIGITS = 4000


class Mismatch(Exception):
    """An op's output differs from what the benchmark derived."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


Runner = Callable[[list], tuple]  # argv -> (exit code, stdout)


@dataclass
class Op:
    argv: list[str]
    work: int  # swept denominators, emitted members, or 1 command
    check: Callable[[str, Runner], None]


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str  # what `work` counts, for work_per_s
    tail_pct: float  # fixed per workload; see README.md
    trace_rounds: int  # rounds replayed by a traced run
    reference: str  # the loop of clock.REFERENCES that scales its times
    first_argv: tuple[str, ...]  # the first command timed by setup_s
    make_round: Callable[[random.Random, int], list[Op]]

    def rounds(self, seed: int) -> Iterator[list[Op]]:
        rng = random.Random(f"{self.name}/{seed}")
        r = 0
        while True:
            ops = self.make_round(rng, r)
            rng.shuffle(ops)
            yield ops
            r += 1


def fmt(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}"


def human(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else fmt(q)


def strata(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n values spread log-uniformly over [lo, hi], one per equal stratum."""
    return [lo * (hi / lo) ** ((j + rng.random()) / n) for j in range(n)]


def coprime_below(rng: random.Random, b: int) -> int:
    while True:
        a = rng.randrange(1, b)
        if gcd(a, b) == 1:
            return a


# ---------------------------------------------------------------- search

def _small_targets() -> dict[str, list[Fraction]]:
    """S(a, b) of pairs with b < 64, by the share of denominators pruning keeps."""
    classes: dict[str, set] = {"high": set(), "mid": set(), "low": set()}
    for b in range(3, 64):
        for a in range(1, b):
            if gcd(a, b) != 1:
                continue
            s = oracle.normalized_sum(a, b)
            if s <= 0:
                continue  # targets stay positive: argparse reads "-u/v" as an option
            keep = Fraction(1, s.denominator * (1 if s.numerator % 2 == 0 else 2))
            if keep >= Fraction(1, 4):
                classes["high"].add(s)
            elif keep >= Fraction(1, 10):
                classes["mid"].add(s)
            elif keep >= Fraction(1, 33):
                classes["low"].add(s)
    return {k: sorted(v) for k, v in classes.items()}


TARGETS = _small_targets()
_MAX_BOUND = 20000


def bound_for_steps(target: Fraction, steps: float) -> int:
    """Smallest bound at which the pruned sweep for target takes >= steps.

    A swept denominator b runs the descent for every 0 < a < b, coprime or
    not, and a descent takes 0.843 ln b + 1.47 steps on average (Porter's
    constant), so the sweep costs about the sum over the unpruned b of
    (b - 1)(0.843 ln b + 1.47).  Bounds chosen this way give ops of one
    level about the same time whatever the target's pruning class.
    """
    u, twice_v = target.numerator, 2 * target.denominator
    total = 0.0
    for b in range(2, _MAX_BOUND):
        if b * u % twice_v == 0:
            total += (b - 1) * (0.843 * math.log(b) + 1.47)
        if total >= steps:
            return b + 1
    raise ValueError("bound beyond the sweep limit")


def search_op(target: Fraction, bound: int, jobs: int, rerun_serial: bool = False) -> Op:
    argv = ["search", human(target), str(bound), "--format", "tsv", "--jobs", str(jobs)]

    def check(out: str, run: Runner) -> None:
        want = "".join(f"{a}\t{b}\n" for a, b in oracle.search_hits(target, bound))
        expect(out == want, f"hits differ from the oracle for {argv}")
        if rerun_serial:
            rc, serial_out = run(argv[:-1] + ["1"])
            expect(rc == 0 and serial_out == out, f"--jobs {jobs} output differs from --jobs 1")

    return Op(argv, bound - 2, check)


# Size classes of a round, smallest first.  A run's ops sort into blocks
# of one class each; the classes at positions 4-5 and 8-9 are doubled so
# that p50 and p90 (the workloads' percentiles) land inside a class, not
# on the gap between two, where they would jump from run to run.
ROUND_CLASSES = (0, 1, 2, 3, 4, 4, 5, 6, 7, 7)


def search_round(rng: random.Random, r: int, jobs: int, lo: float, hi: float) -> list[Op]:
    # Eight work levels, log-spaced over [lo, hi] descent steps, with a
    # small jitter.  The pruning class of an op rotates with the round, so
    # over four rounds every class meets every level; the seed picks the
    # target within its class.  With jobs > 1, one op a round, rotating,
    # is also run serially and must print the same bytes; every op is
    # checked against the oracle.
    classes = [[Fraction(0)], TARGETS["high"], TARGETS["mid"], TARGETS["low"]]
    ops = []
    for i, level in enumerate(ROUND_CLASSES):
        steps = lo * (hi / lo) ** (level / 7) * rng.uniform(0.97, 1.03)
        target = rng.choice(classes[(i + r) % 4])
        ops.append(search_op(target, bound_for_steps(target, steps), jobs,
                             rerun_serial=jobs > 1 and i == r % len(ROUND_CLASSES)))
    return ops


# ---------------------------------------------------------------- family

def family_op(a: int, b: int, c: int | None, count: int) -> Op:
    argv = ["family", str(a), str(b)]
    if c is not None:
        argv += ["--c", str(c)]
    argv += ["--count", str(count), "--format", "json"]

    def check(out: str, run: Runner) -> None:
        a0, b0 = a % b, b
        case, period = oracle.family_period(a0, b0, c or 1)
        value = fmt(oracle.normalized_sum(a0, b0))
        lines = out.splitlines()
        expect(len(lines) == count + 1, f"{len(lines) - 1} members, wanted {count}")
        head = json.loads(lines[0])
        expect(head == {
            "a": str(a0), "b": str(b0), "case": case,
            "period": None if period is None else [str(x) for x in period],
            "L": None if period is None else len(period),
            "c": (c or 1) if case == "append-term" else None,
            "S": value,
        }, f"family header {head}")
        for t, ((k, p, q), line) in enumerate(zip(oracle.family_members(a0, b0, c or 1),
                                                  lines[1:])):
            row = json.loads(line)
            expect(row == {"t": t, "k": k, "a": str(p), "b": str(q), "S": value},
                   f"member t={t} differs from the convergent recurrence")
            if q <= ORACLE_MAX_B:
                expect(fmt(oracle.normalized_sum(p, q)) == value, f"S of member t={t}")

    return Op(argv, count, check)


def family_source(rng: random.Random, odd: bool) -> tuple[int, int]:
    """A reduced source a/b, 7 <= b < 90, whose expansion length is odd or even."""
    while True:
        b = rng.randrange(7, 90)
        a = coprime_below(rng, b)
        if (len(oracle.cf_terms(a, b)) % 2 == 1) == odd:
            return a, b


def period_trace(period: tuple[int, ...]) -> int:
    """Trace of the product of [[c, 1], [1, 0]] over one period."""
    a, b, c, d = 1, 0, 0, 1
    for x in period:
        a, b, c, d = a * x + b, a, c * x + d, c
    return a + d


def periodic_family(rng: random.Random, odd: bool, count: int) -> tuple[int, int, int | None]:
    """(a, b, c) of a family whose first ``count`` members cost about the same to verify.

    Member t has k = L-1 + 2Lt quotients and grows by 2 log2(trace) bits
    per member, so re-verifying ``count`` members costs about
    L * log2(trace) * count^3.  Keeping 2 L log2(trace) in [76, 88] (the
    middle of its range over these sources; 88 rewrite-tail and 2,592
    append-term sources qualify) makes the cost of an op a function of
    ``count`` alone, whatever source the seed picks.
    """
    while True:
        a, b = family_source(rng, odd)
        c = None if odd else rng.choice([None, rng.randrange(1, 10)])
        period = oracle.family_period(a, b, c or 1)[1]
        growth = 2 * math.log2(period_trace(period))
        top_bits = b.bit_length() + growth * count
        if 76 <= len(period) * growth <= 88 and top_bits < MAX_DIGITS * math.log2(10):
            return a, b, c


def family_round(rng: random.Random, r: int) -> list[Op]:
    # Two zero families and eight periodic ones at fixed sizes: cost grows
    # as count^3, so a wide jitter would dominate the spread between runs,
    # and the zero families' cheap members would move members/s if their
    # count varied.
    sizes = (100, 130, 160, 200, 240, 280)
    ops = [family_op(rng.randrange(0, 100), 1, None, count) for count in (300, 700)]
    for i, level in enumerate(ROUND_CLASSES[2:]):
        count = round(sizes[level - 2] * rng.uniform(0.99, 1.01))
        a, b, c = periodic_family(rng, (i + r) % 2 == 0, count)
        ops.append(family_op(a, b, c, count))
    return ops


# ---------------------------------------------------------------- cli mix

_SUM_HUMAN = re.compile(r"s\((-?\d+), (\d+)\) = (\S+)\nS\((-?\d+), (\d+)\) = (\S+)"
                        r"  \(approx (\S+)\)\n")


def _check_sum(out: str, fmt_: str, a: int, b: int, big: Fraction, method: str) -> None:
    a0 = a % b
    if fmt_ == "json":
        expect(json.loads(out) == {"a": str(a0), "b": str(b), "method": method,
                                   "s": fmt(big / 12), "S": fmt(big)}, "sum json")
        return
    m = _SUM_HUMAN.fullmatch(out)
    expect(m is not None, "sum human layout")
    expect(m.group(1, 2, 4, 5) == (str(a0), str(b)) * 2, "sum human operands")
    expect(m.group(3) == human(big / 12) and m.group(6) == human(big), "sum human value")
    approx = Fraction(Decimal(m.group(7)))
    expect(abs(approx - big) <= abs(big) * Fraction(1, 10 ** 11), "sum human approx")


def sum_op(a: int, b: int, fmt_: str, method: str = "fast",
           known: Fraction | None = None) -> Op:
    argv = ["sum", str(a), str(b), "--format", fmt_]
    if method != "fast":
        argv += ["--method", method]

    def check(out: str, run: Runner) -> None:
        big = known if known is not None else oracle.normalized_sum(a, b)
        _check_sum(out, fmt_, a, b, big, method)

    return Op(argv, 1, check)


def big_sum_op(rng: random.Random, want_digits: float, fmt_: str) -> Op:
    """A member of a small family, shifted and signed: S is known exactly."""
    a0, b0 = family_source(rng, odd=rng.random() < 0.5)
    growth = 2 * math.log2(period_trace(oracle.family_period(a0, b0)[1]))  # >= true growth
    p, q = oracle.family_member(a0, b0, 1, int(want_digits * math.log2(10) / growth))
    sign = rng.choice([1, -1])
    return sum_op(sign * p + rng.randrange(-2, 3) * q, q, fmt_,
                  known=sign * oracle.normalized_sum(a0, b0))


def cf_op(a: int, b: int, fmt_: str) -> Op:
    argv = ["cf", str(a), str(b), "--format", fmt_]

    def check(out: str, run: Runner) -> None:
        a0 = a % b
        terms = oracle.cf_terms(a0, b)
        alt = terms[:-1] + [terms[-1] - 1, 1] if terms else None
        if fmt_ == "json":
            expect(json.loads(out) == {
                "a": str(a0), "b": str(b), "terms": [str(x) for x in terms],
                "alternate": None if alt is None else [str(x) for x in alt],
                "value": fmt(Fraction(a0, b)),
            }, "cf json")
        else:
            def show(ts):
                return "[0; " + ", ".join(map(str, ts)) + "]"
            expect(out == f"{a0}/{b} = {show(terms)}\n"
                          f"alternate form: {show(alt) if alt else '(none)'}\n", "cf human")

    return Op(argv, 1, check)


def small_period(rng: random.Random, length: int) -> tuple[int, ...]:
    """Period whose convergent k = L-1 has q <= ORACLE_MAX_B."""
    while True:
        period = tuple(rng.randrange(1, 10) for _ in range(length))
        row = next(r for r in oracle.convergents(period) if r[0] == length - 1)
        if row[2] <= ORACLE_MAX_B:
            return period


def _closed_form(period):
    """(A, B, C, value at k = L-1) for [0; period repeated]."""
    length = len(period)
    rows = [r for _, r in zip(range(length + 1), oracle.convergents(period))]
    _, p_prev, q_prev = rows[-2]
    _, p_last, q_last = rows[-1]
    a, b, c = q_prev, q_last - p_prev, -p_last
    g = gcd(gcd(a, b), c)
    return a // g, b // g, c // g, oracle.normalized_sum(p_prev, q_prev)


def surd_op(period: tuple[int, ...], fmt_: str) -> Op:
    argv = ["surd", *map(str, period), "--format", fmt_]

    def check(out: str, run: Runner) -> None:
        a, b, c, at_k = _closed_form(period)
        trace = Fraction(-b, a)
        odd = len(period) % 2 == 1
        if odd:  # the closed form: alternating term sum plus trace is S(p_k, q_k)
            alt = sum(x if j % 2 == 0 else -x for j, x in enumerate(period))
            expect(alt + trace == at_k, "closed form differs from S at k = L-1")
        if fmt_ == "json":
            got = json.loads(out)
            expect(got["quadratic"] == [str(a), str(b), str(c)]
                   and got["period"] == [str(x) for x in period]
                   and got["disc"] == str(b * b - 4 * a * c)
                   and got["trace"] == fmt(trace)
                   and got["value"] == (fmt(at_k) if odd else None), "surd json")
        else:
            lines = out.splitlines()
            nums = [int(x) for x in re.findall(r"-?\d+", lines[1].replace(" - ", " -"))]
            expect(nums[0:2] == [a, 2] and nums[2:4] == [b, c] and nums[4] == 0, "surd quadratic")
            expect(lines[3].endswith(f"= {human(trace)}"), "surd trace")
            expect(odd == (len(lines) == 5), "surd value line")
            expect(not odd or lines[4] == f"value S = {human(at_k)}", "surd value")

    return Op(argv, 1, check)


def verify_op(period: tuple[int, ...], depth: int, fmt_: str) -> Op:
    argv = ["verify", *map(str, period), "--depth", str(depth), "--format", fmt_]

    def check(out: str, run: Runner) -> None:
        length = len(period)
        indices = [length - 1 + 2 * length * t for t in range(depth)]
        const = _closed_form(period)[3]
        if fmt_ == "json":
            expect(json.loads(out) == {"period": [str(x) for x in period], "depth": depth,
                                       "indices": indices, "constant": fmt(const),
                                       "ok": True}, "verify json")
        else:
            expect(out == f"constant S = {human(const)} at k = "
                          f"{', '.join(map(str, indices))}: ok\n", "verify human")

    return Op(argv, 1, check)


def cli_round(rng: random.Random, r: int) -> list[Op]:
    fmts = ["human", "json"] * 4
    rng.shuffle(fmts)
    ops = []
    for f, b in zip(fmts, strata(rng, 2, ORACLE_MAX_B, 8)):
        b = int(b)
        ops.append(sum_op(coprime_below(rng, b) + b * rng.randrange(-3, 3), b, f))
    for f, d in zip(("human", "json"), strata(rng, 1000, MAX_DIGITS, 2)):
        ops.append(big_sum_op(rng, d, f))
    b = rng.randrange(1500, 2100)
    ops.append(sum_op(coprime_below(rng, b), b, fmts[r % 8], method="naive"))
    for f in ("human", "json", fmts[r % 8]):
        b = int(strata(rng, 2, 1e12, 1)[0])
        ops.append(cf_op(coprime_below(rng, b), b, f))
        ops.append(surd_op(small_period(rng, rng.randrange(1, 7)), f))
        ops.append(verify_op(small_period(rng, rng.choice([1, 3, 5])),
                             rng.randrange(1, 13), f))
    return ops


WORKLOADS = {
    w.name: w
    for w in [
        Workload(name="search-serial", unit="b", tail_pct=90.0, trace_rounds=4,
                 reference="word-bigint",
                 first_argv=("search", "18/7", "200", "--format", "tsv"),
                 make_round=lambda rng, r: search_round(rng, r, 1, 1e5, 2e6)),
        Workload(name="search-parallel", unit="b", tail_pct=90.0, trace_rounds=4,
                 reference="word-bigint",
                 first_argv=("search", "18/7", "200", "--format", "tsv", "--jobs", "2"),
                 make_round=lambda rng, r: search_round(rng, r, 2, 2e5, 3e6)),
        Workload(name="family-deep", unit="members", tail_pct=90.0, trace_rounds=3,
                 reference="descent",
                 first_argv=("family", "5", "14", "--count", "20", "--format", "json"),
                 make_round=family_round),
        Workload(name="cli-mix", unit="commands", tail_pct=99.0, trace_rounds=20,
                 reference="short-commands",
                 first_argv=("sum", "5", "14"), make_round=cli_round),
    ]
}
