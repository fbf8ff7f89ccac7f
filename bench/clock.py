"""Machine speed next to each op, from a fixed reference loop timed between ops.

The hosts this benchmark runs on change speed by up to 1.5x for stretches
of ten seconds to minutes, and every thread of the process slows alike:
process CPU time moves with wall time.  Two runs of the same code can
then differ by more than any useful bound.  So a run times one of the
:data:`REFERENCES`, a fixed piece of pure-Python work that imports
nothing of ``dedsum``, every ``EVERY_S`` seconds between ops, and reports
each wall time rescaled to the speed at which that loop takes ``REF_S``:

    scaled = wall * REF_S / (reference time near the op)

A change to the program moves the scaled figures as it moves wall time;
a change of machine speed moves the op and the reference loop together
and cancels.  Raw wall figures stay in the run's record line.
"""

from __future__ import annotations

import argparse
import bisect
import json
import statistics
import time
from fractions import Fraction

perf = time.perf_counter

REF_S = 0.005  # nominal reference-loop time: about its time on a 2-vCPU Xeon VM
EVERY_S = 0.1  # wall time between two reference samples
NEAR = 5  # samples whose median gives the speed at a point in time

# Hosts slow different kinds of interpreter work by different amounts, so
# each workload is scaled by the loop that tracks it best: over 15 s
# windows of one seed, the spread of work/s and p50 fell from 17-40% of
# wall time to 2-5% with its own loop, and stayed at up to 14% with
# another's (README.md, "Machine noise").
_X, _Y = 3 ** 2000, 7 ** 1400


def _word_and_bigint() -> None:
    """Small-int arithmetic and big-int remainders: the search scan's kind of work."""
    s = 0
    for i in range(40000):
        s += (i * 7919) % 1013
    for _ in range(2):
        a, b = _X, _Y
        while b:
            a, b = b, a % b


def _cf_pair(n: int) -> tuple[int, int]:
    """Numerator and denominator of a fixed continued fraction with n terms 1..9."""
    p, q, x = 1, 0, 1
    for _ in range(n):
        x = x * 1103515245 + 12345 & 0x7FFFFFFF
        p, q = (x >> 16) % 9 * p + p + q, p
    return p, q


_P, _Q = _cf_pair(1400)  # about 900 digits


def _descent() -> None:
    """A Euclidean descent with convergent updates on 900-digit integers.

    The kind of work of re-verifying a family member; written here so that
    it stays the same whatever the library does.
    """
    for _ in range(5):
        alt, sign, q_prev, q, r0, r1 = 0, 1, 0, 1, _P, _Q
        while r1:
            c = r0 // r1
            alt += sign * c
            sign = -sign
            q_prev, q = q, c * q + q_prev
            r0, r1 = r1, r0 - c * r1


_PARSER = argparse.ArgumentParser(prog="reference")
_COMMANDS = _PARSER.add_subparsers(dest="command")
for _name in ("sum", "cf", "surd"):
    _command = _COMMANDS.add_parser(_name)
    _command.add_argument("a")
    _command.add_argument("b")
    _command.add_argument("--format", default="human")


def _short_commands() -> None:
    """Argument parsing, fractions and JSON: the kind of work of a short CLI call."""
    acc = Fraction(0)
    for i in range(1, 80):
        ns = _PARSER.parse_args(["sum", str(7 * i), str(13 * i + 1), "--format", "json"])
        acc += Fraction(int(ns.a), int(ns.b))
        json.dumps({"a": ns.a, "b": ns.b, "S": f"{acc.numerator}/{acc.denominator}"})


REFERENCES = {"word-bigint": _word_and_bigint, "descent": _descent,
              "short-commands": _short_commands}


class Clock:
    """Reference samples of one run, and the scale factor they give at any time."""

    def __init__(self, reference: str):
        self.reference = REFERENCES[reference]
        self.at: list[float] = []  # midpoints of the samples, perf_counter seconds
        self.secs: list[float] = []
        self.reference()  # warm-up, not recorded

    def sample(self) -> None:
        t0 = perf()
        self.reference()
        t1 = perf()
        self.at.append((t0 + t1) / 2)
        self.secs.append(t1 - t0)

    def tick(self) -> None:
        """Sample if EVERY_S has passed since the last sample."""
        if not self.at or perf() - self.at[-1] >= EVERY_S:
            self.sample()

    def scale(self, t: float) -> float:
        """REF_S over the median reference time of the NEAR samples nearest to t."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAR // 2, len(self.at) - NEAR))
        return REF_S / statistics.median(self.secs[lo:lo + NEAR])

    def median_s(self) -> float:
        return statistics.median(self.secs)
