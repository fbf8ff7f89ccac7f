"""Exhaustive search for coprime pairs attaining a target normalized sum.

Finds every reduced pair 0 < a < b < bound whose S(a, b) equals the
target exactly.  By default only denominators with b*target an even
integer are visited, and of those only the roots a of
a^2 - N*a + 1 = 0 (mod b), N = b*target mod b, are evaluated, because
12*b*s(a, b) = a + a^-1 (mod b) makes every hit such a root.  With
prune=False every coprime pair is evaluated, as the exhaustive oracle.
The sweep is embarrassingly parallel over disjoint b ranges, cut where
their estimated cost is equal.  Slices are merged in submission order,
so hits come out sorted by (b, a) and the output is byte-identical
whatever the worker count or chunking.  The worker pool is terminated
however the sweep stops (done, a closed pipe, an error or Ctrl-C), so
no slice runs after its reader is gone.
"""

from __future__ import annotations

import os
import signal
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from multiprocessing import Pool
from typing import Callable, Optional

from . import _backend
from .dedekind import CoprimePair


@dataclass(frozen=True)
class SearchResult:
    hits: tuple[CoprimePair, ...]
    pairs_scanned: int  # coprime pairs examined, after pruning


def _scan_chunk(args: tuple[int, int, int, int, bool]):
    # module level so it pickles for worker processes
    u, v, lo, hi, prune = args
    return _backend.scan_parts(u, v, lo, hi, prune)


def _chunks(bound: int, jobs: int) -> list[tuple[int, int]]:
    # contiguous ranges of equal estimated cost: scanning one b costs about b,
    # so [2, x) costs about x^2 - 4; chunking affects balance only, never results
    n = max(1, min(jobs * 4, bound - 2))
    cuts = [isqrt(4 + (bound * bound - 4) * i // n) for i in range(n + 1)]
    return [(lo, hi) for lo, hi in zip(cuts, cuts[1:]) if lo < hi]


def search_stream(
    target: Fraction,
    bound: int,
    emit: Optional[Callable[[CoprimePair], None]],
    *,
    prune: bool = True,
    jobs: int = 1,
) -> SearchResult:
    """Run the sweep, calling ``emit(pair)`` for each hit in (b, a) order.

    Hits are released as soon as the slice containing them completes, so
    long sweeps report incrementally.  Returns the same summary
    search_value builds.
    """
    target = Fraction(target)
    if bound < 2:
        raise ValueError("bound must be at least 2")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    jobs = min(jobs, os.cpu_count() or 1)  # more processes than CPUs only queue
    u, v = target.numerator, target.denominator
    tasks = [(u, v, lo, hi, prune) for lo, hi in _chunks(bound, jobs)]
    hits: list[CoprimePair] = []
    scanned = 0
    workers = min(jobs, len(tasks))
    # workers ignore SIGINT, so Ctrl-C interrupts only this process; leaving
    # the block by any path terminates the pool and drops the queued slices
    ignore_sigint = (signal.SIGINT, signal.SIG_IGN)
    with (Pool(workers, signal.signal, ignore_sigint) if workers > 1 else nullcontext()) as pool:
        results = pool.imap(_scan_chunk, tasks) if pool else map(_scan_chunk, tasks)
        for chunk_hits, chunk_scanned in results:
            scanned += chunk_scanned
            for a, b in chunk_hits:
                pair = CoprimePair(a, b)
                hits.append(pair)
                if emit is not None:
                    emit(pair)
    return SearchResult(tuple(hits), scanned)


def search_value(
    target: Fraction, bound: int, *, prune: bool = True, jobs: int = 1
) -> SearchResult:
    """Every reduced pair with 0 < a < b < bound and S(a, b) == target."""
    return search_stream(target, bound, None, prune=prune, jobs=jobs)
