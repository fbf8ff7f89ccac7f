"""Exhaustive search for coprime pairs attaining a target normalized sum.

Enumerates every reduced pair 0 < a < b < bound, evaluates S(a, b) with
the fast kernel and keeps exact matches.  The sweep is embarrassingly
parallel over disjoint b ranges; slices are merged in submission order,
so hits come out sorted by (b, a) and the output is byte-identical
whatever the worker count or chunking.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import _backend
from .dedekind import CoprimePair


@dataclass(frozen=True)
class SearchResult:
    target: Fraction
    bound: int  # exclusive upper bound on b
    hits: tuple[CoprimePair, ...]
    pairs_scanned: int  # coprime pairs evaluated, after pruning


def _scan_chunk(args: tuple[int, int, int, int, bool]):
    # module level so it pickles for worker processes
    u, v, lo, hi, prune = args
    return _backend.scan_parts(u, v, lo, hi, prune)


def _chunks(bound: int, jobs: int) -> Iterator[tuple[int, int]]:
    # contiguous ranges; chunking affects balance only, never results
    span = bound - 2
    if span <= 0:
        return
    n = max(1, min(jobs * 4, span))
    step = -(-span // n)
    lo = 2
    while lo < bound:
        hi = min(lo + step, bound)
        yield lo, hi
        lo = hi


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
    u, v = target.numerator, target.denominator
    tasks = [(u, v, lo, hi, prune) for lo, hi in _chunks(bound, jobs)]
    hits: list[CoprimePair] = []
    scanned = 0
    pool = ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    try:
        results = pool.map(_scan_chunk, tasks) if pool else map(_scan_chunk, tasks)
        for chunk_hits, chunk_scanned in results:
            scanned += chunk_scanned
            for a, b in chunk_hits:
                pair = CoprimePair(a, b)
                hits.append(pair)
                if emit is not None:
                    emit(pair)
    finally:
        if pool:  # an emit that raised (e.g. a closed pipe) skips the pending slices
            pool.shutdown(cancel_futures=True)
    return SearchResult(target, bound, tuple(hits), scanned)


def search_value(
    target: Fraction, bound: int, *, prune: bool = True, jobs: int = 1
) -> SearchResult:
    """Every reduced pair with 0 < a < b < bound and S(a, b) == target."""
    return search_stream(target, bound, None, prune=prune, jobs=jobs)
