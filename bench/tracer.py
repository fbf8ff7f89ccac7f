"""Spans around the calls the CLI makes into each dedsum module.

A traced op swaps module attributes of ``dedsum`` for timing wrappers
for the length of one ``cli.main`` call and puts the originals back
afterwards, so the library itself carries no tracing code and the
benchmark's own checks run untraced.  A span is ``[name, start, end,
parent, note]``; spans of one op share the op's ``cli.main`` span as
root, and a layer's self time is its duration minus its direct
children's.

Pool workers cannot append to the parent's span list, so the search
pool is swapped for a subclass whose tasks return their own busy time.
"""

from __future__ import annotations

import builtins
import itertools
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager

perf = time.perf_counter

BIGINT_BITS = 64  # dedekind.bigint_eval_s counts evaluations with b wider than a machine word


def timed_call(fn, arg):
    """Runs in a pool worker: one search slice and its busy time."""
    t0 = perf()
    out = fn(arg)
    return out, perf() - t0


def euclid_steps(a: int, b: int) -> int:
    """Quotients in the Euclidean descent of the reduced pair (a mod b, b)."""
    a %= b
    n = 0
    while a:
        b, a = a, b % a
        n += 1
    return n


def decimal_digits(n: int) -> int:
    d = max(1, int((n.bit_length() - 1) * 0.30102999566398))
    while 10 ** d <= n:
        d += 1
    return d


class Tracer:
    """Span and count recorder for the ops of one traced pass."""

    def __init__(self, dedsum, count_steps: bool):
        self.d = dedsum
        self.count_steps = count_steps
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rows = 0  # convergent rows generated
        self.streams: list[tuple] = []  # (duration, jobs, pairs, hits, slice busy times)
        self.steps = 0
        self.digits_max = 0
        self._slices: list[float] = []
        self._pending: list[tuple[int, int]] = []
        self._patch_list = self._patches()  # built while the originals are in place

    # -- recording -------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf()
                stack.pop()
            if after is not None:
                after(span, args, kwargs, out)
            return out

        return wrapper

    def _after_fast(self, span, args, kwargs, out):
        a, b = args
        span[4] = b.bit_length() > BIGINT_BITS
        if self.count_steps:
            self._pending.append((a, b))

    def _after_scan(self, span, args, kwargs, out):
        self._slices.append(span[2] - span[1])

    def _after_members(self, span, args, kwargs, out):
        self.digits_max = max(self.digits_max, decimal_digits(out[-1].pair.b))

    def _wrap_stream(self, fn):
        def after(span, args, kwargs, out):
            jobs = kwargs.get("jobs", 1)
            self.streams.append((span[2] - span[1], jobs, out.pairs_scanned, len(out.hits),
                                 self._slices))
            self._slices = []

        return self._wrap("search.stream", fn, after)

    def _counting(self, fn):
        def wrapper(period):
            for row in fn(period):
                self.rows += 1
                yield row

        return wrapper

    def _pool(self):
        tracer = self

        class TimedPool(ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                results = super().map(timed_call, itertools.repeat(fn), *iterables, **kwargs)
                return tracer._pool_results(results)

        return TimedPool

    def _pool_results(self, results):
        for out, busy in results:
            self._slices.append(busy)
            yield out

    def _patches(self):
        d = self.d
        fast = self._wrap("dedekind.fast", d.dedekind.normalized_sum_fast, self._after_fast)
        reduce_ = self._wrap("dedekind.reduce", d.dedekind.reduce_pair)
        naive = self._wrap("dedekind.naive", d.dedekind.dedekind_sum_naive)
        cf = d.contfrac
        return [
            (d.cli, "normalized_sum_fast", fast),
            (d.cli, "dedekind_sum_naive", naive),
            (d.cli, "reduce_pair", reduce_),
            (d.cli, "str", self._wrap("rational.str", builtins.str)),
            (d.family, "normalized_sum_fast", fast),
            (d.family, "reduce_pair", reduce_),
            (d.family, "plan_family", self._wrap("family.plan", d.family.plan_family)),
            (d.family, "members", self._wrap("family.generate", d.family.members,
                                             self._after_members)),
            (d.family, "verify_member", self._wrap("family.verify", d.family.verify_member)),
            (d.family, "verify_period_constancy",
             self._wrap("family.constancy", d.family.verify_period_constancy)),
            (d.family, "iter_convergents", self._counting(d.family.iter_convergents)),
            (cf, "iter_convergents", self._counting(cf.iter_convergents)),
            (cf, "expand", self._wrap("contfrac", cf.expand)),
            (cf, "to_alternate", self._wrap("contfrac", cf.to_alternate)),
            (cf, "evaluate", self._wrap("contfrac", cf.evaluate)),
            (cf, "convergents", self._wrap("contfrac", cf.convergents)),
            (d.rational, "format_exact", self._wrap("rational.format", d.rational.format_exact)),
            (d.rational, "decimal_approx",
             self._wrap("rational.format", d.rational.decimal_approx)),
            (d.rational, "parse_exact", self._wrap("rational.parse", d.rational.parse_exact)),
            (d.surd, "surd_from_period", self._wrap("surd", d.surd.surd_from_period)),
            (d.surd, "closed_form_value", self._wrap("surd", d.surd.closed_form_value)),
            (d.search, "search_stream", self._wrap_stream(d.search.search_stream)),
            (d.search, "ProcessPoolExecutor", self._pool()),
            (d._backend, "eval_parts", self._wrap("kernel.eval", d._backend.eval_parts)),
            (d._backend, "scan_parts", self._wrap("kernel.scan", d._backend.scan_parts,
                                                  self._after_scan)),
        ]

    @contextmanager
    def installed(self):
        """Wrappers in place for the body only; originals restored even on error."""
        saved = []
        try:
            for module, name, new in self._patch_list:
                saved.append((module, name, module.__dict__.get(name)))
                setattr(module, name, new)
            yield
        finally:
            for module, name, old in reversed(saved):
                if old is None:
                    delattr(module, name)
                else:
                    setattr(module, name, old)

    def call(self, fn, *args):
        """fn(*args) as a root span, with the wrappers installed around it only."""
        with self.installed():
            out = self._wrap("cli.main", fn)(*args)
        # counted after the op so the extra descent is not inside any span
        for a, b in self._pending:
            self.steps += euclid_steps(a, b)
        self._pending.clear()
        return out

    # -- per-layer metrics ----------------------------------------------

    def layer_metrics(self, op_argvs: list[list[str]], bytes_out: int) -> dict[str, float]:
        total: dict[str, float] = {}
        child: dict[int, float] = {}
        bigint = 0.0
        roots = []
        for i, (name, t0, t1, parent, note) in enumerate(self.spans):
            dur = t1 - t0
            total[name] = total.get(name, 0.0) + dur
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + dur
            if name == "dedekind.fast" and note:
                bigint += dur
            if name == "cli.main":
                roots.append(i)
        op_s = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        family_op_s = sum(self.spans[i][2] - self.spans[i][1]
                          for i, argv in zip(roots, op_argvs) if argv[0] == "family")
        slices = [s for stream in self.streams for s in stream[4]]
        pairs = sum(s[2] for s in self.streams)
        hits = sum(s[3] for s in self.streams)
        imbalance = [max(s[4]) * len(s[4]) / sum(s[4]) for s in self.streams if sum(s[4]) > 0]
        verify_s = total.get("family.verify", 0.0)
        return {
            "cli.op_s": op_s,
            "cli.self_s": op_s - sum(child.get(i, 0.0) for i in roots),
            "cli.bytes_out": bytes_out,
            "kernel.scan_s": sum(slices),
            "kernel.pairs_evaluated": pairs,
            "search.hits": hits,
            "search.hit_ratio": hits / pairs if pairs else 0.0,
            "search.stream_s": sum(s[0] for s in self.streams),
            "search.slices": len(slices),
            "search.pool_overhead_s": sum(s[0] - sum(s[4]) / s[1] for s in self.streams),
            "search.slice_imbalance": sum(imbalance) / len(imbalance) if imbalance else 0.0,
            "dedekind.bigint_eval_s": bigint,
            "dedekind.euclid_steps": self.steps,
            "dedekind.naive_s": total.get("dedekind.naive", 0.0),
            "family.plan_s": total.get("family.plan", 0.0),
            "family.generate_s": total.get("family.generate", 0.0),
            "family.verify_s": verify_s,
            "family.verify_share": verify_s / family_op_s if family_op_s else 0.0,
            "family.member_digits_max": self.digits_max,
            "contfrac.rows": self.rows,
            "rational.format_s": total.get("rational.format", 0.0) + total.get("rational.str", 0.0),
            "surd.closed_form_s": total.get("surd", 0.0),
        }
