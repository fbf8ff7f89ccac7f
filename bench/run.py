"""dedsum benchmark: seeded CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every op is one ``dedsum.cli.main(argv)`` call in this process, closed
loop with one client, stdout captured and checked against the
benchmark's own oracle (``oracle.py``).  ``--trace 0`` runs whole rounds
of the workload until the ops have been busy for S seconds and reports
the end-to-end metrics; ``--trace 1`` replays the first rounds of the
same seed, alternately untraced and traced, until S seconds have passed,
and reports the per-layer metrics.  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it holds the full record: environment, seed and details
such as which percentile ``op_tail_ms`` is.  README.md next to this file
describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import gcd
from pathlib import Path

import oracle
import workloads
from clock import REF_S, Clock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_RUNS = 7
MICRO_PAIRS = 20000  # small-operand pairs per per-call timing loop
MICRO_REPEAT = 5

perf = time.perf_counter


def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, pct):
    """Linear interpolation between closest ranks, as numpy's default."""
    xs = sorted(xs)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def git_head():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def subprocess_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_interpreter(args):
    """Wall time and stdout of a new interpreter running args; raises if it fails."""
    t0 = perf()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=subprocess_env(),
                          capture_output=True, text=True, timeout=120)
    wall = perf() - t0
    if proc.returncode != 0 or not proc.stdout:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall, proc.stdout


def setup_seconds(first_argv, clock):
    """Median (scaled, wall) time of a fresh interpreter importing dedsum and running one command.

    The reference loop is timed before and after each start; the scaled
    time uses the mean of the two.
    """
    scaled, wall = [], []
    clock.sample()
    for _ in range(SETUP_RUNS):
        t = fresh_interpreter(["-m", "dedsum", *first_argv])[0]
        clock.sample()
        wall.append(t)
        scaled.append(t * REF_S / statistics.mean(clock.secs[-2:]))
    return median(scaled), median(wall)


def import_seconds():
    code = ("import time; t = time.perf_counter(); import dedsum; "
            "print(time.perf_counter() - t)")
    return median([float(fresh_interpreter(["-c", code])[1]) for _ in range(SETUP_RUNS)])


class Runner:
    """Runs ops through cli.main in this process and checks their output."""

    def __init__(self, cli):
        self.cli = cli
        self.failures: list[str] = []

    def call(self, argv, tracer=None):
        """(exit code or error text, stdout, seconds) of one command."""
        out, err = io.StringIO(), io.StringIO()
        t0 = perf()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = tracer.call(self.cli.main, argv) if tracer else self.cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            rc = f"raised {exc!r}"
        dt = perf() - t0
        if rc != 0 and err.getvalue():
            rc = f"{rc}: {err.getvalue().strip()[:200]}"
        return rc, out.getvalue(), dt

    def serial(self, argv):
        rc, out, _ = self.call(argv)
        return rc, out

    def check(self, op, rc, out) -> bool:
        try:
            if rc != 0:
                raise workloads.Mismatch(f"exit {rc}")
            op.check(out, self.serial)
        except Exception as exc:  # a wrong or unparsable output is a failed op
            self.failures.append(f"{' '.join(op.argv)[:120]}: {exc}")
            return False
        return True


def measure(workload, seed, seconds, runner, clock):
    """Whole rounds until the ops have been busy for ``seconds`` of wall time.

    Every time metric is scaled to the reference speed (``clock.py``);
    the record keeps the wall-time figures next to them.
    """
    lat, mids, work, failed = [], [], 0, 0
    clock.sample()
    for ops in workload.rounds(seed):
        for op in ops:
            rc, out, dt = runner.call(op.argv)
            mids.append(perf() - dt / 2)
            lat.append(dt)
            work += op.work
            failed += not runner.check(op, rc, out)
            clock.tick()
        if sum(lat) >= seconds:
            break
    clock.sample()
    scaled = [dt * clock.scale(t) for dt, t in zip(lat, mids)]

    def figures(xs):
        busy = sum(xs)
        return {
            "work_per_s": (work / busy, "1/s"),
            "cli_ops_per_s": (len(xs) / busy, "1/s"),
            "op_p50_ms": (percentile(xs, 50) * 1e3, "ms"),
            "op_tail_ms": (percentile(xs, workload.tail_pct) * 1e3, "ms"),
        }

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {**figures(scaled), "peak_rss_mb": (rss_kb / 1024, "MB")}
    tail = percentile(scaled, workload.tail_pct)
    details = {
        "work_unit": workload.unit,
        f"{workload.unit}_per_s": work / sum(scaled),
        "ops": len(lat),
        "busy_s": sum(lat),
        "tail_percentile": workload.tail_pct,
        "ops_beyond_tail": sum(x > tail for x in scaled),
        "fail_ratio": failed / len(lat),
        "wall": {k: v for k, (v, _) in figures(lat).items()},
        "reference": workload.reference,
        "reference_samples": len(clock.secs),
        "reference_median_s": clock.median_s(),
    }
    return len(lat), failed, metrics, details


def per_call_ns(fn, pairs):
    best = float("inf")
    for _ in range(MICRO_REPEAT):
        t0 = perf()
        for a, b in pairs:
            fn(a, b)
        best = min(best, perf() - t0)
    return best / len(pairs) * 1e9


def micro(dedsum, seed, runner):
    """Per-call ns of the public evaluator and of the kernel it wraps, small operands."""
    rng = random.Random(f"micro/{seed}")
    pairs = []
    while len(pairs) < MICRO_PAIRS:
        b = rng.randrange(2, 500)
        a = rng.randrange(1, b)
        if gcd(a, b) == 1:
            pairs.append((a, b))
    kernel = dedsum._backend.kernel
    failed = 0
    for a, b in pairs[:200]:
        want = oracle.normalized_sum(a, b)
        got = (dedsum.normalized_sum_fast(a, b), Fraction(*kernel.normalized_sum_parts(a, b)))
        if got != (want, want):
            runner.failures.append(f"S({a}, {b}): evaluator and kernel give {got}, not {want}")
            failed += 1
    return failed, {
        "dedekind.wrapper_ns": per_call_ns(dedsum.normalized_sum_fast, pairs),
        "kernel.eval_ns": per_call_ns(kernel.normalized_sum_parts, pairs),
    }


def traced(dedsum, workload, seed, seconds, runner):
    """Replay the first rounds untraced then traced for about ``seconds``."""
    ops = [op for ops in itertools.islice(workload.rounds(seed), workload.trace_rounds)
           for op in ops]
    argvs = [op.argv for op in ops]
    plain_walls, traced_walls, overheads, layers = [], [], [], []
    attempted = failed = 0
    clock = Clock(workload.reference)
    t_start = perf()
    # a pass starts only if, at the mean pass time so far, it ends within ``seconds``
    while not layers or (perf() - t_start) * (len(layers) + 1) / len(layers) <= seconds:
        clock.sample()
        plain = 0.0
        for op in ops:
            rc, out, dt = runner.call(op.argv)
            plain += dt
            failed += not runner.check(op, rc, out)
        clock.sample()
        tracer = Tracer(dedsum, count_steps=not layers)
        bytes_out = 0
        for op in ops:
            rc, out, _ = runner.call(op.argv, tracer)
            bytes_out += len(out.encode())
            failed += not runner.check(op, rc, out)
        attempted += 2 * len(ops)
        m = tracer.layer_metrics(argvs, bytes_out)
        clock.sample()
        before, between, after = clock.secs[-3:]
        plain_walls.append(plain)
        traced_walls.append(m["cli.op_s"])
        # each pass at the reference speed around it, so that a change of
        # machine speed between the two passes does not count as overhead
        overheads.append(m["cli.op_s"] / (between + after) / (plain / (before + between)))
        layers.append(m)
    metrics = {}
    for name, value in layers[0].items():
        values = [m[name] for m in layers]
        if isinstance(value, int):  # counts must repeat exactly from pass to pass
            if name != "dedekind.euclid_steps" and len(set(values)) > 1:
                runner.failures.append(f"{name} differs between identical passes: {values}")
                failed += 1
            metrics[name] = value
        else:
            metrics[name] = median(values)
    metrics["trace.overhead_ratio"] = median(overheads)
    micro_failed, micro_metrics = micro(dedsum, seed, runner)
    metrics.update(micro_metrics)
    attempted += 200
    failed += micro_failed
    metrics["setup.import_s"] = import_seconds()
    details = {"passes": len(layers), "ops_per_pass": len(ops),
               "untraced_pass_s": plain_walls, "traced_pass_s": traced_walls}
    return attempted, failed, {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, details


LAYER_UNITS = {
    "cli.op_s": "s", "cli.self_s": "s", "cli.bytes_out": "bytes",
    "kernel.scan_s": "s", "kernel.pairs_evaluated": "count", "kernel.eval_ns": "ns",
    "search.hits": "count", "search.hit_ratio": "ratio", "search.stream_s": "s",
    "search.slices": "count", "search.pool_overhead_s": "s", "search.slice_imbalance": "ratio",
    "dedekind.bigint_eval_s": "s", "dedekind.euclid_steps": "count",
    "dedekind.wrapper_ns": "ns", "dedekind.naive_s": "s",
    "family.plan_s": "s", "family.generate_s": "s", "family.verify_s": "s",
    "family.verify_share": "ratio", "family.member_digits_max": "digits",
    "contfrac.rows": "count", "rational.format_s": "s", "surd.closed_form_s": "s",
    "setup.import_s": "s", "trace.overhead_ratio": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "dedsum" / "__init__.py").is_file():
        print(f"error: no dedsum sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import dedsum
    import dedsum.cli

    if Path(dedsum.__file__).resolve().parent != SRC / "dedsum":
        print(f"error: imported dedsum from {dedsum.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    env = {
        "python": platform.python_version(),
        "kernel": dedsum.kernel_name(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_head": git_head(),
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    runner = Runner(dedsum.cli)
    if args.trace:
        attempted, failed, metrics, details = traced(dedsum, workload, args.seed,
                                                     args.seconds, runner)
    else:
        clock = Clock(workload.reference)
        setup_s, setup_wall_s = setup_seconds(workload.first_argv, clock)
        attempted, failed, metrics, details = measure(workload, args.seed, args.seconds,
                                                      runner, clock)
        metrics = {"setup_s": (setup_s, "s"), **metrics}
        details["wall"]["setup_s"] = setup_wall_s

    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"{workload.name}  seed {args.seed}  trace {args.trace}  "
          f"python {env['python']}  kernel {env['kernel']}  nproc {env['nproc']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    print(f"  {'fail_ratio':28s} {failed / attempted:16.6f} ({failed} of {attempted} ops)")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    print(json.dumps({"env": env, "details": details, "failures": runner.failures[:20]}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
