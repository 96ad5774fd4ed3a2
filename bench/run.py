"""Benchmark of the meanfield-lq command line: time to solution per workload.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload long-horizon --seed 1 --seconds 30 --trace 0

One client runs the workload's command cycle in a closed loop, in process
through `meanfield_lq.cli.main`, until the ops have taken `--seconds`.
Each op's outputs are checked right after it, outside the timed region.
With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` cycles alternate between untraced and traced, and it holds the
per-layer metrics.  The line before it is a report with per-command
medians, minima and tails, the error rate, the instance records and the
run's environment.  bench/README.md lists every metric.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# one BLAS thread: one client per workload, and never more threads than CPUs
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
MB = 1024.0 * 1024.0


def _git_sha(root: str) -> str | None:
    """HEAD of the checkout's own .git directory, if it has one."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def fresh_import(env: dict) -> None:
    subprocess.run([sys.executable, "-c", "import meanfield_lq.cli"], env=env, cwd=ROOT,
                   check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)


def command_metrics(samples: dict) -> dict:
    """Per command: median and minimum wall time, and the tail, the highest
    percentile with at least ten samples beyond it (None below eleven samples)."""
    out = {}
    for kind, xs in samples.items():
        xs = sorted(xs)
        n = len(xs)
        if not n:
            continue
        out[f"{kind}_s"] = {"value": statistics.median(xs), "unit": "s", "samples": n}
        out[f"{kind}_best_s"] = {"value": xs[0], "unit": "s", "samples": n}
        out[f"{kind}_tail_s"] = {"value": xs[n - 11] if n > 10 else None, "unit": "s",
                                 "percentile": 100.0 * (n - 10) / n if n > 10 else None,
                                 "samples": n}
    return out


def cycle_time(samples: dict, kinds: dict, stat=statistics.median) -> float:
    """One cycle of the workload: sum over its commands of count x stat(wall times)."""
    return sum(count * stat(samples[kind]) for kind, count in kinds.items())


def run_op(cli, argv, tracer):
    """One closed-loop op; returns (exit code, wall seconds, error text)."""
    sink = io.StringIO()
    err = None
    with redirect_stdout(sink), redirect_stderr(sink):
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            rc, err = None, f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - start
    if rc not in (0, 2) and err is None:
        err = sink.getvalue().strip()[-300:]
    return rc, wall, err


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "meanfield_lq", "__init__.py")):
        print(f"error: no meanfield_lq sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, SRC)

    import numpy as np
    import scipy
    from meanfield_lq import cli

    import layers
    from spans import Tracer
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEED if args.seed is None else args.seed
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](seed, work)
        env = dict(os.environ, PYTHONPATH=SRC)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            fresh_import(env)
            wl.setup()
            setup_times.append(time.perf_counter() - start)

        tracer = Tracer() if args.trace else None
        plain = {kind: [] for kind in wl.cycle_kinds}
        traced = {kind: [] for kind in wl.cycle_kinds}
        traced_ops = []  # (wall, first span index, bytes written) per traced op
        attempted, failures, measured, c = 0, [], 0.0, 0
        min_cycles = 2
        while c < min_cycles or measured < args.seconds:
            tracing = args.trace and c % 2 == 1
            with layers.installed(tracer) if tracing else nullcontext():
                for op in wl.cycle(c):
                    if c >= min_cycles and measured >= args.seconds:
                        break
                    attempted += 1
                    first = len(tracer.spans) if tracing else 0
                    rc, wall, err = run_op(cli, op.argv, tracer if tracing else None)
                    measured += wall
                    (traced if tracing else plain)[op.kind].append(wall)
                    if tracing:
                        written = sum(os.path.getsize(f) for f in op.outputs if os.path.exists(f))
                        traced_ops.append((wall, first, written))
                    try:
                        if err is not None:
                            raise RuntimeError(err)
                        op.check(rc)
                    except Exception as exc:  # a broken output fails the op, not the run
                        failures.append(f"cycle {c} {op.kind}: {type(exc).__name__}: {exc}")
            c += 1
        failed = len(failures)
        records, instance_failures = wl.final_checks()
        failures += instance_failures

        report = {
            "workload": args.workload,
            "env": {
                "python": platform.python_version(), "numpy": np.__version__,
                "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
                "blas_threads": BLAS_THREADS, "git_sha": _git_sha(ROOT), "seed": seed,
                "seconds": args.seconds, "trace": args.trace,
            },
            "commands": command_metrics(plain),
            "cycle_best_s": {"value": cycle_time(plain, wl.cycle_kinds, min), "unit": "s"},
            "error_rate": {"value": failed / attempted, "unit": "ratio"},
            "instances": records,
        }
        if args.trace:
            overhead = cycle_time(traced, wl.cycle_kinds) / cycle_time(plain, wl.cycle_kinds) - 1.0
            metrics, accounting = layers.per_layer(tracer, traced_ops, overhead)
            report["accounting"] = accounting
            if not accounting["ok"]:
                failures.append(f"self times do not account for op wall time: {accounting}")
            trace_file = os.path.join(ROOT, ".bench_out",
                                      f"spans-{args.workload}-seed{seed}.json")
            os.makedirs(os.path.dirname(trace_file), exist_ok=True)
            layers.write_spans(tracer, trace_file)
        else:
            metrics = {
                "cycle_s": {"value": cycle_time(plain, wl.cycle_kinds), "unit": "s"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024.0 / MB,
                    "unit": "MiB"},
            }
        report["failures"] = failures[:20]
        report["metrics"] = metrics
        print(json.dumps({"report": report}))
        print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
