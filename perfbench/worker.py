"""One run of one workload, in a process of its own; started by run.py.

Set-up imports axxz, draws the inputs from the seed, computes the reference
values and warms up; the time at which the first task is ready goes into
the result. Then the worker runs passes over the workload's fixed task list
until --seconds is spent, each task under a deadline (SIGALRM). With
--trace 1 it ends with one traced pass, the in-process CLI replay and the
start-up probe, and reports per-layer figures. The last stdout line is one
JSON object for run.py.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from tracing import DeadlineExceeded, Tracer, failure_kind

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SHOWN = 40  # failure lines listed in the report
LAYERS = ("core", "bae", "tqverify", "thermo", "cli")


@dataclass
class Outcome:
    task: str
    kind: str | None  # None when every check passed
    known: frozenset  # failure kinds that are known defects for this task
    checks: list
    detail: str = ""

    @property
    def unexpected(self) -> bool:
        return self.kind is not None and self.kind not in self.known


@dataclass
class Pass:
    wall: float
    outcomes: list


def run_task(ctx, tid: int, task) -> Outcome:
    tracer = ctx.tracer
    if tracer:
        tracer.task_id = tid
        depth = tracer.depth()
    checks, kind, detail = [], None, ""
    try:
        signal.setitimer(signal.ITIMER_REAL, task.deadline)
        try:
            with ctx.span("harness.task"):
                checks = task.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # every failure of a task is counted, not fatal
        kind, detail = failure_kind(exc), f"{type(exc).__name__}: {exc}"
        if tracer:
            tracer.unwind(depth)
    if tracer:
        tracer.pending = False
    bad = [c for c in checks if not c.ok]
    if kind is None and bad:
        kind = "wrong_answer"
        detail = ", ".join(f"{c.name}={c.value:.3g} > {c.limit:g}" for c in bad)
    return Outcome(task.name, kind, task.known, checks, detail)


def run_pass(ctx, workload) -> Pass:
    t0 = time.perf_counter()
    outcomes = [run_task(ctx, tid, task) for tid, task in enumerate(workload.tasks)]
    return Pass(time.perf_counter() - t0, outcomes)


def digits(rel_error: float) -> float:
    """-log10 of a relative error floored at 1e-16 (a NaN scores -16)."""
    if math.isnan(rel_error):
        return -16.0
    return -math.log10(min(max(rel_error, 1e-16), 1e16))


def summarize(passes) -> dict:
    outcomes = [o for p in passes for o in p.outcomes]
    failures = Counter(o.kind for o in outcomes if o.kind)
    unexpected = [o for o in outcomes if o.unexpected]
    scored = [(digits(c.rel_error), f"{o.task}: {c.name}")
              for o in outcomes for c in o.checks if c.rel_error is not None]
    worst = min(scored) if scored else (float("nan"), "no exact check ran")

    def listing(selected):
        return sorted({f"{o.task}: {o.kind}: {o.detail}"[:160] for o in selected})[:SHOWN]
    return {
        "walls": [p.wall for p in passes],
        "attempted": len(outcomes),
        "failures": dict(failures),
        "known_failures": sum(1 for o in outcomes if o.kind and not o.unexpected),
        "unexpected": len(unexpected),
        "unexpected_shown": listing(unexpected),
        "known_shown": listing(o for o in outcomes if o.kind and not o.unexpected),
        "min_digits": worst[0],
        "worst_check": worst[1],
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or the env setting.

    numpy has no call that reports it (threadpoolctl would, but is not a
    dependency), so ask the bundled OpenBLAS through ctypes."""
    import ctypes

    import numpy

    for lib in sorted((Path(numpy.__file__).resolve().parent.parent / "numpy.libs").glob("*openblas*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), sym, None)
            if fn is not None:
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=True)
            return proc.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return "unknown (not a git checkout)"


def run_env(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
        "AXXZ_THREADS": os.environ.get("AXXZ_THREADS", "unset"),
    }


def per_layer(tracer, untraced_walls, traced_wall: float, startup: float) -> dict:
    """Per-layer figures from the traced run: self time (`<span>.s`) and span
    count (`<span>.calls`) for every span name, plus the tracer's counters."""
    out = {}
    times = tracer.self_times()
    for name, (secs, calls) in times.items():
        out[name + ".s"] = secs
        out[name + ".calls"] = calls
    out.update(tracer.counters)
    out.update(tracer.maxima)
    converged = tracer.counters.get("bae.solve_newton.converged", 0)
    attempts = converged + tracer.counters.get("bae.failed_solves", 0)
    out["bae.converged_ratio"] = converged / attempts if attempts else 0.0
    for layer, secs in tracer.layer_totals(LAYERS).items():
        out[layer + ".outermost_s"] = secs
    out["cli.startup_s"] = startup
    out["trace.overhead_s"] = traced_wall - median(untraced_walls)
    return out


def top_self_times(tracer, count: int = 15) -> list:
    times = tracer.self_times()
    return [[name, secs, calls] for name, (secs, calls)
            in sorted(times.items(), key=lambda item: -item[1][0])[:count]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import axxz

    if Path(axxz.__file__).resolve().parent != SRC / "axxz":
        raise SystemExit(f"imported axxz from {axxz.__file__}, not from {SRC}")
    import workloads

    ctx = workloads.Context(args.seed, args.smoke)
    tracer = Tracer() if args.trace else None

    def on_alarm(signum, frame):
        if tracer is not None and tracer.busy:
            tracer.pending = True
            return
        raise DeadlineExceeded

    signal.signal(signal.SIGALRM, on_alarm)

    def tracing(on: bool):
        if tracer is None:
            return
        if on:
            tracer.install()
        else:
            tracer.uninstall()
        ctx.tracer = tracer if on else None

    tracing(True)
    workload = workloads.WORKLOADS[args.workload](ctx)
    workloads.warm_up(ctx)
    ready_at = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready_at": ready_at}))
        return 0
    tracing(False)

    end = ready_at + args.seconds
    passes = [run_pass(ctx, workload)]
    passes_left = 2 if tracer else 1  # the next untraced pass, and the traced one
    while time.monotonic() + passes_left * median(p.wall for p in passes) <= end:
        passes.append(run_pass(ctx, workload))

    result = {"ready_at": ready_at, "env": run_env(args.seed)}
    if tracer:
        tracing(True)
        traced = run_pass(ctx, workload)
        for argv_ in workload.replay:
            try:
                workloads.run_main(ctx, argv_)
            except Exception:  # a crash was already counted by the task that made this call
                pass
        startup = workloads.startup_seconds(1 if args.smoke else 3)
        tracing(False)
        result["per_layer"] = per_layer(tracer, [p.wall for p in passes], traced.wall, startup)
        result["top_self_times"] = top_self_times(tracer)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        spans = out / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
        passes.append(traced)

    result.update(summarize(passes))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
