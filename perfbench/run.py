"""Benchmark for axxz: time to a checked answer on four workloads.

    python3 perfbench/run.py --workload ed-crosscheck --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --seed 1     # every workload, one after another

Workloads (see workloads.py): ed-crosscheck, identity-verify, large-n and
cli-session. Each run of a workload happens in a worker process of its own
(worker.py), with AXXZ_THREADS unset and OpenBLAS at its default thread
count; runs never overlap.

End-to-end metrics (--trace 0), names and units as listed in BENCHMARK.json:

    setup_s      process start until the first task is ready: import axxz,
                 inputs from the seed, references, warm-up. Median of
                 three fresh worker processes.
    wall_s       one pass over the fixed task list, every check included;
                 median of the passes that fit in --seconds
    min_digits   smallest -log10(relative error) over the checks that have
                 an exact reference, error floored at 1e-16
    peak_rss_mb  peak resident memory of the worker; for cli-session, of the
                 largest CLI child process

fail_rate (failed over attempted tasks) and the failures by kind
(nonconvergence, collision, overflow, deadline, wrong_answer, error) are
printed too. Failures that are known defects of the program (ROADMAP item
3, the `table1 --format json` crash; see workloads.py) are counted there
and listed as known; `failed` in the result line counts only the other,
unexpected failures, and `correct` is true when there are none.

With --trace 1 the last line carries the per-layer metrics of one traced
pass (plus warm-up): self times and call counts of the wrapped public
functions of axxz.core, bae, tqverify, thermo and cli.main, solver counts,
accuracy maxima, CLI start-up and the tracing overhead (traced pass minus
the median untraced pass). The spans are written to perfbench/out/.

With --workload, the last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
Without it, every workload runs in turn and the last line is one JSON object
keyed by workload name, each value an object of that shape.

A per-layer metric that a workload does not produce (a layer it does not
call, a failure kind that does not occur) is reported as 0. The traced run
also lists fail_rate, computed over all of its passes.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ed-crosscheck", "identity-verify", "large-n", "cli-session")
SETUP_RUNS = 3
RUN_TIMEOUT_S = 170.0


class BenchError(RuntimeError):
    pass


def spawn(args, workload: str, deadline: float, setup_only: bool = False):
    """Run worker.py once; return (seconds from spawn to ready, its result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    cmd += ["--smoke"] * args.smoke + ["--setup-only"] * setup_only
    env = dict(os.environ)
    env.pop("AXXZ_THREADS", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, check=False,
                              timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker ran past the {RUN_TIMEOUT_S:.0f} s limit") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready_at"] - t0, result


def run_workload(args, workload: str, spec: dict):
    """One run of one workload: report lines and the result object."""
    deadline = time.monotonic() + RUN_TIMEOUT_S
    probes = 0 if args.trace or args.smoke else SETUP_RUNS - 1
    setups = [spawn(args, workload, deadline, setup_only=True)[0] for _ in range(probes)]
    setup, r = spawn(args, workload, deadline)
    setups.append(setup)

    walls = r["walls"][:-1] if args.trace else r["walls"]
    q1, _, q3 = quantiles(walls, n=4) if len(walls) > 1 else walls * 3
    measured = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "min_digits": r["min_digits"],
        "peak_rss_mb": r["peak_rss_mb"],
    }
    fails = " ".join(f"{k}={v}" for k, v in sorted(r["failures"].items())) or "none"
    lines = [
        f"== {workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}",
        "env " + " ".join(f"{k}={v}" for k, v in r["env"].items()),
        f"setup_s      {measured['setup_s']:.4f} s    (median of {len(setups)}: "
        + " ".join(f"{s:.4f}" for s in setups) + ")",
        f"wall_s       {measured['wall_s']:.4f} s    (median of {len(walls)} untraced passes;"
        f" q1 {q1:.4f}, q3 {q3:.4f})",
        f"fail_rate    {sum(r['failures'].values()) / r['attempted']:.4f}      "
        f"({sum(r['failures'].values())} of {r['attempted']} tasks: {fails};"
        f" known {r['known_failures']}, unexpected {r['unexpected']})",
        f"min_digits   {measured['min_digits']:.3f}     (worst: {r['worst_check']})",
        f"peak_rss_mb  {measured['peak_rss_mb']:.1f} MB"
        + ("  (largest CLI child)" if workload == "cli-session" else ""),
    ]
    lines += [f"known failure: {u}" for u in r["known_shown"]]
    lines += [f"UNEXPECTED failure: {u}" for u in r["unexpected_shown"]]

    if args.trace:
        layers = dict(r["per_layer"], fail_rate=sum(r["failures"].values()) / r["attempted"])
        listed = spec["per_layer"]
        lines.append(f"tracing overhead {layers['trace.overhead_s']:+.4f} s on a traced pass of"
                     f" {r['walls'][-1]:.4f} s; spans in {r['spans_file']}")
        lines.append("time in each layer's outermost calls (s): " + ", ".join(
            f"{k.split('.')[0]} {v:.3f}" for k, v in layers.items() if k.endswith(".outermost_s")))
        lines.append("largest self times (s, calls): " + ", ".join(
            f"{name} {secs:.3f} ({calls})" for name, secs, calls in r["top_self_times"]))
        metrics = {m["name"]: {"value": float(layers.get(m["name"], 0.0)), "unit": m["unit"]}
                   for m in listed}
    else:
        metrics = {m["name"]: {"value": float(measured[m["name"]]), "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    lines += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    result = {"correct": r["unexpected"] == 0, "attempted": r["attempted"],
              "failed": r["unexpected"], "metrics": metrics}
    return lines, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="axxz benchmark; see the module docstring")
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="smallest sizes and one set-up; for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "axxz" / "__init__.py").is_file():
        print(f"error: no axxz sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in names:
            lines, results[workload] = run_workload(args, workload, spec)
            print("\n".join(lines), flush=True)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
