#!/usr/bin/env python3
"""misolab benchmark: one workload, one seed, every metric with its unit.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload exact-cli --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):
  exact-cli   order/decompose/ortho/perturb/shift/verify requests, exact mode
  float-cli   the same command mix in float mode, unitarily conjugated

With --trace 0 the run measures set-up time (fresh interpreters importing
misolab.cli) and then runs the workload in a child interpreter, printing
the end-to-end metrics.  --seconds sets the number of whole cycles a run
sends, as many as take that long at nominal speed and at least enough for
100 requests (worker.cycle_count), so that a seed's run always sends the
same requests: at --seconds 20, two exact-cli cycles (about 80 s on a
shared 2-core machine) and four float-cli cycles (about 30 s).  Times
are scaled to a nominal machine speed measured by a reference kernel
(calibrate.py); the unscaled figures are in the details line.  With
--trace 1 it replays one shorter cycle (workloads.TRACE_SLOTS) untraced,
traced, untraced again and with scalar counting, and prints the per-layer
metrics (unscaled, except the pass times behind trace.overhead_s); spans
go to perfbench/_traces/.

Before the result, the run prints the failing requests and one `details`
JSON line (environment, cycle digests of exact reports, sample counts,
slowdown factors, unscaled metrics).
The last line is the result: {"correct", "attempted", "failed", "metrics"}.
`correct` is false when a request fails other than in the shape of a known
defect listed in workloads.py, or a traced run misses a layer.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
DEADLINE_S = 175
SETUP_SAMPLES = 11

# Pinned before the child interpreters import numpy.
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def child_env(root):
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env, root):
    """Median wall time of a fresh interpreter importing misolab.cli, each
    sample scaled to the nominal machine speed by the kernel runs just
    before and after it; one unmeasured import first compiles the bytecode
    caches.  Returns
    (scaled median, raw samples, mean slowdown)."""
    cmd = [sys.executable, "-c", "import misolab.cli"]
    samples, scaled, gaps = [], [], [calibrate.gap()]
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        if subprocess.run(cmd, env=env, cwd=root).returncode != 0:
            fail("importing misolab.cli failed")
        elapsed = time.perf_counter() - t0
        gaps.append(calibrate.gap())
        if i:
            samples.append(elapsed)
            scaled.append(elapsed / calibrate.slowdown(gaps[-2] + gaps[-1]))
    return (statistics.median(scaled), samples,
            calibrate.slowdown([t for g in gaps for t in g]))


def main(argv=None):
    p = argparse.ArgumentParser(description="misolab benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    t_begin = time.perf_counter()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "misolab", "cli.py")):
        fail(f"no misolab source under {root}/src; run from the root of a checkout")
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # one CPU for this process and every child, so that the kernel runs and
    # the measured work share a CPU (calibrate.py)
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    env = child_env(root)
    setup = None
    if not args.trace:
        setup = measure_setup(env, root)

    work = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    spans_dir = os.path.join(HERE, "_traces")
    os.makedirs(work, exist_ok=True)
    os.makedirs(spans_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", work, "--spans-dir", spans_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (time.perf_counter() - t_begin)))
    except subprocess.TimeoutExpired:
        fail("workload did not finish before the deadline")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])

    produced = result["metrics"]
    if setup is not None:
        produced["setup_s"] = (setup[0], "s")
    metrics = {}
    for m in wanted:
        if m["name"] not in produced:
            fail(f"metric {m['name']} was not measured")
        value, unit = produced[m["name"]]
        if unit != m["unit"]:
            fail(f"metric {m['name']} measured in {unit}, declared in {m['unit']}")
        metrics[m["name"]] = {"value": value, "unit": unit}

    details = result["details"]
    details.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, cpu=cpu)
    if setup is not None:
        details["setup_samples_s"] = setup[1]
        details["setup_slowdown"] = setup[2]
    details["unreported"] = {k: v for k, v in produced.items() if k not in metrics}
    for f in details["failures"]:
        tag = f"known defect {f['known_defect']}" if f["known_defect"] else "UNEXPECTED"
        print(f"failed [{tag}] cycle {f['cycle']} {f['slot']} {f['inputs']}: {f['failure']}")
    if details.get("missing_calls"):
        print(f"traced run recorded no call to: {', '.join(details['missing_calls'])}")
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 1 if details.get("missing_calls") else 0


if __name__ == "__main__":
    sys.exit(main())
