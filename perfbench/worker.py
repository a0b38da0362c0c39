"""Benchmark worker: runs one workload in-process and prints its result.

Started by run.py in a fresh interpreter whose BLAS/OpenMP thread counts
are already pinned to 1.  One client sends requests to
`misolab.cli.main(argv)` in a closed loop (the next request starts when
the previous one returned, with no think time), one cycle of the
workload's slots at a time, for a number of cycles fixed by the workload
and --seconds (cycle_count); it never depends on measured time, so the
requests a seed's run sends and their failures repeat exactly.  The reference
kernel of calibrate.py runs between requests.  Every report is checked
against the oracle in workloads.py.

Usage: python3 perfbench/worker.py --workload W --seed N --seconds S
                                   --trace 0|1 --workdir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import calibrate
import workloads

# Cycles the traced run replays, fixed so that its counts repeat exactly.
TRACE_CYCLES = 1
# Requests a timed run completes at least, so that ten lie beyond its 90th
# percentile.
MIN_REQUESTS = 100
# Wall time of one cycle, kernel runs included, at nominal machine speed
# (calibrate.py); --seconds buys one cycle per this many seconds.
NOMINAL_CYCLE_S = {"exact-cli": 23.0, "float-cli": 5.0}

# Functions each workload must reach; a traced run in which one of them
# recorded no call fails instead of reporting a silent zero.
_COMMON = ["matrices.matmul", "matrices.apply", "polynomials.eval",
           "diffcalc.difference_table", "diffcalc.detect_degree",
           "isometry.strict_order", "isometry.defect", "isometry.orbit_sequence",
           "shifts.shift_from_polynomial", "shifts.shift_is_m_isometry",
           "spectral.algebraic_decompose", "spectral.perturbation_analysis"]
_CLI = ["cli.order", "cli.decompose", "cli.shift", "cli.ortho", "cli.perturb",
        "specio.load_spec_file", "specio.scalar_to_report",
        "isometry.local_isometry_survey", "spectral.ortho_test_generalized"]
EXPECTED_CALLS = {
    "exact-cli": _COMMON + _CLI + ["spectral.exact_nullspace", "scalars.exact_mul",
                                   "scalars.exact_addsub", "scalars.exact_div",
                                   "cli.verify", "suites.jordan-orders",
                                   "suites.shift-factory"],
    "float-cli": _COMMON + _CLI + ["spectral.to_numpy",
                                   "scalars.float_mul", "scalars.float_addsub"],
}


def run_request(cli_main, req, workdir):
    """Run one request; returns (latency_s, exit code, report bytes or None, stderr)."""
    req.write_files(workdir)
    out_path = os.path.join(workdir, req.meta["out"])
    argv = req.resolved_argv(workdir)
    sink, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:
            rc = exc.code
        latency = time.perf_counter() - t0
    raw = None
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            raw = fh.read()
        os.remove(out_path)
    for name in req.files:
        os.remove(os.path.join(workdir, name))
    return latency, rc, raw, err.getvalue()


def cycle_count(workload, seconds):
    """Whole cycles of a timed run: enough for MIN_REQUESTS requests and for
    `seconds` at nominal speed.  A count taken from the clock would make the
    number of requests, and so of failures, differ between runs of a seed."""
    per_cycle = len(workloads.cycle_slots(workload))
    return max(math.ceil(MIN_REQUESTS / per_cycle),
               math.ceil(seconds / NOMINAL_CYCLE_S[workload]))


def run_cycles(cli_main, workload, seed, workdir, cycles, *, traced=False, tracer=None):
    """Closed loop over `cycles` whole cycles of the workload's mix, or with
    traced of the traced run's mix (workloads.TRACE_SLOTS)."""
    records = []
    digests = []
    slowdowns = []
    t_start = time.perf_counter()
    for cycle in range(cycles):
        h = hashlib.sha256()
        gaps, cycle_records = [], []    # gaps: (time taken, kernel times)
        for req in workloads.cycle_requests(workload, seed, cycle, traced=traced):
            gaps.append((time.perf_counter(), calibrate.gap()))
            if tracer is not None:
                tracer.request_id = len(records) + len(cycle_records)
            start = time.perf_counter()
            latency, rc, raw, err = run_request(cli_main, req, workdir)
            span = (start, time.perf_counter())
            report = None
            if raw is not None:
                try:
                    report = json.loads(raw)
                except ValueError:
                    pass
            failure = workloads.check(req, rc, report)
            known = req.known_defect if workloads.excused(req, failure) else None
            failure = failure and failure[1]
            if failure and err.strip():
                failure += f" [stderr: {err.strip().splitlines()[-1]}]"
            if req.mode != "float" and raw is not None:
                h.update(req.slot.encode() + b"\0" + raw + b"\0")
            warnings = report.get("warnings", []) if isinstance(report, dict) else []
            cycle_records.append({
                "cycle": cycle, "slot": req.slot, "latency": latency,
                "failure": failure, "known_defect": known,
                "escalated": any("escalated" in w for w in warnings),
                "inputs": req.meta.get("blocks"), "span": span,
            })
        gaps.append((time.perf_counter(), calibrate.gap()))
        cycle_slowdown = calibrate.slowdown([t for _, g in gaps for t in g])
        for r in cycle_records:
            r["slowdown"] = calibrate.window_slowdown(gaps, *r.pop("span"))
        records += cycle_records
        slowdowns.append(cycle_slowdown)
        digests.append(h.hexdigest()[:16] if workload != "float-cli" else None)
    return records, digests, slowdowns, time.perf_counter() - t_start


def latency_metrics(records, scaled=True):
    """End-to-end latency metrics; when scaled, each latency is first divided
    by the slowdown the kernel measured around it (calibrate.py)."""
    if scaled:
        records = [dict(r, latency=r["latency"] / r["slowdown"]) for r in records]
    lat = [r["latency"] for r in records]
    deciles = statistics.quantiles(lat, n=10)
    p50, p90 = deciles[4], deciles[8]
    by_cycle = {}
    for r in records:
        by_cycle.setdefault(r["cycle"], []).append(r["latency"])
    # the median over cycles keeps a burst of machine noise in one cycle
    # from moving the run's throughput
    return {
        "requests_per_s": (statistics.median(len(v) / sum(v) for v in by_cycle.values()),
                           "req/s"),
        "latency_p50_ms": (p50 * 1e3, "ms"),
        "latency_p90_ms": (p90 * 1e3, "ms"),
    }, {"samples": len(lat), "beyond_p90": sum(1 for x in lat if x > p90)}


def failures_of(records):
    failed = [r for r in records if r["failure"]]
    listing = [{"cycle": r["cycle"], "slot": r["slot"], "inputs": r["inputs"],
                "failure": r["failure"], "known_defect": r["known_defect"]}
               for r in failed]
    unexpected = [r for r in failed if not r["known_defect"]]
    return failed, listing, unexpected


def environment():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def untraced(cli_main, args):
    records, digests, slowdowns, _ = run_cycles(
        cli_main, args.workload, args.seed, args.workdir,
        cycle_count(args.workload, args.seconds))
    metrics, counts = latency_metrics(records)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = {k: v for k, (v, _) in latency_metrics(records, scaled=False)[0].items()}
    failed, listing, unexpected = failures_of(records)
    return {
        "correct": not unexpected,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        # cycle 0 runs in every run, so its digest is the workload's digest
        "details": {"cycles": len(digests), "digest": digests[0], "digests": digests,
                    "failures": listing, "latency_samples": counts,
                    "slowdown_per_cycle": slowdowns, "unscaled": raw},
    }


def traced(cli_main, args):
    from layertrace import CLI_COMMANDS, ScalarCounter, Tracer

    k = TRACE_CYCLES

    def nominal_s(result):
        # a pass's wall time, scaled to nominal machine speed (calibrate.py)
        return result[3] / statistics.fmean(result[2])

    # untraced passes before and after the traced one, so that drift and
    # first-call costs do not land in the overhead
    before = run_cycles(cli_main, args.workload, args.seed, args.workdir, k, traced=True)
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run_cycles(cli_main, args.workload, args.seed, args.workdir, k,
                                 traced=True, tracer=tracer)
    finally:
        tracer.uninstall()
    records, digests = traced_pass[0], traced_pass[1]
    after = run_cycles(cli_main, args.workload, args.seed, args.workdir, k, traced=True)
    untraced_s = (nominal_s(before) + nominal_s(after)) / 2
    traced_s = nominal_s(traced_pass)
    counter = ScalarCounter()
    counter.install()
    try:
        run_cycles(cli_main, args.workload, args.seed, args.workdir, k, traced=True)
    finally:
        counter.uninstall()

    spans = tracer.summary()
    metrics = {}

    def span(name):
        return spans.get(name, (0, 0.0, 0.0))

    for name in PER_LAYER_SPANS:
        calls, total, self_s = span(name)
        metrics[f"{name}.calls"] = (calls, "count")
        metrics[f"{name}.self_s"] = (self_s, "s")
    for command in CLI_COMMANDS:
        calls, total, _ = span(f"cli.{command}")
        metrics[f"cli.{command}.calls"] = (calls, "count")
        metrics[f"cli.{command}.total_s"] = (total, "s")
    for suite in workloads.VERIFY_SUITES:
        metrics[f"suites.{suite}.s"] = (span(f"suites.{suite}")[1], "s")
    bridge = [span("spectral.to_numpy"), span("spectral.from_numpy")]
    metrics["spectral.numpy_bridge.calls"] = (bridge[0][0] + bridge[1][0], "count")
    metrics["spectral.numpy_bridge.self_s"] = (bridge[0][2] + bridge[1][2], "s")
    metrics["spectral.cluster_escalations"] = (sum(r["escalated"] for r in records), "count")
    for key in ("matrices.matmul.entry_mults", "isometry.strict_order.orders_scanned",
                "diffcalc.difference_table.samples"):
        metrics[key] = (tracer.quantities.get(key, 0), "count")
    for key, value in counter.counts.items():
        metrics[key] = (value, "count")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    failed, listing, unexpected = failures_of(records)
    metrics["requests.failed_share"] = (len(failed) / len(records), "ratio")

    reached = {name: calls for name, (calls, _, _) in spans.items()}
    reached.update({k.removesuffix(".calls"): v for k, v in counter.counts.items()})
    missing = [name for name in EXPECTED_CALLS[args.workload] if not reached.get(name)]
    spans_path = os.path.join(args.spans_dir, f"spans-{args.workload}-{args.seed}.txt")
    tracer.write_spans(spans_path)
    return {
        "correct": not unexpected and not missing,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
        "details": {"cycles": k, "digests": digests, "failures": listing,
                    "missing_calls": missing, "spans_file": spans_path,
                    "spans": len(tracer.start), "bindings": tracer.bindings},
    }


# Spans whose call count and self time are reported.
PER_LAYER_SPANS = (
    "matrices.matmul", "matrices.apply", "polynomials.eval",
    "diffcalc.difference_table", "diffcalc.detect_degree",
    "isometry.strict_order", "isometry.defect", "isometry.orbit_sequence",
    "isometry.local_isometry_survey", "shifts.shift_from_polynomial",
    "shifts.shift_is_m_isometry", "spectral.algebraic_decompose", "spectral.exact_nullspace",
    "spectral.perturbation_analysis", "spectral.ortho_test_generalized",
    "specio.load_spec_file", "specio.scalar_to_report",
)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans-dir", default=None)
    args = p.parse_args(argv)
    os.makedirs(args.workdir, exist_ok=True)
    from misolab.cli import main as cli_main

    result = (traced if args.trace else untraced)(cli_main, args)
    result["details"]["environment"] = environment()
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
