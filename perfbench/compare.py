#!/usr/bin/env python3
"""Compare two result sets of the benchmark, workload by workload.

A result set is a directory of captured run.py outputs named
<workload>-<seed>.txt (sweep.py writes them).  For every workload and
end-to-end metric the table gives both medians, the change in the
metric's worse direction, and a verdict that uses the bound and direction
from BENCHMARK.json:

  unresolved   the run-to-run spread (quartile distance over the median)
               of either side exceeds the bound, and not every new run
               beats every base run
  REGRESSION   the new median is worse than the base median by more than
               the bound
  improved     the new median is better by more than the base spread
  same         anything else

The same verdict is also given on the unscaled figures of each run (the
times before calibrate.py's machine-speed scaling), so that a change the
scaling hides still shows.

Exact-report digests and failing requests are compared per (workload,
seed) on the cycles both runs completed, where the inputs are the same;
a run that is not `correct` is flagged too.

Usage: python3 perfbench/compare.py BASE_DIR NEW_DIR
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_results(directory):
    """{(workload, seed): {"details": ..., "result": ...}} from captured outputs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(directory, name), encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            continue
        details = json.loads(lines[-2])["details"]
        runs[(details["workload"], details["seed"])] = {
            "details": details, "result": json.loads(lines[-1])}
    return runs


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) as statistics.quantiles gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def metric_values(runs, workload, metric):
    return [r["result"]["metrics"][metric]["value"]
            for (w, _), r in sorted(runs.items())
            if w == workload and metric in r["result"]["metrics"]]


def unscaled_values(runs, workload, metric):
    """The metric before machine-speed scaling, from each run's details."""
    values = []
    for (w, _), r in sorted(runs.items()):
        if w != workload or metric not in r["result"]["metrics"]:
            continue
        d = r["details"]
        if metric == "setup_s":
            values.append(statistics.median(d["setup_samples_s"]))
        else:
            values.append(d["unscaled"].get(metric, r["result"]["metrics"][metric]["value"]))
    return values


def verdict(base, new, bound, better):
    b_med, _, _, b_spread = spread(base)
    n_med, _, _, n_spread = spread(new)
    sign = 1 if better == "lower" else -1
    worse = sign * (n_med - b_med) / b_med
    all_better = (max(new) < min(base)) if better == "lower" else (min(new) > max(base))
    if max(b_spread, n_spread) > bound and not all_better:
        return worse, "unresolved"
    if worse > bound:
        return worse, "REGRESSION"
    if -worse > b_spread:
        return worse, "improved"
    return worse, "same"


def compare(base_runs, new_runs, spec):
    rows, flags = [], []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        for m in spec["end_to_end"]:
            base = metric_values(base_runs, workload, m["name"])
            new = metric_values(new_runs, workload, m["name"])
            if not base or not new:
                continue
            worse, v = verdict(base, new, m["bound"], m["better"])
            raw_worse, raw_v = verdict(unscaled_values(base_runs, workload, m["name"]),
                                       unscaled_values(new_runs, workload, m["name"]),
                                       m["bound"], m["better"])
            rows.append((workload, m["name"], m["unit"], statistics.median(base),
                         statistics.median(new), worse, m["bound"], v, raw_worse, raw_v))
        for side, runs in (("base", base_runs), ("new", new_runs)):
            bad = [s for (w, s), r in runs.items() if w == workload and not r["result"]["correct"]]
            if bad:
                flags.append(f"{workload}: {side} runs not correct for seeds {bad}")
        for key in sorted(set(base_runs) & set(new_runs)):
            if key[0] != workload:
                continue
            a, b = base_runs[key]["details"], new_runs[key]["details"]
            common = min(a["cycles"], b["cycles"])
            if a["digests"][:common] != b["digests"][:common]:
                flags.append(f"{workload} seed {key[1]}: exact report digest changed")
            if _failures(a, common) != _failures(b, common):
                flags.append(f"{workload} seed {key[1]}: failed requests changed "
                             f"{_failures(a, common)} -> {_failures(b, common)}")
    return rows, flags


def _failures(details, cycles):
    """Failing (cycle, slot) pairs among the first `cycles` cycles, whose
    inputs both runs of a seed share."""
    return sorted((f["cycle"], f["slot"]) for f in details["failures"] if f["cycle"] < cycles)


def main(argv=None):
    p = argparse.ArgumentParser(description="compare two benchmark result sets")
    p.add_argument("base")
    p.add_argument("new")
    args = p.parse_args(argv)
    rows, flags = compare(load_results(args.base), load_results(args.new), load_spec())
    print(f"{'workload':11s} {'metric':15s} {'base':>12s} {'new':>12s} {'worse':>8s} "
          f"{'bound':>6s}  {'verdict':12s} {'unscaled':>8s}  verdict")
    for workload, metric, unit, b, n, worse, bound, v, raw_worse, raw_v in rows:
        print(f"{workload:11s} {metric:15s} {b:12.4g} {n:12.4g} {worse:+8.1%} "
              f"{bound:6.0%}  {v:12s} {raw_worse:+8.1%}  {raw_v}")
    for f in flags:
        print(f"FLAG {f}")
    regressed = any("REGRESSION" in (r[7], r[9]) for r in rows)
    return 1 if flags or regressed else 0


if __name__ == "__main__":
    sys.exit(main())
