#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Each run's output is saved as OUT/<workload>-<seed>.txt, the layout
compare.py reads.  The table gives, per workload and end-to-end metric,
the median, the quartiles and the spread (quartile distance over the
median) against the metric's bound; a spread above a third of the bound
is marked.

Usage: python3 perfbench/sweep.py --out perfbench/results/NAME
           [--workloads exact-cli,float-cli] [--seeds 1-10]
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

from compare import load_results, load_spec, metric_values, spread

HERE = os.path.dirname(os.path.abspath(__file__))


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    spec = load_spec()
    p = argparse.ArgumentParser(description="run the benchmark over seeds")
    p.add_argument("--out", required=True)
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)
    root = os.path.dirname(HERE)
    for workload in args.workloads.split(","):
        for seed in seed_list(args.seeds):
            path = os.path.join(args.out, f"{workload}-{seed}.txt")
            with open(path, "w", encoding="utf-8") as fh:
                rc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"),
                                     "--workload", workload, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", "0"],
                                    cwd=root, stdout=fh).returncode
            print(f"{workload} seed {seed}: exit {rc}", flush=True)
    runs = load_results(args.out)
    for workload in args.workloads.split(","):
        for m in spec["end_to_end"]:
            values = metric_values(runs, workload, m["name"])
            if not values:
                continue
            med, q1, q3, sp = spread(values)
            mark = ("" if sp < m["bound"] / 3
                    else "  > bound/3" if sp <= m["bound"] else "  > BOUND")
            print(f"{workload:11s} {m['name']:15s} n={len(values):2d} median={med:11.5g} "
                  f"q1={q1:11.5g} q3={q3:11.5g} spread={sp:6.2%} bound={m['bound']:.0%}{mark}")
        failed = sum(r["result"]["failed"] for (w, _), r in runs.items() if w == workload)
        attempted = sum(r["result"]["attempted"] for (w, _), r in runs.items() if w == workload)
        correct = all(r["result"]["correct"] for (w, _), r in runs.items() if w == workload)
        print(f"{workload:11s} failed {failed}/{attempted}, all correct: {correct}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
