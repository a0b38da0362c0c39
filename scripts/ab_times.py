#!/usr/bin/env python3
"""Compare two checkouts' in-process request times on one workload.

In each of ROUNDS rounds the script runs the `scripts/slot_times.py` of
ROOT_A and of ROOT_B, each root's own copy in a fresh interpreter, with
WORKLOAD SEED CYCLES and REPS 5: ROOT_A first in odd rounds and ROOT_B
first in even ones, so that a drift in the machine's load falls on both
roots alike.  It prints, for each root, the median and the quartiles
(statistics.quantiles with n=4, the exclusive method) of the round totals
and of each slot group's time, groups in the order of ROOT_A's medians,
largest first; then how many rounds each root won, a round going to the
root with the smaller total.  Unlike perfbench, the times leave out
process start-up, the reference kernel and the slowdown scaling, so they
show a difference in the program's own work that perfbench's end-to-end
noise may hide.

Run:  python3 scripts/ab_times.py ROOT_A ROOT_B WORKLOAD SEED CYCLES ROUNDS
      e.g. python3 scripts/ab_times.py ../parent . float-cli 1 0-3 6
CYCLES is an index, a range `a-b` or a comma-separated list of either.
"""

import argparse
import os
import re
import statistics
import subprocess
import sys

REPS = 5
# a group line or the total line of slot_times.py: name, requests, ms
TIMES = re.compile(r"(\S+) +\d+ +(\d+\.\d\d) ms\b.*")


def slot_times(root, workload, seed, cycles):
    """{group: ms, "total": ms} of one run of root's slot_times.py."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, os.path.join(root, "scripts", "slot_times.py"),
                           workload, str(seed), cycles, str(REPS)],
                          capture_output=True, text=True, env=env)
    if proc.returncode:
        sys.exit(f"{root}: slot_times.py failed\n{proc.stderr}")
    return {m[1]: float(m[2]) for m in map(TIMES.fullmatch, proc.stdout.splitlines()) if m}


def spread(values):
    """`median [q1, q3]` of the values, or `-` where there are none."""
    if not values:
        return "-"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"{median:.2f} [{q1:.2f}, {q3:.2f}]"


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("roots", nargs=2, metavar="ROOT")
    p.add_argument("workload")
    p.add_argument("seed", type=int)
    p.add_argument("cycles")
    p.add_argument("rounds", type=int)
    args = p.parse_args(argv)
    if args.rounds < 2:
        p.error("ROUNDS must be at least 2, so that quartiles exist")
    runs = ([], [])
    for r in range(args.rounds):
        for side in ((0, 1) if r % 2 == 0 else (1, 0)):
            runs[side].append(slot_times(args.roots[side], args.workload, args.seed, args.cycles))
    times = [{name: [run[name] for run in side if name in run]
              for name in {name for run in side for name in run}} for side in runs]
    print(f"{args.workload} seed {args.seed} cycles {args.cycles} rounds {args.rounds} "
          f"reps {REPS}, ROOT_A first in odd rounds")
    for label, root in zip("AB", args.roots):
        print(f"{label}: {os.path.abspath(root)}")
    print(f"{'ms':<28} {'A median [q1, q3]':<28} B median [q1, q3]")
    groups = sorted((set(times[0]) | set(times[1])) - {"total"},
                    key=lambda name: -statistics.median(times[0].get(name, [0.0])))
    for name in ["total", *groups]:
        print(f"{name:<28} {spread(times[0].get(name)):<28} {spread(times[1].get(name))}")
    pairs = [(a["total"], b["total"]) for a, b in zip(*runs)]
    print(f"rounds won: A {sum(a < b for a, b in pairs)}, B {sum(b < a for a, b in pairs)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
