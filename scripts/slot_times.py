#!/usr/bin/env python3
"""Time the benchmark workloads' requests in-process, by slot group.

The requests of the given cycles of a workload's request mix
(perfbench/workloads.py) run through `misolab.cli.main` in one process
and a temporary directory, each timed by perfbench's own runner
(`run_request` in perfbench/worker.py; both modules are only imported):
one untimed pass, so that every timed run is warm, then REPS timed rounds
over all of them.  A request's time is the least of its REPS runs.  The script prints, for each slot group
(a slot's command and kind, such as `order/jordan` or
`verify/shift-factory`), its number of requests, the sum of their times and
its share of the total, largest first; then the total and the requests per
second it gives.  Last, for the p50 and the p90 of the requests' times,
computed as perfbench's latency_metrics computes them
(statistics.quantiles with n=10), it prints the two requests on either
side of that rank, each with its rank, slot and time.  This shows where a
cycle's time goes, and so which changes can move the benchmark's
`requests_per_s` and latency percentiles; it leaves out the reference
kernel that perfbench runs between requests and its slowdown scaling.

Run:  python3 scripts/slot_times.py WORKLOAD SEED CYCLES REPS
      e.g. python3 scripts/slot_times.py exact-cli 1 0-1 9
CYCLES is an index, a range `a-b` or a comma-separated list of either.
"""

import argparse
import math
import os
import statistics
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402
from misolab.cli import main as cli_main  # noqa: E402
from report_hashes import indexes  # noqa: E402


def slot_group(req):
    """The command and kind of req's slot: `order/jordan` of `order/jordan/5`."""
    return "/".join(req.slot.split("/")[:2])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("seed", type=int)
    p.add_argument("cycles", type=indexes)
    p.add_argument("reps", type=int)
    args = p.parse_args(argv)
    if args.reps < 1:
        p.error("REPS must be at least 1")
    reqs = [req for cycle in args.cycles
            for req in workloads.cycle_requests(args.workload, args.seed, cycle)]
    best = [float("inf")] * len(reqs)
    with tempfile.TemporaryDirectory() as workdir:
        for req in reqs:
            worker.run_request(cli_main, req, workdir)
        for _ in range(args.reps):
            for i, req in enumerate(reqs):
                best[i] = min(best[i], worker.run_request(cli_main, req, workdir)[0])
    groups = defaultdict(lambda: [0, 0.0])
    for req, t in zip(reqs, best):
        groups[slot_group(req)][0] += 1
        groups[slot_group(req)][1] += t
    total = sum(best)
    print(f"{args.workload} seed {args.seed} cycles {','.join(map(str, args.cycles))} "
          f"reps {args.reps}")
    for name, (count, t) in sorted(groups.items(), key=lambda item: -item[1][1]):
        print(f"{name:<28} {count:>4} {t * 1e3:>10.2f} ms {100 * t / total:>5.1f}%")
    print(f"{'total':<28} {len(reqs):>4} {total * 1e3:>10.2f} ms "
          f"{len(reqs) / total:.1f} req/s")
    # the deciles of the ranks 1 .. N are the fractional ranks the deciles of
    # the times interpolate between
    ranked = sorted(zip(best, (req.slot for req in reqs)))
    ranks, deciles = (statistics.quantiles(x, n=10) for x in (range(1, len(reqs) + 1), best))
    for name, i in (("p50", 4), ("p90", 8)):
        lo = math.floor(ranks[i])
        sides = ", ".join(f"rank {r} {ranked[r - 1][1]} {ranked[r - 1][0] * 1e3:.2f} ms"
                          for r in (lo, min(lo + 1, len(reqs))))
        print(f"{name} {deciles[i] * 1e3:.2f} ms: {sides}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
