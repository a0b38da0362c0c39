#!/usr/bin/env python3
"""Hash the benchmark workloads' CLI output, cycle by cycle.

Every request of a cycle of the benchmark's request mix
(perfbench/workloads.py, only read here) runs through `misolab.cli.main`
in a temporary directory.  For each seed and cycle the script prints one
SHA-256 over the requests' exit codes, stdout, stderr and JSON reports, in
the cycle's order, so that two versions of the program can be compared
for byte-identical output.  Exact reports are byte-identical everywhere;
float reports meet a rounding bound, not fixed bits, so their digests
compare two versions only on one numpy and BLAS build, and may differ
where a rounding residue does.  The temporary directory's path is
replaced by `{dir}` before hashing.

With `verify` in place of a workload, and no CYCLES, the script prints for
each seed one SHA-256 over `misolab verify --suite all --seed SEED
--output PATH`, hashed as one request of a cycle is.

Run:  python3 scripts/report_hashes.py WORKLOAD SEEDS CYCLES
      e.g. python3 scripts/report_hashes.py exact-cli 1-3 0-1
      python3 scripts/report_hashes.py verify SEEDS
      e.g. python3 scripts/report_hashes.py verify 0-3
SEEDS and CYCLES are an index, a range `a-b` or a comma-separated list
of either.
"""

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402
from misolab.cli import main as cli_main  # noqa: E402


def indexes(spec):
    """[1, 2, 3] from "1-3"; "0,2" and "5" work too."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_request(req, workdir):
    """(exit code, stdout, stderr, report bytes or b"") of one request."""
    req.write_files(workdir)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli_main(req.resolved_argv(workdir))
        except SystemExit as exc:
            rc = exc.code
    report = b""
    out_path = os.path.join(workdir, req.meta["out"])
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            report = fh.read()
        os.remove(out_path)
    for name in req.files:
        os.remove(os.path.join(workdir, name))
    return rc, out.getvalue(), err.getvalue(), report


def requests_hash(reqs, workdir):
    """SHA-256 hex digest of the requests' outputs (run_request), in order."""
    h = hashlib.sha256()
    for req in reqs:
        rc, out, err, report = run_request(req, workdir)
        for part in (str(rc), out, err):
            h.update(part.replace(workdir, "{dir}").encode() + b"\0")
        h.update(report.replace(workdir.encode(), b"{dir}") + b"\0")
    return h.hexdigest()


def cycle_hash(workload, seed, cycle, workdir):
    """(number of requests, SHA-256 hex digest) of one cycle."""
    reqs = workloads.cycle_requests(workload, seed, cycle)
    return len(reqs), requests_hash(reqs, workdir)


def verify_hash(seed, workdir):
    """SHA-256 hex digest of `verify --suite all` at seed, as one request."""
    return requests_hash([workloads.verify_request("all", seed, "verify")], workdir)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=(*workloads.WORKLOADS, "verify"))
    p.add_argument("seeds", type=indexes)
    p.add_argument("cycles", type=indexes, nargs="?")
    args = p.parse_args(argv)
    if (args.cycles is None) != (args.workload == "verify"):
        p.error("a workload needs CYCLES, and verify takes none")
    with tempfile.TemporaryDirectory() as workdir:
        for seed in args.seeds:
            if args.workload == "verify":
                print(f"verify seed {seed} sha256 {verify_hash(seed, workdir)}", flush=True)
                continue
            for cycle in args.cycles:
                n, digest = cycle_hash(args.workload, seed, cycle, workdir)
                print(f"{args.workload} seed {seed} cycle {cycle} requests {n} sha256 {digest}",
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
