"""Smoke tests: the example scripts run end to end on the library API."""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_script(script, args):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    return proc


@pytest.mark.parametrize("script,args", [
    ("worked_example.py", []),
    ("corpus_report.py", ["--per-kind", "2", "--count", "3"]),
])
def test_script_runs(script, args):
    assert run_script(script, args).stdout.strip()


def test_report_hashes_prints_one_digest_per_cycle():
    out = run_script("report_hashes.py", ["float-cli", "1", "0"]).stdout
    assert re.fullmatch(r"float-cli seed 1 cycle 0 requests 37 sha256 [0-9a-f]{64}\n", out)


def test_exact_cli_cycle_digest_is_pinned():
    """Cycle 0 of exact-cli at seed 1 (51 requests) gives the same bytes as
    before: every exact report, message and exit code.  A change to the
    benchmark's request mix (perfbench/workloads.py) changes the requests,
    so the change that makes it updates this digest."""
    out = run_script("report_hashes.py", ["exact-cli", "1", "0"]).stdout
    assert out == ("exact-cli seed 1 cycle 0 requests 51 sha256 "
                   "4a2e8d81d38c001d47a8cb7e9f27d41f04cab33758cf0e0f12c87606d5fd9a51\n")


def test_float_cli_order_digest_is_pinned(tmp_path):
    """The order requests of float-cli cycle 0 at seed 1 (16 of its 37) give
    the same bytes as before: exit codes, stdout, stderr and JSON reports,
    float bits included.  Float order itself is pure Python, with no LAPACK
    call.  Its input matrices are not: the benchmark conjugates each block by
    a random unitary made with numpy's QR and matmul, so the digest of the
    spec files is pinned first, and a numpy build that rounds those
    differently fails there, not on the output.  A change to the benchmark's
    request mix changes the requests, so the change that makes it updates
    both digests."""
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import report_hashes
    finally:
        sys.path.remove(os.path.join(ROOT, "scripts"))
    reqs = [req for req in report_hashes.workloads.cycle_requests("float-cli", 1, 0)
            if req.argv[0] == "order"]
    assert len(reqs) == 16
    specs = hashlib.sha256(b"".join(json.dumps(req.files, sort_keys=True).encode() + b"\0"
                                    for req in reqs))
    assert specs.hexdigest() == (
        "71583d2c9284ce6081900991643cf0a229e3d2fe07a587f52352f38be2391a8d")
    assert report_hashes.requests_hash(reqs, str(tmp_path)) == (
        "0b6b12edab000065d79792f854143103f67c50807f29f964d6a8a5a554b5f5a3")
