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


def import_report_hashes():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import report_hashes
    finally:
        sys.path.remove(os.path.join(ROOT, "scripts"))
    return report_hashes


def check_float_cycle_pin(tmp_path, command, count, specs_digest, output_digest):
    """The `command` requests of float-cli cycle 0 at seed 1: first the
    digest of their spec files, then that of their outputs."""
    report_hashes = import_report_hashes()
    reqs = [req for req in report_hashes.workloads.cycle_requests("float-cli", 1, 0)
            if req.argv[0] == command]
    assert len(reqs) == count
    specs = hashlib.sha256(b"".join(json.dumps(req.files, sort_keys=True).encode() + b"\0"
                                    for req in reqs))
    assert specs.hexdigest() == specs_digest
    assert report_hashes.requests_hash(reqs, str(tmp_path)) == output_digest


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
    check_float_cycle_pin(
        tmp_path, "order", 16,
        "71583d2c9284ce6081900991643cf0a229e3d2fe07a587f52352f38be2391a8d",
        "94bb133379e14eddb6f58add1f1cc18eca2dac164f3a994c849ee22f7283f4fe")


@pytest.mark.parametrize("command,count,specs_digest,output_digest", [
    ("ortho", 5, "8ac595838fe0e47b738ac8cb6bcd058433d3e287d5da7e2f84aad8d5bacb5bc3",
     "44dd1dcc7b722a3ea9191b4bf4a91fca28d8f718ac4e5d84590f8d60333693dd"),
    ("perturb", 3, "a2851916df5b5b311b12b5afa8c542b44019c0d9f252bb16e8b7b9e59e1e0f12",
     "78b68629c0e8092794a45e837039324da7473e09f0df7f4406b00256c990585f"),
])
def test_float_cli_window_digests_are_pinned(tmp_path, command, count, specs_digest,
                                             output_digest):
    """The ortho and perturb requests of float-cli cycle 0 at seed 1 give the
    same bytes as before.  Both read orbit windows (the ortho inner
    products, the perturb strictness criterion) and make no LAPACK call; as
    for order, the spec files are pinned first."""
    check_float_cycle_pin(tmp_path, command, count, specs_digest, output_digest)


@pytest.mark.parametrize("command", ["order", "perturb"])
def test_float_cli_reaches_strict_order(tmp_path, monkeypatch, command):
    """The benchmark's traced float-cli run must record calls to the public
    isometry.strict_order, which it wraps in every module that binds it.  The
    float order and perturb requests of cycle 0 at seed 1 reach it through
    every such binding wrapped the same way."""
    from misolab import isometry

    report_hashes = import_report_hashes()
    original, calls = isometry.strict_order, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "misolab" or name.startswith("misolab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    reqs = [req for req in report_hashes.workloads.cycle_requests("float-cli", 1, 0)
            if req.argv[0] == command]
    assert reqs
    for req in reqs:
        report_hashes.run_request(req, str(tmp_path))
    assert len(calls) > 0


@pytest.mark.parametrize("workload", ["exact-cli", "float-cli"])
def test_traced_cycle_reaches_every_expected_call(tmp_path, workload):
    """The benchmark's traced run fails when a name it expects
    (perfbench/worker.py EXPECTED_CALLS) records no call: a wrapped public
    function or method, a suite, or a Scalar operation of the mode.  The
    traced cycle at seed 1, under the same tracer and Scalar counter, must
    reach every one of them."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import layertrace
        import worker
        import workloads
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))
    from misolab.cli import main as cli_main

    tracer, counter = layertrace.Tracer(), layertrace.ScalarCounter()
    try:
        tracer.install()
        counter.install()
        for req in workloads.cycle_requests(workload, 1, 0, traced=True):
            worker.run_request(cli_main, req, str(tmp_path))
    finally:
        counter.uninstall()
        tracer.uninstall()
    reached = {name: calls for name, (calls, _, _) in tracer.summary().items()}
    reached.update({key.removesuffix(".calls"): n for key, n in counter.counts.items()})
    assert [name for name in worker.EXPECTED_CALLS[workload] if not reached.get(name)] == []
