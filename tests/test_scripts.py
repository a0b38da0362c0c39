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
    """Run a script as a reader of the README would, with no PYTHONPATH: each
    script finds the package under src/ itself."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
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


def test_slot_times_prints_each_group_the_total_and_the_rate():
    lines = run_script("slot_times.py", ["exact-cli", "1", "0", "1"]).stdout.splitlines()
    assert lines[0] == "exact-cli seed 1 cycles 0 reps 1"
    group = re.compile(r"([a-z-]+/[\w-]+) +(\d+) +(\d+\.\d\d) ms +(\d+\.\d)%")
    groups = [group.fullmatch(line) for line in lines[1:-3]]
    assert all(groups), lines
    names = [g[1] for g in groups]
    assert len(set(names)) == len(names) and "verify/shift-factory" in names
    times = [float(g[3]) for g in groups]
    assert times == sorted(times, reverse=True)
    total = re.fullmatch(r"total +51 +(\d+\.\d\d) ms (\d+\.\d) req/s", lines[-3])
    assert total, lines[-3]
    # statistics.quantiles(n=10) of 51 times: the p50 is the 26th, the p90
    # lies between the 46th and the 47th
    side = r"rank (\d+) (\S+) (\d+\.\d\d) ms"
    for line, name, ranks in zip(lines[-2:], ("p50", "p90"), ((26, 27), (46, 47))):
        quantile = re.fullmatch(rf"{name} (\d+\.\d\d) ms: {side}, {side}", line)
        assert quantile, line
        assert (int(quantile[2]), int(quantile[5])) == ranks
        assert {"/".join(quantile[j].split("/")[:2]) for j in (3, 6)} <= set(names)
        assert float(quantile[4]) <= float(quantile[1]) <= float(quantile[7])
    assert sum(int(g[2]) for g in groups) == 51
    assert abs(sum(times) - float(total[1])) <= 0.01 * len(times)
    assert abs(float(total[2]) - 51e3 / float(total[1])) <= 0.1 + 1e-3 * float(total[2])


def test_ab_times_prints_both_roots_and_the_rounds_won():
    lines = run_script("ab_times.py", [ROOT, ROOT, "exact-cli", "1", "0", "2"]).stdout.splitlines()
    assert lines[:3] == ["exact-cli seed 1 cycles 0 rounds 2 reps 5, ROOT_A first in odd rounds",
                         f"A: {ROOT}", f"B: {ROOT}"]
    spread = r"(\d+\.\d\d) \[(\d+\.\d\d), (\d+\.\d\d)\]"
    row = re.compile(rf"([a-z-]+/[\w-]+|total) +{spread} +{spread}")
    rows = [row.fullmatch(line) for line in lines[4:-1]]
    assert all(rows), lines
    names = [r[1] for r in rows]
    assert names[0] == "total" and "verify/shift-factory" in names
    assert len(set(names)) == len(names)
    medians = [float(r[2]) for r in rows[1:]]
    assert medians == sorted(medians, reverse=True)
    won = re.fullmatch(r"rounds won: A (\d), B (\d)", lines[-1])
    assert won and int(won[1]) + int(won[2]) <= 2


def test_exact_cli_cycle_digest_is_pinned():
    """Cycles 0 and 1 of exact-cli at seed 1 (51 requests each), the two
    that every benchmark run sends, give the same bytes as before: every
    exact report, message and exit code.  A change to the benchmark's
    request mix (perfbench/workloads.py) changes the requests, so the
    change that makes it updates these digests."""
    out = run_script("report_hashes.py", ["exact-cli", "1", "0-1"]).stdout
    assert out == (
        "exact-cli seed 1 cycle 0 requests 51 sha256 "
        "4a2e8d81d38c001d47a8cb7e9f27d41f04cab33758cf0e0f12c87606d5fd9a51\n"
        "exact-cli seed 1 cycle 1 requests 51 sha256 "
        "8254db0921a9fdd1e1f39b618199b3201dc48f1d4835d9b59b2fb94280326446\n")


def test_verify_digest_is_pinned():
    """`verify --suite all --seed 0` gives the same exit code, text and JSON
    report as before.  A change to a suite's checks or its report changes
    this digest, and the change that makes it updates the pin."""
    out = run_script("report_hashes.py", ["verify", "0"]).stdout
    assert out == ("verify seed 0 sha256 "
                   "664fbe981b2a6e41274b8043f00e2771594531f5ebdf7401014b7569b507fe99\n")


def import_report_hashes():
    sys.path.insert(0, os.path.join(ROOT, "scripts"))
    try:
        import report_hashes
    finally:
        sys.path.remove(os.path.join(ROOT, "scripts"))
    return report_hashes


# A float on a line of one of these fields is a residue: the largest
# |beta_m| entry of an order verdict, the largest inner product of an
# ortho test, or the largest cross form |<u, v>| of a decomposition.  Where the verdict says it vanishes it is a sum of rounding
# errors, whose size, not whose value, the float kernels fix: it may change
# by a factor of a few with the summation order of numpy and BLAS.  So a
# residue is pinned within a relative RESIDUE_DIGITS of its value, or, below
# NOISE (every residue above it here is 8 or more), within a factor of
# NOISE_FACTOR.  Every other field, floats included (tol, witness entries),
# is pinned byte for byte.
RESIDUE = re.compile(r'((?:residual|max_re_inner|max_abs_inner|pairwise_gram)"?: )([-+.\w]+)')
RESIDUE_DIGITS, NOISE, NOISE_FACTOR = 1e-9, 1e-3, 100.0


def residue_matches(got, want):
    if abs(got - want) <= RESIDUE_DIGITS * abs(want):
        return True
    return 0 < want / NOISE_FACTOR <= got <= want * NOISE_FACTOR and max(got, want) < NOISE


def float_cycle_outputs(reqs, workdir):
    """(SHA-256 hex digest, residues) of the requests' outputs: the digest of
    report_hashes.requests_hash with every RESIDUE float masked, and those
    floats in order."""
    report_hashes = import_report_hashes()
    h, residues = hashlib.sha256(), []
    for req in reqs:
        rc, out, err, report = report_hashes.run_request(req, workdir)
        for part in (str(rc), out, err, report.decode()):
            part = part.replace(workdir, "{dir}")
            residues += [float(x) for _, x in RESIDUE.findall(part)]
            h.update(RESIDUE.sub(r"\1{residue}", part).encode() + b"\0")
    return h.hexdigest(), residues


def check_float_cycle_pin(tmp_path, command, count, specs_digest, output_digest, residues):
    """The `command` requests of float-cli cycle 0 at seed 1: first the
    digest of their spec files, then that of their outputs, every field but
    the residues byte for byte, and the residues as residue_matches says."""
    report_hashes = import_report_hashes()
    reqs = [req for req in report_hashes.workloads.cycle_requests("float-cli", 1, 0)
            if req.argv[0] == command]
    assert len(reqs) == count
    specs = hashlib.sha256(b"".join(json.dumps(req.files, sort_keys=True).encode() + b"\0"
                                    for req in reqs))
    assert specs.hexdigest() == specs_digest
    digest, got = float_cycle_outputs(reqs, str(tmp_path))
    assert digest == output_digest
    assert len(got) == len(residues) and all(map(residue_matches, got, residues))


# The residues of the order reports of float-cli cycle 0 at seed 1, one per
# verdict, each in the stdout and then in the JSON report
ORDER_RESIDUES = [x for x in (
    5.077507628578281e-14, 3.722338084989128e-09, 1.1212864509180864e-09, 1.3694469374460493e-12,
    3.150872547542828e-10, 1.1157603309187458e-15, 9.930136612989092e-15, 4.440892098500626e-16,
    2.423541553927518e-12, 9.695436083472321e-08, 1.999559829390212e-12, 1.0772060116306953e-15,
    81.92147137129956, 7.620249989939433e-07, 122.68585596507904, 196.48978343208196)
    for _ in range(2)]
# the max_re_inner and max_abs_inner of the ortho reports, in the stdout
# and then in the JSON report: of the forms <beta_k h1, h2> on the three
# certified Jordan sums, of the orbit window on the two sheared operators
ORTHO_RESIDUES = [x for pair in (
    (2.5579538487363607e-13, 4.160165522166735e-13), (507.9999999988495, 510.0784253414004),
    (9.556950026766031e-16, 9.823482369425432e-16), (8.000000000000002, 8.944271909999228),
    (1.4143097798955346e-13, 1.4266038867303845e-13)) for x in pair * 2]


def test_float_cli_order_digest_is_pinned(tmp_path):
    """The order requests of float-cli cycle 0 at seed 1 (16 of its 37) give
    the same bytes as before: exit codes, stdout, stderr and JSON reports,
    the residues within residue_matches of theirs.  Their input matrices
    come from the benchmark, which conjugates each block by a random
    unitary made with numpy's QR and matmul, so the digest of the spec files
    is pinned first, and a numpy build that rounds those differently fails
    there, not on the output.  A change to the benchmark's request mix
    changes the requests, so the change that makes it updates the pins."""
    check_float_cycle_pin(
        tmp_path, "order", 16,
        "71583d2c9284ce6081900991643cf0a229e3d2fe07a587f52352f38be2391a8d",
        "96143959d2aebc314aa8dd482ad0a7bb905d991f3f6509936376cec18ac3a882", ORDER_RESIDUES)


@pytest.mark.parametrize("command,count,specs_digest,output_digest,residues", [
    ("ortho", 5, "8ac595838fe0e47b738ac8cb6bcd058433d3e287d5da7e2f84aad8d5bacb5bc3",
     "5e88f44e2f12516861883f8da1964ae8d868a8d4594a8400696b4e5687ea49b9", ORTHO_RESIDUES),
    ("perturb", 3, "a2851916df5b5b311b12b5afa8c542b44019c0d9f252bb16e8b7b9e59e1e0f12",
     "78b68629c0e8092794a45e837039324da7473e09f0df7f4406b00256c990585f", []),
])
def test_float_cli_window_digests_are_pinned(tmp_path, command, count, specs_digest,
                                             output_digest, residues):
    """The ortho and perturb requests of float-cli cycle 0 at seed 1 give the
    same bytes as before, the residues within residue_matches of theirs.
    Both read orbit windows (the ortho inner products, the perturb
    strictness criterion) and make no LAPACK call; as for order, the spec
    files are pinned first."""
    check_float_cycle_pin(tmp_path, command, count, specs_digest, output_digest, residues)


# the pairwise_gram of the decompose reports, in the stdout and then in
# the JSON report: 0.0 for the one-block operator, 0.55 for the operator
# whose blocks are not orthogonal
DECOMPOSE_RESIDUES = [x for x in (
    3.4612841490267523e-16, 0.0, 0.5476743731545144, 2.220717083251841e-16,
    2.2678854137820732e-15, 3.908020529499657e-16, 6.877494940346309e-15,
    1.1113866311395349e-14, 7.468261590855957e-16) for _ in range(2)]


def test_float_cli_decompose_digest_is_pinned(tmp_path):
    """The decompose requests of float-cli cycle 0 at seed 1 (9 of its 37)
    give the same bytes as before: eigenvalues, blocks, failures, warnings,
    exit codes, stdout and stderr, the pairwise_gram residues within
    residue_matches of theirs.  Decompose calls numpy's eigvals and the SVD,
    so beyond the spec files' digest the pin holds on one numpy and LAPACK
    build: another build may round an eigenvalue or a basis differently."""
    check_float_cycle_pin(
        tmp_path, "decompose", 9,
        "1045642ef2527e3fdcfe0b265b66dd264e0ac26f7f490a1d816fbc470d49b78d",
        "27d03d6f297dbbee54fc5831e2aed780120288222904469182a37b8c85e58c66",
        DECOMPOSE_RESIDUES)


@pytest.mark.parametrize("seed,cycle", [(2, 1), (2, 3), (3, 3)])
def test_float_ortho_of_a_large_block_agrees_with_theory(tmp_path, seed, cycle):
    """The float ortho/jordan/12 requests whose window walk disagreed with
    theory: a block of size 10-11 beside a size-1 block, whose rounding
    leaked across faster than the threshold grew.  Their operators have a
    strict order, so the verdict is read from the defect forms, and the
    benchmark's oracle finds no fault in it."""
    report_hashes = import_report_hashes()
    reqs = [req for req in report_hashes.workloads.cycle_requests("float-cli", seed, cycle)
            if req.slot == "ortho/jordan/12"]
    assert reqs
    for req in reqs:
        rc, _, _, report = report_hashes.run_request(req, str(tmp_path))
        assert report_hashes.workloads.check(req, rc, json.loads(report)) is None


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
