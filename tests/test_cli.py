"""CLI contract: spec parsing, report determinism, exit codes."""

import inspect
import json
import os
import subprocess
import sys
import textwrap
import time
from fractions import Fraction

import numpy as np
import pytest

from misolab import diffcalc, isometry, shifts, spectral, suites
from misolab import Polynomial, Scalar, parse_operator_spec, serialize_operator_spec
from misolab.cli import _command_parsers, _parse_args, main
from misolab.diffcalc import DEFAULT_FLOAT_TOL
from misolab.errors import SpecFileError
from misolab.isometry import DEFAULT_DEFECT_TOL
from misolab.specio import format_rational, parse_rational
from misolab.suites import SUITES, SuiteResult, conjugate_by_unitary, random_unitary

EXAMPLE_DOC = {
    "mode": "exact",
    "matrix": [["0+1i", "2"], ["0", "0-1i"]],
    "eigen_hints": ["0+1i", "0-1i"],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def fresh_interpreter_env(**extra):
    """The environment of a fresh interpreter that imports misolab from this
    checkout's src."""
    env = dict(os.environ, **extra)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class TestRationalGrammar:
    def test_parse_format_roundtrip(self):
        for text in ["0", "-3", "1/2", "-7/3", "2+1i", "0-1i", "3/5+4/5i", "-1/2-3i"]:
            assert format_rational(parse_rational(text)) == text

    def test_rejects_malformed(self):
        for text in ["", "1 + 2i", "i", "1/0x", "2.5", "+3"]:
            with pytest.raises(SpecFileError):
                parse_rational(text)


class TestSpecRoundTrip:
    def test_matrix_spec(self):
        spec = parse_operator_spec(EXAMPLE_DOC)
        doc2 = serialize_operator_spec(spec)
        assert serialize_operator_spec(parse_operator_spec(doc2)) == doc2

    def test_jordan_spec_derives_hints(self):
        doc = {"mode": "exact",
               "jordan_blocks": [{"z": "0+1i", "size": 2}, {"z": "1", "size": 1}]}
        spec = parse_operator_spec(doc)
        assert spec.operator.dim == 3
        assert [format_rational(h) for h in spec.eigen_hints] == ["0+1i", "1"]
        doc2 = serialize_operator_spec(spec)
        assert serialize_operator_spec(parse_operator_spec(doc2)) == doc2

    def test_shift_spec(self):
        doc = {"mode": "exact", "shift": {"polynomial": ["1", "1"], "prefix": 16}}
        spec = parse_operator_spec(doc)
        doc2 = serialize_operator_spec(spec)
        assert serialize_operator_spec(parse_operator_spec(doc2)) == doc2

    def test_shift_spec_keeps_its_generator(self):
        doc = {"mode": "exact", "shift": {"polynomial": ["1", "1/2", "0"], "prefix": 16}}
        spec = parse_operator_spec(doc)
        assert spec.generator == Polynomial([Scalar.exact(1), Scalar.exact(Fraction(1, 2))])
        assert parse_operator_spec(EXAMPLE_DOC).generator is None

    def test_float_spec(self):
        doc = {"mode": "float", "matrix": [[[0.0, 1.0], [2.0, 0.0]],
                                           [[0.0, 0.0], [0.0, -1.0]]]}
        spec = parse_operator_spec(doc)
        assert spec.mode == "float"

    def test_canonical_document_round_trips(self):
        assert serialize_operator_spec(parse_operator_spec(EXAMPLE_DOC)) == EXAMPLE_DOC

    def test_exactly_one_operator_key(self):
        with pytest.raises(SpecFileError):
            parse_operator_spec({"mode": "exact", "matrix": [["1"]],
                                 "shift": {"polynomial": ["1"]}})

    def test_nonsquare_rejected(self):
        with pytest.raises(SpecFileError):
            parse_operator_spec({"mode": "exact", "matrix": [["1", "2"]]})


class TestCommands:
    def test_order_strict(self, tmp_path, capsys):
        path = write(tmp_path, "j.json",
                     {"mode": "exact", "jordan_blocks": [{"z": "1", "size": 2}]})
        assert main(["order", path]) == 0
        out = capsys.readouterr().out
        assert "strict-order" in out and "m: 3" in out

    def test_order_window_lengths(self, tmp_path):
        # J_2(1) has strict order 3: from 4 samples on the degrees are read
        # from beta, and on 3 the window of e_1 is too short for degree 2
        path = write(tmp_path, "j.json", {"mode": "exact", "matrix": [["1", "1"], ["0", "1"]]})
        degrees = {}
        for window in ("2", "3", "4", "14"):
            out = tmp_path / f"w{window}.json"
            code = main(["order", path, f"--window={window}", f"--output={out}"])
            degrees[window] = code, code == 0 and json.loads(out.read_text())["basis_orbit_degrees"]
        assert degrees == {
            "2": (3, False),
            "3": (0, ["polynomial(degree=0)", "not-polynomial-within-window"]),
            "4": (0, ["polynomial(degree=0)", "polynomial(degree=2)"]),
            "14": (0, ["polynomial(degree=0)", "polynomial(degree=2)"])}

    def test_order_on_a_long_float_window(self, tmp_path):
        # 20000 samples of ||T^n e_2||^2 = 4^-n, walked into one array and
        # differenced in blocks: about 31 rows of the table are made, not
        # 20000 (a full table would take 3.2 GB)
        path = write(tmp_path, "d.json", {"mode": "float", "matrix": [[1.0, 0.0], [0.0, 0.5]]})
        out = tmp_path / "r.json"
        start = time.perf_counter()
        assert main(["order", path, "--window", "20000", f"--output={out}"]) == 0
        assert time.perf_counter() - start < 1.0
        report = json.loads(out.read_text())
        assert report["verdict"] == {"kind": "not-within-bound", "m": 5, "witness": None,
                                     "residual": 0.2373046875}
        assert report["basis_orbit_degrees"] == ["polynomial(degree=0)",
                                                 "polynomial(degree=22)"]

    def test_order_not_within_bound(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", EXAMPLE_DOC)
        assert main(["order", path, "--mmax", "9"]) == 0
        out = capsys.readouterr().out
        assert "not-within-bound" in out and "m: 9" in out

    def test_decompose(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", EXAMPLE_DOC)
        assert main(["decompose", path]) == 0
        assert "certified: False" in capsys.readouterr().out

    def test_shift(self, tmp_path, capsys):
        path = write(tmp_path, "s.json",
                     {"mode": "exact", "shift": {"polynomial": ["1", "1"]}})
        assert main(["shift", path, "--m", "2"]) == 0
        assert "is_m_isometry: True" in capsys.readouterr().out

    def test_float_shift_with_huge_coefficients(self, tmp_path, capsys):
        # p(n) = 1e300 (1 + n + n^2): |p(n)|^2 overflows, while each weight
        # p(n+1)/p(n) is at most 3
        path = write(tmp_path, "s.json", {"mode": "float", "shift": {
            "polynomial": [1e300, 1e300, 1e300], "prefix": 32}})
        assert main(["shift", path, "--m", "3"]) == 0
        assert "is_m_isometry: True" in capsys.readouterr().out
        assert main(["shift", path, "--m", "2"]) == 0
        assert "is_m_isometry: False" in capsys.readouterr().out

    def test_ortho(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", EXAMPLE_DOC)
        code = main(["ortho", path, "--h1", "1,0", "--h2", "0+1i,1",
                     "--z1", "i", "--z2=-i"])
        assert code == 0
        out = capsys.readouterr().out
        assert "re_only: True" in out and "agrees_with_theory: True" in out

    def test_perturb(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"mode": "exact", "matrix": [["1", "0"], ["0", "1"]]})
        n = write(tmp_path, "n.json",
                  {"mode": "exact", "matrix": [["0", "1"], ["0", "0"]]})
        assert main(["perturb", a, n]) == 0
        out = capsys.readouterr().out
        assert "order_bound: 3" in out and "strict_at_bound: True" in out

    def test_exact_perturb_beyond_float_range(self, tmp_path, capsys):
        # N = 10^200 S, S the 2 x 2 shift: the defects of J_2(1) + N hold
        # integers past float range, and the exact cross-checks stay in them
        a = write(tmp_path, "a.json", {"mode": "exact", "jordan_blocks": [{"z": "1", "size": 2}]})
        n = write(tmp_path, "n.json",
                  {"mode": "exact", "matrix": [["0", str(10 ** 200)], ["0", "0"]]})
        out = tmp_path / "r.json"
        assert main(["perturb", a, n, f"--output={out}"]) == 0
        capsys.readouterr()
        perturb = json.loads(out.read_text())["perturbation"]
        assert (perturb["base_order"], perturb["nilpotency_index"], perturb["order_bound"],
                perturb["bound_verified"]) == (3, 2, 5, True)

    def test_exact_report_is_byte_identical(self, tmp_path, capsys):
        path = write(tmp_path, "j.json",
                     {"mode": "exact", "jordan_blocks": [{"z": "0+1i", "size": 2}]})
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["order", path, "--output", str(out1)]) == 0
        assert main(["order", path, "--output", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()
        report = json.loads(out1.read_text())
        assert report["verdict"]["kind"] == "strict-order"
        assert report["verdict"]["m"] == 3

    def test_order_witness_is_first_best_polarization_candidate(self, tmp_path, capsys):
        # J(1, 2) conjugated by the rotation with cos 3/5, sin 4/5: the
        # largest <beta_2 h, h> is first reached at h = e0 + i e1
        path = write(tmp_path, "r.json",
                     {"mode": "exact",
                      "matrix": [["13/25", "9/25"], ["-16/25", "37/25"]]})
        out = tmp_path / "r.json.out"
        assert main(["order", path, "--output", str(out)]) == 0
        capsys.readouterr()
        verdict = json.loads(out.read_text())["verdict"]
        assert verdict == {"kind": "strict-order", "m": 3, "witness": ["1", "0+1i"]}


class TestExitCodes:
    def test_parse_error_is_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["order", str(bad)]) == 2
        capsys.readouterr()

    def test_precondition_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "d.json",
                     {"mode": "exact", "matrix": [["1", "0"], ["0", "-1"]]})
        code = main(["ortho", path, "--h1", "1,0", "--h2", "1,1",
                     "--z1", "1", "--z2=-1"])
        assert code == 3
        capsys.readouterr()

    def test_ortho_flag_errors_are_2(self, tmp_path, capsys):
        flt = write(tmp_path, "f.json", {"mode": "float", "matrix": [
            [[0.0, 1.0], [2.0, 0.0]], [[0.0, 0.0], [0.0, -1.0]]]})
        pair = ["--h1", "1,0", "--h2", "0+1i,1", "--z2=-i"]
        assert main(["ortho", flt, *pair, "--z1", "abc"]) == 2
        assert "abc" in capsys.readouterr().err

    def test_ortho_on_a_shift_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "s.json", {"mode": "exact", "shift": {"polynomial": ["1", "1"]}})
        assert main(["ortho", path, "--h1", "1,0", "--h2", "0,1", "--z1", "1", "--z2=-1"]) == 3
        assert "ortho needs a dense operator spec" in capsys.readouterr().err

    def test_shift_positive_only_on_the_prefix_is_0(self, tmp_path, capsys):
        # p(n) = 3 - 2n + n^2 is positive, but Delta p(0) = -1, so its
        # Newton coefficients certify nothing beyond the checked prefix
        path = write(tmp_path, "s.json",
                     {"mode": "exact", "shift": {"polynomial": ["3", "-2", "1"]}})
        assert main(["shift", path, "--m", "3"]) == 0
        out = capsys.readouterr().out
        assert "is_m_isometry: True" in out
        assert "generator positivity verified only on the prefix" in out

    def test_mmax_zero_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", EXAMPLE_DOC)
        assert main(["order", path, "--mmax", "0"]) == 3
        assert "m_max must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("mode, polynomial", [("exact", ["1", "1"]), ("float", [1.0, 1.0])])
    @pytest.mark.parametrize("window", ["3", "1"])
    def test_order_on_a_shift_refuses_window_with_3(self, tmp_path, capsys, mode, polynomial,
                                                    window):
        path = write(tmp_path, "s.json", {"mode": mode, "shift": {"polynomial": polynomial}})
        assert main(["order", path, "--window", window]) == 3
        assert capsys.readouterr().err == "error: order on a shift spec takes no --window\n"

    def test_suite_violation_is_4(self, capsys, monkeypatch):
        def failing(seed):
            return SuiteResult("stub", False, 1, ("forced failure",))

        monkeypatch.setitem(SUITES, "stub", failing)
        assert main(["verify", "--suite", "stub"]) == 4
        capsys.readouterr()

    def test_verify_pass_is_0(self, capsys):
        assert main(["verify", "--suite", "shift-factory"]) == 0
        assert "pass" in capsys.readouterr().out

    def test_unknown_suite_is_2(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        capsys.readouterr()

    def test_unknown_suite_message_is_plain(self, capsys):
        # the message itself, not the repr that str() of a KeyError gives
        assert main(["verify", "--suite", "nope"]) == 2
        assert capsys.readouterr().err == (
            f"error: unknown suite 'nope'; available: {', '.join(sorted(SUITES))}\n")


# order on a shift spec reads the least m <= --mmax at which shift --m m
# reads true, at the --tol its report echoes: no hidden floor under it
@pytest.mark.parametrize("tol", [["--tol", "0"], ["--tol", "1e-12"], []],
                         ids=["tol-0", "tol-1e-12", "default"])
@pytest.mark.parametrize("polynomial", [[1.0, 1.0], [1.0, 2.0, 1.0], [3.0, 2.0]],
                         ids=["1,1", "1,2,1", "3,2"])
def test_shift_order_is_the_least_m_shift_reads_true(tmp_path, capsys, polynomial, tol):
    path = write(tmp_path, "s.json", {"mode": "float", "shift": {"polynomial": polynomial}})
    out = tmp_path / "r.json"
    assert main(["order", path, f"--output={out}", *tol]) == 0
    report = json.loads(out.read_text())
    reads = []
    for m in range(1, 9):
        assert main(["shift", path, "--m", str(m), f"--output={out}", *tol]) == 0
        reads.append(json.loads(out.read_text())["shift"]["is_m_isometry"])
    capsys.readouterr()
    assert report["parameters"]["tol"] == (float(tol[1]) if tol else DEFAULT_DEFECT_TOL)
    assert report["verdict"] == ({"kind": "shift-order", "m": reads.index(True) + 1}
                                 if True in reads else {"kind": "not-within-bound", "m": 8})
    if tol != ["--tol", "0"]:
        assert True in reads


FLOAT_EXAMPLE_DOC = {"mode": "float", "matrix": [[[0.0, 1.0], [2.0, 0.0]],
                                                 [[0.0, 0.0], [0.0, -1.0]]]}
ORTHO_FLAGS = ["--h1", "1,0", "--h2", "0+1i,1", "--z1", "i", "--z2=-i"]


# the report file is json.dumps(report, indent=2) and a newline: ASCII,
# two-space indents, in every command and mode
@pytest.mark.parametrize("argv, docs", [
    pytest.param(["order", "{t}"], {"t": {"mode": "exact", "jordan_blocks": [
        {"z": "0+1i", "size": 2}]}}, id="order-exact"),
    pytest.param(["order", "{t}"], {"t": FLOAT_EXAMPLE_DOC}, id="order-float"),
    pytest.param(["order", "{t}"], {"t": {"mode": "exact", "shift": {"polynomial": ["1", "1"]}}},
                 id="order-shift-exact"),
    pytest.param(["order", "{t}"], {"t": {"mode": "float", "shift": {"polynomial": [1.0, 1.0]}}},
                 id="order-shift-float"),
    pytest.param(["decompose", "{t}"], {"t": EXAMPLE_DOC}, id="decompose-exact"),
    pytest.param(["decompose", "{t}"], {"t": FLOAT_EXAMPLE_DOC}, id="decompose-float"),
    pytest.param(["shift", "{t}", "--m", "3"], {"t": {"mode": "exact", "shift": {
        "polynomial": ["3", "-2", "1"]}}}, id="shift-exact"),
    pytest.param(["shift", "{t}", "--m", "2"], {"t": {"mode": "float", "shift": {
        "polynomial": [1.0, 1.0]}}}, id="shift-float"),
    pytest.param(["ortho", "{t}", *ORTHO_FLAGS], {"t": EXAMPLE_DOC}, id="ortho-exact"),
    pytest.param(["ortho", "{t}", *ORTHO_FLAGS], {"t": FLOAT_EXAMPLE_DOC}, id="ortho-float"),
    pytest.param(["perturb", "{a}", "{n}"], {
        "a": {"mode": "exact", "matrix": [["1", "0"], ["0", "1"]]},
        "n": {"mode": "exact", "matrix": [["0", "1"], ["0", "0"]]}}, id="perturb-exact"),
    pytest.param(["perturb", "{a}", "{n}"], {
        "a": {"mode": "float", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "n": {"mode": "float", "matrix": [[0.0, 1.0], [0.0, 0.0]]}}, id="perturb-float"),
    pytest.param(["verify", "--suite", "shift-factory"], {}, id="verify"),
])
def test_report_file_is_json_dumps_text(tmp_path, capsys, argv, docs):
    paths = {name: write(tmp_path, f"{name}.json", doc) for name, doc in docs.items()}
    out = tmp_path / "r.json"
    assert main([a.format(**paths) for a in argv] + ["--output", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text.isascii()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


def test_seed_flag_reaches_the_report(capsys, tmp_path):
    out = tmp_path / "rep.json"
    assert main(["verify", "--suite", "shift-factory", "--seed", "99",
                 "--output", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["parameters"]["seed"] == 99


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "float-robustness", "--seed", "-1"],
    ["verify", "--suite", "all", "--seed=-1"],
    ["verify", "--suite", "shift-factory", "--seed", "-7"],
])
def test_negative_seed_is_2(capsys, argv):
    # numpy's default_rng refused it in the float-robustness suite: a
    # ValueError traceback, exit 1
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if "error:" in line] == [
        f"misolab verify: error: argument --seed: seed must be >= 0, got {argv[-1][-2:]!r}"]


LONG = "x" * 3000


@pytest.mark.parametrize("flags", [
    pytest.param(["order", "{spec}", "--tol", LONG], id="order-tol"),
    pytest.param(["order", "{spec}", "--tol", "1" * 3000], id="order-tol-number"),
    pytest.param(["order", "{spec}", "--mmax", LONG], id="order-mmax"),
    pytest.param(["order", "{spec}", "--mmax", "9" * 5000], id="order-mmax-digits"),
    pytest.param(["order", "{spec}", "--window", LONG], id="order-window"),
    pytest.param(["shift", "{shift}", "--m", LONG], id="shift-m"),
    pytest.param(["verify", "--suite", LONG], id="verify-suite"),
    pytest.param(["verify", "--suite", "shift-factory", "--seed", LONG], id="verify-seed"),
])
def test_long_flag_value_is_shortened(tmp_path, capsys, flags):
    # each was echoed whole: a stderr line of 3-5 KB
    paths = {"spec": write(tmp_path, "e.json", EXAMPLE_DOC),
             "shift": write(tmp_path, "s.json", {"mode": "exact",
                                                 "shift": {"polynomial": ["1", "1"]}})}
    try:
        code = main([flag.format(**paths) if flag.startswith("{") else flag for flag in flags])
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and all(len(line) < 200 for line in err.splitlines())


class TestSpecRejection:
    """Malformed specs exit 2 with a message, never with a traceback."""

    @pytest.mark.parametrize("text,message", [
        pytest.param('{"mode": "float", "matrix": [[NaN, 0], [0, 1]]}', "not finite",
                     id="float-nan"),
        pytest.param('{"mode": "float", "matrix": [[1e999, 0], [0, 1]]}', "not finite",
                     id="float-inf"),
        pytest.param('{"mode": "float", "matrix": [[1%s, 0], [0, 1]]}' % ("0" * 400),
                     "beyond float range", id="float-int-overflow"),
        pytest.param('{"mode": "exact", "jordan_blocks": [{"size": 2}]}', '"z"',
                     id="jordan-block-without-z"),
        pytest.param('{"mode": "exact", "jordan_blocks": [[3]]}', '"z"',
                     id="jordan-block-not-object"),
        pytest.param('{"mode": "exact", "jordan_blocks": 5}', '"jordan_blocks" must be',
                     id="jordan-blocks-not-list"),
        pytest.param('{"mode": "exact", "matrix": 5}', '"matrix" must be',
                     id="matrix-not-list"),
        pytest.param('{"mode": "exact", "matrix": ["12", "34"]}', "matrix row must be",
                     id="matrix-row-string"),
        pytest.param('{"mode": "exact", "matrix": [["1"]], "eigen_hints": 3}',
                     '"eigen_hints" must be', id="eigen-hints-number"),
        pytest.param('{"mode": "exact", "matrix": [["1"]], "eigen_hints": "12"}',
                     '"eigen_hints" must be', id="eigen-hints-string"),
        pytest.param('{"mode": "exact", "shift": 5}', '"shift" must be',
                     id="shift-not-object"),
        pytest.param('{"mode": "exact", "shift": {"polynomial": 5}}', '"polynomial" must be',
                     id="shift-polynomial-not-list"),
        # Python reads JSON true and false as the ints 1 and 0
        pytest.param('{"mode": "exact", "matrix": [[true]]}', "bad scalar entry True",
                     id="exact-bool"),
        pytest.param('{"mode": "exact", "matrix": [[[1, false]]]}', "must be integers",
                     id="exact-bool-pair"),
        pytest.param('{"mode": "float", "matrix": [[false]]}', "bad scalar entry False",
                     id="float-bool"),
        pytest.param('{"mode": "float", "matrix": [[[true, 0.5]]]}', "bad float entry",
                     id="float-bool-pair"),
        pytest.param('{"mode": "exact", "jordan_blocks": [{"z": "1", "size": true}]}',
                     "size must be a positive integer", id="jordan-size-bool"),
        pytest.param('{"mode": "exact", "jordan_blocks": [{"z": true, "size": 2}]}',
                     "bad scalar entry True", id="jordan-z-bool"),
        pytest.param('{"mode": "float", "shift": {"polynomial": [true]}}',
                     "bad scalar entry True", id="shift-coefficient-bool"),
    ])
    def test_parse_error_is_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["order", str(path)]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    pytest.param({"mode": "exact", "matrix": [[list(range(3000))]]}, id="exact-entry"),
    pytest.param({"mode": "float", "matrix": [[[0.5] * 3000]]}, id="float-entry"),
    pytest.param({"mode": "exact", "jordan_blocks": [list(range(3000))]}, id="jordan-block"),
])
def test_long_offending_value_is_shortened(tmp_path, capsys, doc):
    # the message embedded the whole value: a stderr line of 15-17 KB
    assert main(["order", write(tmp_path, "long.json", doc)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err) < 200


# the grammar's denominators are positive: a zero one ended in a
# ZeroDivisionError traceback, exit 1, on every path that reads a rational
@pytest.mark.parametrize("doc,flags", [
    pytest.param({"mode": "exact", "matrix": [["1", "0"], ["0", "1/0"]]}, None,
                 id="matrix-entry"),
    pytest.param({"mode": "exact", "jordan_blocks": [{"z": "0+1/0i", "size": 2}]}, None,
                 id="jordan-z"),
    pytest.param({"mode": "exact", "shift": {"polynomial": ["1", "-3/0"]}}, None,
                 id="shift-polynomial"),
    pytest.param({**EXAMPLE_DOC, "eigen_hints": ["0+1i", "1/0"]}, None, id="eigen-hints"),
    pytest.param(EXAMPLE_DOC, {"--z2": "0-1/0i"}, id="ortho-z"),
    pytest.param(EXAMPLE_DOC, {"--h1": "1/0,0"}, id="ortho-h"),
])
def test_zero_denominator_is_2(tmp_path, capsys, doc, flags):
    path = write(tmp_path, "z.json", doc)
    argv = ["order", path]
    if flags is not None:
        flags = {"--h1": "1,0", "--h2": "0+1i,1", "--z1": "i", "--z2": "-i", **flags}
        argv = ["ortho", path, *(f"{k}={v}" for k, v in flags.items())]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: zero denominator in rational scalar ")
    assert err.count("\n") == 1


LONG = "1" * 5000   # past the interpreter's limit of 4300 digits for reading an int


# each ended in a traceback, exit 1: the int-string limit raised ValueError in
# the rational reader or inside json.load, bad UTF-8 raised UnicodeDecodeError,
# and Arabic-Indic digits passed for the grammar's ASCII ones (exit 0)
@pytest.mark.parametrize("text,z1", [
    pytest.param('{"mode": "exact", "matrix": [["%s"]]}' % LONG, None, id="long-rational"),
    pytest.param('{"mode": "exact", "matrix": [[%s]]}' % LONG, None, id="long-json-int"),
    pytest.param(json.dumps(EXAMPLE_DOC), LONG, id="long-z1"),
    pytest.param(b'{"mode": "exact", "matrix": [["1\xff"]]}', None, id="not-utf8"),
    pytest.param('{"mode": "exact", "matrix": [["\u0661/\u0662"]]}', None,
                 id="arabic-indic-entry"),
    pytest.param(json.dumps(EXAMPLE_DOC), "\u0661", id="arabic-indic-z1"),
    # a RecursionError out of the JSON scanner
    pytest.param('{"mode": "exact", "matrix": %s}' % ("[" * 100000 + "]" * 100000), None,
                 id="deeply-nested"),
])
def test_unreadable_spec_is_2(tmp_path, capsys, text, z1):
    path = tmp_path / "s.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    argv = ["order", str(path)]
    if z1 is not None:
        argv = ["ortho", str(path), "--h1=1,0", "--h2=0+1i,1", f"--z1={z1}", "--z2=-i"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert LONG[:100] not in err
    # the limit is named, not Python's advice for raising it
    assert "set_int_max_str_digits" not in err
    if LONG in str(text) or z1 == LONG:
        assert f"more than {sys.get_int_max_str_digits()} digits" in err


def test_spec_with_a_bom_is_refused_as_json_loads_refuses_it(tmp_path, capsys):
    text = "\ufeff" + json.dumps(EXAMPLE_DOC)
    path = tmp_path / "b.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(json.JSONDecodeError) as refusal:
        json.loads(text)
    assert main(["order", str(path)]) == 2
    assert capsys.readouterr().err == f"error: cannot read spec file {path}: {refusal.value}\n"


# each ended in a FileNotFoundError or IsADirectoryError traceback, exit 1
@pytest.mark.parametrize("argv, output, printed", [
    pytest.param(["order", "{spec}"], "missing/dir/x.json", "strict-order", id="order-missing-dir"),
    pytest.param(["order", "{spec}"], "", "strict-order", id="order-directory"),
    pytest.param(["verify", "--suite", "jordan-orders"], "missing/dir/x.json",
                 "pass  jordan-orders", id="verify-missing-dir"),
])
def test_unwritable_output_is_2(tmp_path, capsys, argv, output, printed):
    spec = write(tmp_path, "j.json", {"mode": "exact", "jordan_blocks": [{"z": "1", "size": 2}]})
    target = str(tmp_path / output)
    assert main([a.format(spec=spec) for a in argv] + ["--output", target]) == 2
    out, err = capsys.readouterr()
    assert printed in out
    assert err.startswith(f"error: cannot write report {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["order", "decompose"])
@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "1", "1e300"])
def test_tol_that_breaks_zero_tests_is_2(tmp_path, capsys, command, tol):
    # with --tol inf, or any tol >= 1, the float Jordan block J(1, 2)
    # passed as strict-order(1)
    path = write(tmp_path, "j.json", {"mode": "float", "matrix": [[1, 1], [0, 1]]})
    with pytest.raises(SystemExit) as exc:
        main([command, path, f"--tol={tol}"])
    assert exc.value.code == 2
    assert "tolerance must be a finite number >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--z1", "nan"), ("--z2", "-1e999"), ("--h1", "nan,0"), ("--h2", "0+1e999i,1"),
    ("--z2", "-inf"), ("--z1", "inf"), ("--h1", "infinity,0"),
    ("--h2", "0+infi,1"),
])
def test_non_finite_float_flag_is_2(tmp_path, capsys, flag, value):
    # --z1=nan passed the unimodularity check and exited 3, with "vector is
    # not in the claimed generalized eigenspace"; 1e999 reads as inf
    path = write(tmp_path, "f.json", {"mode": "float", "matrix": [[[0, 1], [2, 0]],
                                                                  [[0, 0], [0, -1]]]})
    flags = {"--h1": "1,0", "--h2": "0+1i,1", "--z1": "i", "--z2": "-i", flag: value}
    assert main(["ortho", path, *(f"{k}={v}" for k, v in flags.items())]) == 2
    assert f"float scalar {value.split(',')[0]!r} is not finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1,,0", "1,0,", ",1,0", "1, ,0", "", " "])
def test_empty_vector_entry_is_2(tmp_path, capsys, value):
    # the empty entries were dropped: 1,,0 and ,1,0 read as (1, 0) and exited 0
    path = write(tmp_path, "t.json", {"mode": "exact", "matrix": [["1", "0"], ["0", "-1"]]})
    argv = ["ortho", path, f"--h1={value}", "--h2=0,1", "--z1=1", "--z2=-1"]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: vector {value!r} has an empty entry\n"


@pytest.mark.parametrize("flag", ["--z1", "--h1"])
@pytest.mark.parametrize("value", ["\u0661", "1_0"])
def test_float_flag_outside_ascii_digits_is_2(tmp_path, capsys, flag, value):
    # complex() read --z1=\u0661 as 1 and --h1=1_0,0 as (10, 0), both exit 0
    path = write(tmp_path, "f.json", {"mode": "float", "matrix": [[[0, 1], [2, 0]],
                                                                  [[0, 0], [0, -1]]]})
    flags = {"--h1": "1,0", "--h2": "0+1i,1", "--z1": "i", "--z2": "-i",
             flag: value + (",0" if flag == "--h1" else "")}
    assert main(["ortho", path, *(f"{k}={v}" for k, v in flags.items())]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad float scalar {value!r}") and err.count("\n") == 1


def test_float_orbit_overflow_is_3(tmp_path, capsys):
    # ||T^n e_0||^2 = 1e60n leaves float range at n = 6
    path = write(tmp_path, "o.json", {"mode": "float", "matrix": [[1e30, 0], [0, 1]]})
    assert main(["order", str(path)]) == 3
    err = capsys.readouterr().err
    assert "overflow" in err and "n=6" in err


def test_float_strict_degrees_need_no_orbit_window(tmp_path, capsys):
    # ||T^n e_1||^2 = 1 + n^2 c^2 leaves float range at n = 11 of the window
    # of 12, while beta_0 .. beta_2 of this strict-order(3) block stay in it:
    # the degrees are read from them
    path = write(tmp_path, "j.json", {"mode": "float", "matrix": [[1, 1.265e153], [0, 1]]})
    out = tmp_path / "r.json"
    assert main(["order", path, f"--output={out}"]) == 0
    report = json.loads(out.read_text())
    assert report["verdict"]["kind"] == "strict-order" and report["verdict"]["m"] == 3
    assert report["basis_orbit_degrees"] == ["polynomial(degree=0)", "polynomial(degree=2)"]


def test_float_order_refuses_an_off_circle_sum_as_decompose_does(tmp_path, capsys):
    # J_12(i) (+) (1/2), conjugated once: beta_23 passes the zero test and
    # beta_22 is positive semidefinite, which read strict-order(23), while
    # decompose refuses the eigenvalue 1/2; |log |det T|| = log 2 refuses it
    # here too
    T = parse_operator_spec({"mode": "float", "jordan_blocks": [
        {"z": [0, 1], "size": 12}, {"z": 0.5, "size": 1}]}).operator
    T = conjugate_by_unitary(T, random_unitary(13, np.random.default_rng(0)))
    path = write(tmp_path, "o.json", {"mode": "float", "matrix": [
        [[x.re, x.im] for x in row] for row in T.rows]})
    out = tmp_path / "r.json"
    assert main(["order", path, f"--output={out}"]) == 0
    verdict = json.loads(out.read_text())["verdict"]
    assert (verdict["kind"], verdict["m"]) == ("not-within-bound", 27)
    assert main(["decompose", path]) == 0
    assert "eigenvalue 0.5-5.55112e-17i is not unimodular" in capsys.readouterr().out


def test_float_gram_overflow_is_3(tmp_path, capsys):
    # T*^2 T^2 = diag(1e400, 1) leaves float range; this ended in the
    # internal-check message "defect recurrence and binomial sum disagree"
    a = write(tmp_path, "a.json", {"mode": "float", "matrix": [[1e100, 0], [0, 1]]})
    n = write(tmp_path, "n.json", {"mode": "float", "matrix": [[0, 0], [0, 0]]})
    assert main(["perturb", a, n]) == 3
    err = capsys.readouterr().err
    assert "float overflow" in err and "disagree" not in err


def test_float_commutator_threshold_overflow_is_3(tmp_path, capsys):
    # AN - NA = diag(0, 1e160, -1e160) against tol |A| |N| = 1e312: an
    # infinite threshold passed the commutator test, and the error then
    # named N^2
    a = write(tmp_path, "a.json", {"mode": "float",
                                   "matrix": [[1e160, 0, 0], [0, 1, 1], [0, 0, 1]]})
    n = write(tmp_path, "n.json", {"mode": "float",
                                   "matrix": [[0, 0, 0], [0, 0, 0], [0, 1e160, 0]]})
    assert main(["perturb", a, n]) == 3
    err = capsys.readouterr().err
    assert "float overflow: the zero threshold of the commutator" in err


def test_float_ortho_threshold_follows_the_orbits(tmp_path):
    # the orbits of e0 and e1 keep norm 1 next to the eigenvalue 1e10; a
    # threshold of max(1, |T|)^40 = 1e400 left float range and exited 3
    path = write(tmp_path, "d.json", {"mode": "float",
                                      "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1e10]]})
    out = tmp_path / "r.json"
    assert main(["ortho", path, "--h1=1,0,0", "--h2=0,1,0", "--z1=1", "--z2=-1",
                 "--window=40", f"--output={out}"]) == 0
    report = json.loads(out.read_text())["orthogonality"]
    assert report["mixed_inner_vanishes"] and report["agrees_with_theory"]


def test_float_kernel_chain_overflow_prints_one_line(tmp_path):
    # the eigenvalue 2e308 leaves float range, and with it T - zI; numpy's
    # overflow warnings must not reach stderr ahead of the error line.  A
    # fresh interpreter shows warnings as a user sees them, which pytest's
    # capture would hide.
    path = write(tmp_path, "d.json", {"mode": "float",
                                      "matrix": [[1e308, 1e308], [1e308, 1e308]]})
    proc = subprocess.run([sys.executable, "-m", "misolab.cli", "decompose", path],
                          capture_output=True, text=True, timeout=120,
                          env=fresh_interpreter_env(PYTHONWARNINGS="default"))
    assert proc.returncode == 3
    assert proc.stderr == "error: float overflow: the kernel walk of T - zI left float range\n"


def test_float_kernel_chain_walks_past_huge_powers(tmp_path):
    # (T - zI)^2 leaves float range, and deciding on its powers exited 3;
    # the row walk never forms a power
    path = write(tmp_path, "d.json", {"mode": "float",
                                      "matrix": [[1e200, 1e200, 0], [0, 1e200, 1], [0, 0, 1]]})
    out = tmp_path / "r.json"
    assert main(["decompose", path, f"--output={out}"]) == 0
    blocks = json.loads(out.read_text())["decomposition"]["blocks"]
    assert [(b["eigenvalue"], b["dimension"], b["nilpotency_index"]) for b in blocks] == [
        ([1.0, 0.0], 1, 1), ([1e200, 0.0], 2, 2)]


def test_inseparable_float_clusters_are_3(tmp_path, capsys):
    # a unitary conjugation of J_8(1) + (1.05): T - 1.05 I has a singular
    # value of about 0.05^8 ~ 4e-11, below the kernel tolerance, so no
    # clustering radius up to max |lambda| gives consistent eigenspaces
    T = np.diag([1.0] * 8 + [1.05]) + np.diag([1.0] * 7 + [0.0], 1)
    u = random_unitary(9, np.random.default_rng(0))
    A = u @ T @ u.conj().T
    path = write(tmp_path, "d.json", {"mode": "float", "matrix": [
        [[z.real, z.imag] for z in row] for row in A.tolist()]})
    assert main(["decompose", path]) == 3
    assert capsys.readouterr().err == (
        "error: eigenvalue clustering never became consistent up to radius 1.05e+00: the "
        "tolerance cannot separate the generalized eigenspaces\n")


BIG = "1" + "0" * 310   # beyond float range


class TestExactEntriesBeyondFloatRange:
    """Exact mode decides zeros exactly and never converts an entry to float."""

    def test_order(self, tmp_path, capsys):
        path = write(tmp_path, "b.json",
                     {"mode": "exact", "matrix": [[BIG, "0"], ["0", "1"]]})
        assert main(["order", path]) == 0
        assert "not-within-bound" in capsys.readouterr().out

    def test_order_with_witness(self, tmp_path, capsys):
        path = write(tmp_path, "b.json",
                     {"mode": "exact", "matrix": [["1", BIG], ["0", "1"]]})
        assert main(["order", path]) == 0
        assert "strict-order" in capsys.readouterr().out

    def test_decompose_off_circle(self, tmp_path, capsys):
        path = write(tmp_path, "b.json",
                     {"mode": "exact", "matrix": [[BIG, "0"], ["0", "1"]],
                      "eigen_hints": [BIG, "1"]})
        assert main(["decompose", path]) == 0
        assert f"eigenvalue {BIG} is not unimodular" in capsys.readouterr().out

    def test_perturb(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  {"mode": "exact", "matrix": [["1", "0"], ["0", "1"]]})
        n = write(tmp_path, "n.json",
                  {"mode": "exact", "matrix": [["0", BIG], ["0", "0"]]})
        assert main(["perturb", a, n]) == 0
        out = capsys.readouterr().out
        assert "order_bound: 3" in out and "strict_at_bound: True" in out


@pytest.mark.parametrize("argv, tol", [
    (["order", "t.json"], DEFAULT_DEFECT_TOL),
    (["decompose", "t.json"], DEFAULT_DEFECT_TOL),
    (["perturb", "a.json", "n.json"], DEFAULT_DEFECT_TOL),
    (["shift", "s.json", "--m", "2"], DEFAULT_FLOAT_TOL),
    (["ortho", "t.json", "--h1", "1,0", "--h2", "0,1", "--z1", "1", "--z2", "-1"],
     DEFAULT_FLOAT_TOL),
    (["ortho", "t.json", "--h1", "1,0", "--h2", "0,1", "--z1", "1", "--z2", "-1",
      "--tol", "1e-3"], 1e-3),
])
def test_each_command_parser_holds_its_tol_default(argv, tol):
    assert _command_parsers()[0].parse_args(argv).tol == tol


def test_exact_commands_never_load_numpy(tmp_path):
    # tier-1 imports numpy before misolab, so only a fresh interpreter shows
    # that exact mode runs without it; a float order then loads it
    for name, doc in {"t.json": EXAMPLE_DOC,
                      "a.json": {"mode": "exact", "matrix": [["1", "0"], ["0", "1"]]},
                      "n.json": {"mode": "exact", "matrix": [["0", "1"], ["0", "0"]]},
                      "s.json": {"mode": "exact", "shift": {"polynomial": ["1", "1"]}},
                      "f.json": {"mode": "float", "matrix": [[1, 1], [0, 1]]}}.items():
        write(tmp_path, name, doc)
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from misolab.cli import main

        def numpy_loaded():
            return any(name.startswith("numpy.") for name in sys.modules)

        loaded = [numpy_loaded()]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in (
                ["order", "t.json"], ["decompose", "t.json"],
                ["ortho", "t.json", "--h1=1,0", "--h2=0+1i,1", "--z1=i", "--z2=-i"],
                ["perturb", "a.json", "n.json"], ["shift", "s.json", "--m=2"],
                ["verify", "--suite=jordan-orders"], ["verify", "--suite=shift-factory"])]
            loaded.append(numpy_loaded())
            codes.append(main(["order", "f.json"]))
        print(json.dumps({"codes": codes, "loaded": loaded + [numpy_loaded()]}))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          cwd=tmp_path, env=fresh_interpreter_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"codes": [0] * 8, "loaded": [False, False, True]}


def test_cli_import_loads_no_dataclasses_or_inspect():
    # the records are NamedTuples; dataclasses loaded inspect, ast and dis,
    # which nothing else on the CLI's import path needs
    script = ("import sys; before = set(sys.modules); import misolab.cli; "
              "print(sorted(({'dataclasses', 'inspect', 'ast', 'dis'} - before) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=fresh_interpreter_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("record", [
    diffcalc.DegreeVerdict, isometry.DefectOperator, isometry.OrderVerdict,
    isometry.SurveyResult, shifts.ShiftSpec, spectral.JordanSpec, spectral.NilpotentInfo,
    spectral.GeneralizedEigenspace, spectral.AlgebraicDecomposition,
    spectral.PerturbationResult, spectral.OrthoTestResult, spectral.JordanPairReport,
    suites.SuiteResult, suites.CorpusInstance,
    suites.PerturbationInstance,
], ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    fields = inspect.signature(record).parameters
    built = record(*[None] * len(fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(built, name, 0)


def parse_outcome(parse, argv, capsys):
    """The namespace parse(argv) gives, or its SystemExit code; and what it
    printed."""
    try:
        result = parse(argv)
    except SystemExit as exc:
        result = ("exit", exc.code)
    return result, *capsys.readouterr()


# _parse_args hands argv[1:] straight to a command's sub-parser: every
# namespace, message and exit code stays the top-level parser's
@pytest.mark.parametrize("argv", [
    ["order", "t.json", "--mmax", "5", "--window=7", "--tol", "1e-3", "--output", "r.json"],
    ["decompose", "t.json"],
    ["shift", "s.json", "--m", "2", "--tol=0"],
    ["ortho", "t.json", "--h1", "1,0", "--h2", "0,1", "--z1", "i", "--z2=-i", "--window", "9"],
    ["perturb", "a.json", "n.json", "--output=r.json"],
    ["verify", "--suite", "all", "--seed", "3", "--output", "r.json"],
    ["verify", "--suite=jordan-orders"],
    ["order", "--", "t.json"],
    ["-h"],
    ["order", "-h"],
    ["order"],
    ["perturb", "a.json"],
    ["shift", "s.json"],
    ["order", "t.json", "--bogus"],
    ["order", "t.json", "--bogus", "x", "u.json"],
    ["order", "t.json", "--out", "r.json"],
    ["order", "t.json", "--tol", "nan"],
    ["--tol", "1e-3", "order", "t.json"],
    ["nope", "t.json"],
    [],
], ids=lambda argv: " ".join(argv) or "empty")
def test_parse_args_is_the_top_level_parse(argv, capsys):
    assert parse_outcome(_parse_args, argv, capsys) == parse_outcome(
        _command_parsers()[0].parse_args, argv, capsys)
