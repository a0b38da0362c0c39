"""CLI contract: spec parsing, report determinism, exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from misolab import parse_operator_spec, serialize_operator_spec
from misolab.cli import _build_parser, main
from misolab.diffcalc import DEFAULT_FLOAT_TOL
from misolab.errors import SpecFileError
from misolab.isometry import DEFAULT_DEFECT_TOL
from misolab.specio import format_rational, parse_rational
from misolab.suites import SUITES, SuiteResult, random_unitary

EXAMPLE_DOC = {
    "mode": "exact",
    "matrix": [["0+1i", "2"], ["0", "0-1i"]],
    "eigen_hints": ["0+1i", "0-1i"],
}


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        assert parse_operator_spec(doc2).document == doc2

    def test_jordan_spec_derives_hints(self):
        doc = {"mode": "exact",
               "jordan_blocks": [{"z": "0+1i", "size": 2}, {"z": "1", "size": 1}]}
        spec = parse_operator_spec(doc)
        assert spec.operator.dim == 3
        assert [format_rational(h) for h in spec.eigen_hints] == ["0+1i", "1"]
        doc2 = serialize_operator_spec(spec)
        assert parse_operator_spec(doc2).document == doc2

    def test_shift_spec(self):
        doc = {"mode": "exact", "shift": {"polynomial": ["1", "1"], "prefix": 16}}
        spec = parse_operator_spec(doc)
        doc2 = serialize_operator_spec(spec)
        assert parse_operator_spec(doc2).document == doc2

    def test_float_spec(self):
        doc = {"mode": "float", "matrix": [[[0.0, 1.0], [2.0, 0.0]],
                                           [[0.0, 0.0], [0.0, -1.0]]]}
        spec = parse_operator_spec(doc)
        assert spec.mode == "float"

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

    def test_mmax_zero_is_3(self, tmp_path, capsys):
        path = write(tmp_path, "e.json", EXAMPLE_DOC)
        assert main(["order", path, "--mmax", "0"]) == 3
        assert "m_max must be at least 1" in capsys.readouterr().err

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


class TestSeedHandling:
    def test_env_overrides_flag(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("MISOLAB_SEED", "99")
        out = tmp_path / "rep.json"
        assert main(["verify", "--suite", "shift-factory", "--seed", "1",
                     "--output", str(out)]) == 0
        capsys.readouterr()
        assert json.loads(out.read_text())["parameters"]["seed"] == 99

    def test_bad_env_seed_is_parse_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MISOLAB_SEED", "seven")
        assert main(["verify", "--suite", "shift-factory"]) == 2
        capsys.readouterr()


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
    ])
    def test_parse_error_is_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["order", str(path)]) == 2
        assert message in capsys.readouterr().err


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
    # (T - zI)^2 leaves float range; numpy's overflow warnings from the
    # power reached stderr ahead of the error line.  A fresh interpreter
    # shows warnings as a user sees them, which pytest's capture would hide.
    path = write(tmp_path, "d.json", {"mode": "float",
                                      "matrix": [[1e200, 1e200, 0], [0, 1e200, 1], [0, 0, 1]]})
    env = dict(os.environ, PYTHONWARNINGS="default")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-m", "misolab.cli", "decompose", path],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3
    assert proc.stderr == "error: float overflow: a power of T - zI left float range\n"


def test_inseparable_float_clusters_are_3(tmp_path, capsys):
    # a unitary conjugation of J_8(1) + (1.05): in (T - zI)^8 the 1.05
    # direction is 0.05^8 ~ 4e-11, below the kernel tolerance, so no
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
    assert _build_parser().parse_args(argv).tol == tol
