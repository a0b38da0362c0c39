"""Command-line front end.

Commands: order, decompose, shift, ortho, perturb, verify.  Operators are
read from JSON spec files (see specio); reports go to stdout in a
human-readable form and, with --output PATH, to a JSON file.  Exact-mode
reports render every scalar in the rational grammar, so they are
byte-identical across runs.

Exit codes: 0 success, 2 parse error or a report path that cannot be
written, 3 domain precondition violation, 4 verification-suite violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import reprlib
import sys

from .diffcalc import DEFAULT_FLOAT_TOL, default_window_len
from .errors import MisolabError, PreconditionError, SpecFileError
from .isometry import DEFAULT_DEFECT_TOL, default_m_max, local_isometry_survey
from .matrices import DenseOperator, basis_vector
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, Scalar
from .shifts import (
    WeightedShiftOperator,
    newton_coefficients_nonnegative,
    shift_is_m_isometry,
)
from .specio import (
    load_spec_file,
    parse_entry,
    parse_rational,
    scalar_to_report,
)
from .spectral import ortho_test_generalized, perturbation_analysis, algebraic_decompose
from .suites import SUITES, run_all_suites, run_suite

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_SUITE = 4


# ---------------------------------------------------------------------------
# Flag-value parsing
# ---------------------------------------------------------------------------

_UNIT_ALIASES = {
    "1": (1, 0), "-1": (-1, 0), "i": (0, 1), "-i": (0, -1), "+i": (0, 1),
}


def _parse_scalar_flag(text, mode):
    text = text.strip()
    if text in _UNIT_ALIASES:
        re_, im_ = _UNIT_ALIASES[text]
        return Scalar.exact(re_, im_) if mode == EXACT else Scalar.flt(re_, im_)
    if mode == EXACT:
        return parse_rational(text)
    # complex() also reads non-ASCII digits and _ between digits
    if not text.isascii() or "_" in text:
        raise SpecFileError(
            f"bad float scalar {reprlib.repr(text)}: ASCII digits only, without '_'")
    try:
        # only a trailing i is the imaginary unit: inf and infinity keep theirs
        z = complex(text[:-1] + "j" if text.endswith("i") else text)
    except ValueError as exc:
        raise SpecFileError(f"bad float scalar {reprlib.repr(text)}") from exc
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise SpecFileError(f"float scalar {reprlib.repr(text)} is not finite")
    return Scalar.flt(z.real, z.imag)


def _parse_vector_flag(text, mode, dim):
    parts = text.split(",")
    if not all(p.strip() for p in parts):
        raise SpecFileError(f"vector {reprlib.repr(text)} has an empty entry")
    if len(parts) != dim:
        raise SpecFileError(
            f"vector {reprlib.repr(text)} has {len(parts)} entries, operator needs {dim}")
    return tuple(_parse_scalar_flag(p, mode) for p in parts)


def _tolerance(text):
    """--tol value: NaN, infinite, negative or >= 1 tolerances would make
    float zero tests confidently wrong (at tol >= 1 every one passes)."""
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and 0 <= tol < 1):
        raise argparse.ArgumentTypeError(
            f"tolerance must be a finite number >= 0 and < 1, got {reprlib.repr(text)}")
    return tol


def _integer(text):
    """An integer flag value, as int() reads it; its range is checked where
    it is used."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {reprlib.repr(text)}") from None


def _seed(text):
    """--seed value: an integer >= 0, as numpy's default_rng takes it."""
    seed = _integer(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {reprlib.repr(text)}")
    return seed


def _vector_out(v):
    return [scalar_to_report(s) for s in v] if v is not None else None


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

# one encoder for every report: json.dumps with indent=2 builds a new one per call
_ENCODER = json.JSONEncoder(indent=2)


def _write_json(report, output_path):
    """The report as indented JSON, in one write.  A path that cannot be
    written exits 2, after the human report."""
    text = _ENCODER.encode(report) + "\n"
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecFileError(f"cannot write report {output_path}: {exc}") from exc


def _emit(report, output_path):
    _print_human(report)
    if output_path:
        _write_json(report, output_path)


def _print_human(report):
    """The human report, in one write."""
    sys.stdout.write("".join(_human_lines(report, "", [])))


def _human_lines(report, prefix, out):
    """Append the human report's lines to out, and return out."""
    for key, value in report.items():
        if isinstance(value, dict):
            out.append(f"{prefix}{key}:\n")
            _human_lines(value, prefix + "  ", out)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            out.append(f"{prefix}{key}:\n")
            for idx, item in enumerate(value):
                out.append(f"{prefix}  [{idx}]\n")
                _human_lines(item, prefix + "    ", out)
        else:
            out.append(f"{prefix}{key}: {value}\n")
    return out


def _base_report(command, spec, params):
    return {
        "command": command,
        "mode": spec.mode if spec is not None else None,
        "parameters": params,
        "warnings": [],
    }


def _verdict_dict(v, mode):
    out = {
        "kind": "strict-order" if v.strict else "not-within-bound",
        "m": v.m,
        "witness": _vector_out(v.witness),
    }
    if mode == FLOAT:
        out["residual"] = v.residual
    return out


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_order(args):
    spec = load_spec_file(args.file)
    if isinstance(spec.operator, WeightedShiftOperator):
        W = spec.operator
        if args.window is not None:
            raise PreconditionError("order on a shift spec takes no --window")
        mmax = args.mmax if args.mmax is not None else 8
        if mmax < 1:
            raise PreconditionError("m_max must be at least 1")
        report = _base_report("order", spec, {"mmax": mmax, "tol": args.tol})
        found = None
        for m in range(1, mmax + 1):
            if shift_is_m_isometry(W, m, tol=args.tol):
                found = m
                break
        report["verdict"] = (
            {"kind": "shift-order", "m": found}
            if found is not None
            else {"kind": "not-within-bound", "m": mmax}
        )
        _emit(report, args.output)
        return EXIT_OK
    T = spec.operator
    mmax = args.mmax if args.mmax is not None else default_m_max(T)
    window = args.window if args.window is not None else default_window_len(T.dim)
    report = _base_report("order", spec, {"mmax": mmax, "tol": args.tol, "window": window})
    survey = local_isometry_survey(
        T, [basis_vector(T.dim, j, T.mode) for j in range(T.dim)],
        window_len=window, defect_tol=args.tol, m_max=mmax,
    )
    report["verdict"] = _verdict_dict(survey.global_verdict, T.mode)
    report["basis_orbit_degrees"] = [v.describe() for v in survey.per_vector]
    _emit(report, args.output)
    return EXIT_OK


def _cmd_decompose(args):
    spec = load_spec_file(args.file)
    if not isinstance(spec.operator, DenseOperator):
        raise PreconditionError("decompose needs a dense operator spec")
    T = spec.operator
    report = _base_report("decompose", spec, {"tol": args.tol})
    dec = algebraic_decompose(T, eigen_hints=spec.eigen_hints, tol=args.tol)
    report["warnings"] = list(dec.warnings)
    report["decomposition"] = {
        "certified": dec.certified,
        "failures": list(dec.failures),
        "predicted_strict_order": dec.predicted_strict_order,
        "blocks": [
            {
                "eigenvalue": scalar_to_report(b.eigenvalue),
                "dimension": b.dimension,
                "nilpotency_index": b.chain_depth,
            }
            for b in dec.blocks
        ],
    }
    if T.mode == FLOAT:
        report["decomposition"]["pairwise_gram"] = dec.pairwise_gram
    _emit(report, args.output)
    return EXIT_OK


def _cmd_shift(args):
    spec = load_spec_file(args.file)
    if not isinstance(spec.operator, WeightedShiftOperator):
        raise PreconditionError("shift command needs a shift spec")
    body = spec.source["shift"]
    p = Polynomial([parse_entry(c, spec.mode) for c in body["polynomial"]],
                   mode=spec.mode)
    certified = newton_coefficients_nonnegative(p)
    report = _base_report("shift", spec, {"m": args.m, "tol": args.tol})
    report["shift"] = {
        "generator_degree": p.degree,
        "m": args.m,
        "is_m_isometry": shift_is_m_isometry(spec.operator, args.m, tol=args.tol),
        "positivity_certified": certified,
    }
    if not certified:
        report["warnings"].append(
            "generator positivity verified only on the prefix, not for all n"
        )
    _emit(report, args.output)
    return EXIT_OK


def _cmd_ortho(args):
    spec = load_spec_file(args.file)
    if not isinstance(spec.operator, DenseOperator):
        raise PreconditionError("ortho needs a dense operator spec")
    T = spec.operator
    mode = T.mode
    h1 = _parse_vector_flag(args.h1, mode, T.dim)
    h2 = _parse_vector_flag(args.h2, mode, T.dim)
    z1 = _parse_scalar_flag(args.z1, mode)
    z2 = _parse_scalar_flag(args.z2, mode)
    window = args.window if args.window is not None else default_window_len(T.dim)
    report = _base_report("ortho", spec, {"tol": args.tol, "window": window})
    res = ortho_test_generalized(T, h1, h2, z1, z2, window_len=window, tol=args.tol)
    report["orthogonality"] = {
        "case": res.case,
        "orbit_polynomial": res.orbit_polynomial,
        "eps_orbits_polynomial": list(res.eps_orbits_polynomial)
        if res.eps_orbits_polynomial is not None else None,
        "re_inner_vanishes": res.re_inner_vanishes,
        "mixed_inner_vanishes": res.mixed_inner_vanishes,
        "re_only": res.re_only,
        "agrees_with_theory": res.agrees_with_theory,
    }
    if mode == FLOAT:
        report["orthogonality"]["diagnostics"] = res.diagnostics
    _emit(report, args.output)
    return EXIT_OK


def _cmd_perturb(args):
    spec_a = load_spec_file(args.file_a)
    spec_n = load_spec_file(args.file_n)
    if not isinstance(spec_a.operator, DenseOperator) \
            or not isinstance(spec_n.operator, DenseOperator):
        raise PreconditionError("perturb needs two dense operator specs")
    report = _base_report("perturb", spec_a, {"tol": args.tol})
    res = perturbation_analysis(spec_a.operator, spec_n.operator, tol=args.tol)
    report["perturbation"] = {
        "base_order": res.m_a,
        "nilpotency_index": res.nu,
        "order_bound": res.m_bound,
        "bound_verified": res.bound_verified,
        "strict_at_bound": res.strict,
        "witness": _vector_out(res.witness),
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_verify(args):
    seed = args.seed
    if args.suite == "all":
        results = run_all_suites(seed)
    else:
        try:
            results = [run_suite(args.suite, seed)]
        except KeyError as exc:
            # str() of a KeyError is the repr of its message
            raise SpecFileError(exc.args[0]) from exc
    report = {
        "command": "verify",
        "parameters": {"suite": args.suite, "seed": seed},
        "suites": [],
    }
    failed = False
    for res in results:
        status = "pass" if res.passed else "FAIL"
        print(f"{status}  {res.name}  ({res.checks} checks)")
        for msg in res.failures:
            print(f"      {msg}", file=sys.stderr)
        report["suites"].append({
            "name": res.name,
            "passed": res.passed,
            "checks": res.checks,
            "failures": list(res.failures),
            "notes": list(res.notes),
        })
        failed = failed or not res.passed
    if args.output:
        _write_json(report, args.output)
    return EXIT_SUITE if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Argument parser
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _command_parsers():
    """The top-level parser and each command's sub-parser by name, built once
    per process; main looks each _cmd_ function up per call, so one rebound
    later (by a tracer or a test) is the one that runs."""
    parser = argparse.ArgumentParser(
        prog="misolab",
        description="Analyze m-isometric operators: strict orders, "
                    "decompositions, weighted shifts, orthogonality, "
                    "nilpotent perturbations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def common(p, tol):
        p.add_argument("--tol", type=_tolerance, default=tol,
                       help="float-mode zero tolerance")
        p.add_argument("--output", default=None, help="write the JSON report here")

    p = commands["order"] = sub.add_parser("order", help="strict-order detection")
    p.add_argument("file", help="operator spec file (JSON)")
    p.add_argument("--mmax", type=_integer, default=None)
    p.add_argument("--window", type=_integer, default=None)
    common(p, DEFAULT_DEFECT_TOL)

    p = commands["decompose"] = sub.add_parser("decompose", help="algebraic block decomposition")
    p.add_argument("file")
    common(p, DEFAULT_DEFECT_TOL)

    p = commands["shift"] = sub.add_parser("shift", help="weighted-shift order query")
    p.add_argument("file")
    p.add_argument("--m", type=_integer, required=True)
    common(p, DEFAULT_FLOAT_TOL)

    p = commands["ortho"] = sub.add_parser(
        "ortho", help="generalized-eigenvector orthogonality test")
    p.add_argument("file")
    p.add_argument("--h1", required=True, help="comma-separated vector entries")
    p.add_argument("--h2", required=True)
    p.add_argument("--z1", required=True)
    p.add_argument("--z2", required=True)
    p.add_argument("--window", type=_integer, default=None)
    common(p, DEFAULT_FLOAT_TOL)

    p = commands["perturb"] = sub.add_parser("perturb", help="nilpotent perturbation analysis")
    p.add_argument("file_a", help="base operator spec")
    p.add_argument("file_n", help="nilpotent perturbation spec")
    common(p, DEFAULT_DEFECT_TOL)

    p = commands["verify"] = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True,
                   help=f"one of: all, {', '.join(sorted(SUITES))}")
    p.add_argument("--seed", type=_seed, default=0, help="suite seed, >= 0")
    p.add_argument("--output", default=None)
    return parser, commands


def _parse_args(argv):
    """The namespace the top-level parser's parse_args(argv) gives, with its
    errors.  When argv[0] names a command, that command's sub-parser reads
    the rest directly: the top-level parser would hand it the same
    arguments, after a pass of its own over them.  Arguments the sub-parser
    leaves go to the top-level parser's error(), as in parse_args."""
    if argv is None:
        argv = sys.argv[1:]
    parser, commands = _command_parsers()
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return parser.parse_args(argv)
    args, extra = command.parse_known_args(argv[1:])
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    args.command = argv[0]
    return args


def main(argv=None):
    args = _parse_args(argv)
    try:
        return globals()[f"_cmd_{args.command}"](args)
    except SpecFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except MisolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
