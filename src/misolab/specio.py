"""Operator specification files and report serialization.

Spec files are JSON with a "mode" and exactly one of "matrix",
"jordan_blocks" or "shift".  Exact-mode entries use the rational grammar
`[-]a[/b][(+|-)c[/d]i]` (whitespace-free, b, d > 0); float-mode entries
are numbers or [re, im] pairs.  Exact-mode reports render every scalar in
the same grammar, so they are byte-identical across runs.
"""

from __future__ import annotations

import json
import math
import re
import reprlib
import sys

from .errors import SpecFileError
from .matrices import _entry_operator, direct_sum
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, Scalar, _frac, format_rational
from .shifts import shift_from_polynomial
from .spectral import JordanSpec, jordan_matrix

_RATIONAL_RE = re.compile(
    r"^(?P<re>-?[0-9]+(?:/[0-9]+)?)(?:(?P<sign>[+-])(?P<im>[0-9]+(?:/[0-9]+)?)i)?$"
)


def parse_rational(text):
    """Parse the exact scalar grammar into an exact Scalar."""
    return _boxed(_rational_parts(text), EXACT)


def _rational_parts(text):
    """The real and imaginary parts of the exact grammar, each a (num, den)
    pair in lowest terms, read from the digits."""
    m = _RATIONAL_RE.match(text)
    if not m:
        raise SpecFileError(f"bad rational scalar {reprlib.repr(text)}")
    real = _ratio(m.group("re"), text)
    if m.group("im") is None:
        return real, (0, 1)
    num, den = _ratio(m.group("im"), text)
    return real, (-num if m.group("sign") == "-" else num, den)


def _ratio(digits, text):
    num, _, den = digits.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:   # the grammar admits only ASCII digits: this is the length limit
        raise _too_long("rational scalar") from exc
    if not den:
        raise SpecFileError(f"zero denominator in rational scalar {reprlib.repr(text)}")
    g = math.gcd(num, den)
    return num // g, den // g


def _boxed(parts, mode):
    """The Scalar of an entry's parts (_entry_parts)."""
    real, imag = parts
    if mode == EXACT:
        return Scalar(EXACT, _frac(*real), _frac(*imag))
    return Scalar(FLOAT, real, imag)


def _too_long(what):
    """The error of an integer past the interpreter's limit for reading one."""
    return SpecFileError(f"{what} has an integer of more than {sys.get_int_max_str_digits()} "
                         "digits, the interpreter's limit for reading one")


def _json_int(digits):
    """A JSON integer, whose digits are ASCII: past the limit, _too_long."""
    try:
        return int(digits)
    except ValueError as exc:
        raise _too_long("spec file") from exc


def _is_int(value):
    """A JSON integer: Python's bool is an int, but true and false are not numbers."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value):
    return isinstance(value, float) or _is_int(value)


def parse_entry(entry, mode):
    """One scalar entry: rational string, [re, im] pair, or bare number."""
    return _boxed(_entry_parts(entry, mode), mode)


def _entry_parts(entry, mode):
    """The checked parts of one scalar entry: in exact mode _rational_parts,
    in float mode two floats."""
    if isinstance(entry, list):
        if len(entry) != 2:
            raise SpecFileError(f"bad scalar entry {reprlib.repr(entry)}")
    elif isinstance(entry, str):
        if mode != EXACT:
            raise SpecFileError("string rational entries require exact mode")
        return _rational_parts(entry)
    elif _is_number(entry):
        entry = [entry, 0]
    else:
        raise SpecFileError(f"bad scalar entry {reprlib.repr(entry)}")
    re_part, im_part = entry
    if mode == EXACT:
        if not (_is_int(re_part) and _is_int(im_part)):
            raise SpecFileError(
                "exact-mode numeric entries must be integers; use the "
                "rational string grammar for fractions"
            )
        return (re_part, 1), (im_part, 1)
    if not (_is_number(re_part) and _is_number(im_part)):
        raise SpecFileError(f"bad float entry {reprlib.repr(entry)}")
    try:
        re_part, im_part = float(re_part), float(im_part)
    except OverflowError as exc:
        raise SpecFileError(f"float entry {reprlib.repr(entry)} is beyond float range") from exc
    if not (math.isfinite(re_part) and math.isfinite(im_part)):
        raise SpecFileError(f"float entry {reprlib.repr(entry)} is not finite")
    return re_part, im_part


def scalar_to_report(s):
    """Report rendering: rational strings in exact mode, numbers in float."""
    if s.mode == EXACT:
        return format_rational(s)
    return [float(s.re), float(s.im)]


class OperatorSpec:
    """A parsed spec file."""

    def __init__(self, mode, kind, operator, eigen_hints, source):
        self.mode = mode
        self.kind = kind                # "matrix" | "jordan_blocks" | "shift"
        self.operator = operator        # DenseOperator or WeightedShiftOperator
        self.eigen_hints = eigen_hints  # tuple of Scalars, or None
        self.source = source            # the JSON document parsed


def parse_operator_spec(doc):
    if not isinstance(doc, dict):
        raise SpecFileError("spec document must be a JSON object")
    mode = doc.get("mode")
    if mode not in (EXACT, FLOAT):
        raise SpecFileError('spec "mode" must be "exact" or "float"')
    kinds = [k for k in ("matrix", "jordan_blocks", "shift") if k in doc]
    if len(kinds) != 1:
        raise SpecFileError(
            'spec must contain exactly one of "matrix", "jordan_blocks", "shift"'
        )
    kind = kinds[0]
    hints = None
    if "eigen_hints" in doc:
        hints = tuple(parse_entry(e, mode)
                      for e in _json_list(doc["eigen_hints"], '"eigen_hints"'))
    if kind == "matrix":
        rows = [_json_list(r, "each matrix row")
                for r in _json_list(doc["matrix"], '"matrix"')]
        if not rows or any(len(r) != len(rows) for r in rows):
            raise SpecFileError("matrix rows must form a nonempty square grid")
        op = _entry_operator([_entry_parts(e, mode) for r in rows for e in r], len(rows), mode)
    elif kind == "jordan_blocks":
        blocks = _json_list(doc["jordan_blocks"], '"jordan_blocks"')
        if not blocks:
            raise SpecFileError("jordan_blocks must be nonempty")
        mats = []
        zs = []
        for b in blocks:
            if not isinstance(b, dict) or "z" not in b:
                raise SpecFileError(
                    f'jordan block {reprlib.repr(b)} must be an object with "z" and "size"')
            size = b.get("size")
            if not _is_int(size) or size < 1:
                raise SpecFileError("jordan block size must be a positive integer")
            z = parse_entry(b["z"], mode)
            mats.append(jordan_matrix(JordanSpec(z=z, size=size)))
            if not any(z == w for w in zs):
                zs.append(z)
        op = direct_sum(*mats)
        if hints is None:
            hints = tuple(zs)
    else:
        body = doc["shift"]
        if not isinstance(body, dict):
            raise SpecFileError('"shift" must be a JSON object')
        coeffs = _json_list(body.get("polynomial", []), 'shift "polynomial"')
        if not coeffs:
            raise SpecFileError("shift polynomial must be nonzero")
        prefix = body.get("prefix", 32)
        if not _is_int(prefix) or prefix < 2:
            raise SpecFileError("shift prefix must be an integer >= 2")
        p = Polynomial([parse_entry(c, mode) for c in coeffs], mode=mode)
        if p.is_zero():
            raise SpecFileError("shift polynomial must be nonzero")
        op = shift_from_polynomial(p, prefix)
    return OperatorSpec(mode=mode, kind=kind, operator=op, eigen_hints=hints, source=doc)


def _json_list(value, what):
    if not isinstance(value, list):
        raise SpecFileError(f"{what} must be a JSON list")
    return value


def serialize_operator_spec(spec):
    """Canonical document for the parsed spec (round-trips to the same spec)."""
    mode, kind, doc, hints = spec.mode, spec.kind, spec.source, spec.eigen_hints
    out = {"mode": mode}
    if kind == "matrix":
        out["matrix"] = [[scalar_to_report(e) for e in r] for r in spec.operator.rows]
    elif kind == "jordan_blocks":
        out["jordan_blocks"] = [
            {"z": scalar_to_report(parse_entry(b["z"], mode)), "size": b["size"]}
            for b in doc["jordan_blocks"]
        ]
    else:
        body = doc["shift"]
        out["shift"] = {
            "polynomial": [scalar_to_report(parse_entry(c, mode)) for c in body["polynomial"]],
            "prefix": body.get("prefix", 32),
        }
    if hints is not None and (kind != "jordan_blocks" or "eigen_hints" in doc):
        out["eigen_hints"] = [scalar_to_report(h) for h in hints]
    return out


# one decoder for every file: json.load with a keyword builds a new one per call
_DECODER = json.JSONDecoder(parse_int=_json_int)


def load_spec_file(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if text.startswith("\ufeff"):   # json.loads' refusal, word for word
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except SpecFileError:
        raise
    # ValueError: bad JSON, bad UTF-8; RecursionError: arrays or objects
    # nested deeper than the scanner's recursion limit
    except (OSError, ValueError, RecursionError) as exc:
        raise SpecFileError(f"cannot read spec file {path}: {exc}") from exc
    return parse_operator_spec(doc)
