"""Spec documents of arbitrary JSON shape, and flag values, through the
CLI: every request ends in a documented exit code, never in an escaping
exception.

A document is a well-formed spec of dimension <= 3 in which up to two
values, at any depth and the whole document included, are replaced by
arbitrary JSON.  The flag test sends well-formed specs of dimension <= 3
to every command but verify, with integer flags in [-3, 40], so that no
request runs long; verify takes a fixed list of seed and suite values, of
which only cheap suites and one float-robustness case run."""

import copy
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from misolab.cli import main

SMALL_INT = st.integers(-2, 3)
JSON = st.recursive(
    st.none() | st.booleans() | SMALL_INT | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)
FLOAT = st.floats(allow_nan=False, allow_infinity=False) | SMALL_INT
ENTRY = {
    "exact": st.sampled_from(["0", "1", "-1", "2", "0+1i", "0-1i", "1/2", "3/5+4/5i",
                              "-3/5+4/5i", "1+1i", "10000000000", "1/0", "0+1/0i"])
    | SMALL_INT,
    "float": FLOAT | st.lists(FLOAT, min_size=2, max_size=2),
}


def well_formed(mode):
    entry = ENTRY[mode]
    matrix = st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    blocks = st.lists(st.integers(1, 3), min_size=1, max_size=3).filter(
        lambda sizes: sum(sizes) <= 3).flatmap(
        lambda sizes: st.tuples(*[st.fixed_dictionaries({"z": entry, "size": st.just(k)})
                                  for k in sizes]).map(list))
    shift = st.fixed_dictionaries({"polynomial": st.lists(entry, min_size=1, max_size=3)},
                                  optional={"prefix": st.integers(2, 40)})
    operator = (st.fixed_dictionaries({"matrix": matrix})
                | st.fixed_dictionaries({"jordan_blocks": blocks})
                | st.fixed_dictionaries({"shift": shift}))
    hints = st.fixed_dictionaries({}, optional={"eigen_hints": st.lists(entry, max_size=4)})
    return st.builds(lambda op, more: {"mode": mode, **op, **more}, operator, hints)


def paths(value, path=()):
    yield path
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from paths(child, path + (key,))


@st.composite
def documents(draw):
    doc = draw(st.sampled_from(["exact", "float"]).flatmap(well_formed))
    for _ in range(draw(st.integers(0, 2))):
        path = draw(st.sampled_from(list(paths(doc))))
        junk = draw(JSON)
        if not path:
            doc = junk
            continue
        doc = copy.deepcopy(doc)
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = junk
    return doc


def dimension(doc):
    """The operator dimension the document would give if it parsed."""
    if not isinstance(doc, dict):
        return 0
    blocks = doc.get("jordan_blocks")
    if isinstance(blocks, list):
        return sum(b["size"] for b in blocks
                   if isinstance(b, dict) and isinstance(b.get("size"), int))
    rows = doc.get("matrix")
    return len(rows) if isinstance(rows, list) else 0


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(doc=documents(), command=st.sampled_from(["order", "decompose"]))
# float overflow in the kernel chain: LinAlgError from the SVD, then exit 3
# on a power of T - zI; the row walk forms no power and exits 0
@example(doc={"mode": "float", "jordan_blocks": [{"z": 0.0, "size": 2},
                                                 {"z": [0.0, -8.8e204], "size": 1}]},
         command="decompose")
# the witness threshold of a nilpotency index overflowed: OverflowError
@example(doc={"mode": "float", "matrix": [[2, [-9e191, 0]], [0, 0]]}, command="decompose")
# squared weights of a tiny generator: |p(n)|^2 underflowed in the division
@example(doc={"mode": "float", "shift": {"polynomial": [8e-219, 8e-219, 8e-219]}},
         command="order")
def test_spec_documents_end_in_documented_exit_codes(tmp_path_factory, doc, command):
    assume(dimension(doc) <= 3)
    path = tmp_path_factory.mktemp("fuzz") / "spec.json"
    path.write_text(json.dumps(doc))
    assert main([command, str(path)]) in (0, 2, 3, 4)


# ---------------------------------------------------------------------------
# Flag values
# ---------------------------------------------------------------------------

FLAG_INT = st.integers(-3, 40)
SCALAR_TEXT = st.sampled_from(["1", "-1", "i", "-i", "+i", "0", "2", "1/2", "3/5+4/5i",
                               "-3/5-4/5i", "0+1i", "1e300", "x", ""])
VECTOR_TEXT = st.lists(st.sampled_from(["0", "1"]) | SCALAR_TEXT, max_size=4).map(",".join)


def flag(name, value):
    """--name=value or --name value; argparse reads a value that starts
    with '-' in the second form as an option and exits 2."""
    return st.sampled_from([[f"--{name}={value}"], [f"--{name}", str(value)]])


def optional_flag(name, values):
    return st.one_of(st.just([]), values.flatmap(lambda v: flag(name, v)))


@st.composite
def requests(draw):
    """(command, spec documents, flags) for one CLI request."""
    command = draw(st.sampled_from(["order", "decompose", "shift", "ortho", "perturb"]))
    mode = draw(st.sampled_from(["exact", "float"]))
    docs = [draw(well_formed(mode)) for _ in range(2 if command == "perturb" else 1)]
    flags = []
    if command == "order":
        flags += draw(optional_flag("window", FLAG_INT)) + draw(optional_flag("mmax", FLAG_INT))
    elif command == "shift":
        flags += draw(FLAG_INT.flatmap(lambda m: flag("m", m)))
    elif command == "ortho":
        for name, values in (("h1", VECTOR_TEXT), ("h2", VECTOR_TEXT),
                             ("z1", SCALAR_TEXT), ("z2", SCALAR_TEXT)):
            flags += draw(values.flatmap(lambda v, name=name: flag(name, v)))
        flags += draw(optional_flag("window", FLAG_INT))
    return command, docs, flags


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(request=requests())
# a negative window reached islice: ValueError
@example(request=("order", [{"mode": "exact", "matrix": [["1", "1"], ["0", "1"]]}],
                  ["--window=-3"]))
@example(request=("ortho", [{"mode": "exact", "matrix": [["1", "0"], ["0", "-1"]]}],
                  ["--h1=1,0", "--h2=0,1", "--z1=1", "--z2=-1", "--window=-1"]))
# exact order on a strict operator: 2 samples are too short (exit 3), 3 are
# fewer than m + 1 = 4 and walk the orbits, 4 read the degrees from beta
@example(request=("order", [{"mode": "exact", "matrix": [["1", "1"], ["0", "1"]]}],
                  ["--window=2"]))
@example(request=("order", [{"mode": "exact", "matrix": [["1", "1"], ["0", "1"]]}],
                  ["--window=3"]))
@example(request=("order", [{"mode": "exact", "matrix": [["1", "1"], ["0", "1"]]}],
                  ["--window=4"]))
# shifts took m_max < 1 and reported not-within-bound with that m
@example(request=("order", [{"mode": "exact", "shift": {"polynomial": ["1", "1"]}}],
                  ["--mmax=0"]))
@example(request=("order", [{"mode": "exact", "shift": {"polynomial": ["1", "1"]}}],
                  ["--mmax=-2"]))
# the zero threshold of N^k overflowed in nilpotency_index: OverflowError
@example(request=("perturb", [{"mode": "float", "matrix": [[1, 0], [0, 1]]},
                              {"mode": "float", "matrix": [[0, 1e200], [0, 0]]}], []))
# the inner-product threshold max(1, |T|)^window overflowed: OverflowError
@example(request=("ortho", [{"mode": "float", "matrix": [[1, 0, 0], [0, -1, 0], [0, 0, 1e10]]}],
                  ["--h1=1,0,0", "--h2=0,1,0", "--z1=1", "--z2=-1", "--window=40"]))
# an eigenvalue cluster of -6.9e307 and inf: its mean raised a RuntimeWarning
@example(request=("decompose", [{"mode": "float", "matrix": [
    [0.0, 1.1110354586872598e+308], [1.1110354586872595e+308, 1.1110354586872595e+308]]}], []))
def test_flag_values_end_in_documented_exit_codes(tmp_path_factory, request):
    command, docs, flags = request
    workdir = tmp_path_factory.mktemp("flags")
    files = []
    for k, doc in enumerate(docs):
        path = workdir / f"spec{k}.json"
        path.write_text(json.dumps(doc))
        files.append(str(path))
    out = workdir / "report.json"
    try:
        code = main([command, *files, *flags, f"--output={out}"])
    except SystemExit as exc:   # argparse rejects the flags
        code = exc.code
    assert code in (0, 2, 3, 4)
    if command == "order" and code == 0:
        # an order, or the bound searched, is at least 1
        assert json.loads(out.read_text())["verdict"]["m"] >= 1


@pytest.mark.parametrize("flags", [
    pytest.param(["--suite", "float-robustness", "--seed", "-1"], id="negative-float-robustness"),
    pytest.param(["--suite", "all", "--seed=-1"], id="negative-all"),
    pytest.param(["--suite", "shift-factory", "--seed=-3"], id="negative-shift-factory"),
    pytest.param(["--suite", "jordan-orders", "--seed", str(2 ** 70)], id="huge-jordan-orders"),
    pytest.param(["--suite", "float-robustness", "--seed", str(2 ** 70)],
                 id="huge-float-robustness"),
    pytest.param(["--suite", "density", "--seed", "1.5"], id="fractional"),
    pytest.param(["--suite", "density", "--seed", "x"], id="non-integer"),
    pytest.param(["--suite", "density", "--seed", ""], id="empty"),
    pytest.param(["--suite", "nope"], id="unknown-suite"),
    pytest.param(["--suite", "x" * 3000], id="long-suite"),
])
def test_verify_flags_end_in_documented_exit_codes(capsys, flags):
    try:
        code = main(["verify", *flags])
    except SystemExit as exc:   # argparse rejects the flags
        code = exc.code
    assert code in (0, 2, 3, 4)
    capsys.readouterr()
