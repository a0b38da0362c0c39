"""Seeded request mixes for the benchmark and the oracle that checks them.

Every request is one `misolab` command line plus the spec files it reads.
The expected answer of each request is derived from how its operator was
built (block sizes, eigenvalues, shear, nilpotent pattern), never from
misolab itself:

- an orthogonal sum of Jordan blocks with unimodular eigenvalues has strict
  order max(2k - 1) over its block sizes k, and its basis vector at
  position p of a block has an orbit norm of degree 2p;
- a sheared or off-circle operator is not certified and is an m-isometry
  for no m;
- A + N, for A an m_A-isometry and N a commuting nilpotent of index nu, is
  an (m_A + 2(nu - 1))-isometry;
- the shift generated by a positive polynomial p is a (deg p + 1)-isometry
  and not a (deg p)-isometry;
- generalized eigenvectors from different orthogonal blocks have vanishing
  mixed inner products, while the sheared pair does not.

A workload is a fixed list of slots (command, operator kind, size); one
cycle runs every slot once, on instances drawn from the run seed and the
cycle index, in a seeded order.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

FLOAT_RESIDUAL_BOUND = 1e-6

# Gaussian rationals are (re, im) pairs of Fractions.
_F = Fraction
UNIMODULAR = ((_F(1), _F(0)), (_F(-1), _F(0)), (_F(0), _F(1)), (_F(0), _F(-1)),
              (_F(3, 5), _F(4, 5)))
# fourth roots of unity keep |z1 - z2| >= sqrt(2) between sheared blocks
SHEAR_POOL = UNIMODULAR[:4]
OFF_CIRCLE = ((_F(2), _F(0)), (_F(1, 2), _F(0)), (_F(1), _F(1)), (_F(0), _F(2)),
              (_F(-3, 2), _F(0)))
ZERO = (_F(0), _F(0))
ONE = (_F(1), _F(0))

# The exact suites that run in a fraction of a second; exact-cli includes
# them so that the suites layer is measured too.
VERIFY_SUITES = ("jordan-orders", "shift-factory")

# Known defects of the program, each with the failure shapes it produces
# (the first element of check()'s result).  A request in one of these classes
# stays in the mix and counts as failed when wrong, but leaves the run
# correct only when it fails in one of its defect's shapes: a crash, a
# missing or malformed report, or any other wrong field is unexpected in
# every slot.
KNOWN_DEFECTS = {
    "float-block-order": (
        "float strict_order on a unitarily conjugated Jordan block of size >= 9 "
        "exceeds the 1e-6 residual bound or returns a wrong order",
        {"order", "residual"}),
    "exact-ortho-window": (
        "ortho_test_generalized accepts orbit degrees up to window - 2, so the "
        "orbit of a non-orthogonal pair whose last difference vanishes by chance "
        "counts as polynomial and the verdict disagrees with theory",
        {"agrees"}),
    "float-ortho-threshold": (
        "float ortho_test_generalized after unitary conjugation: the zero tests on "
        "orbit inner products do not scale with orbit growth, so the verdict can "
        "disagree with theory",
        {"agrees", "mixed"}),
    "float-off-circle-scale": (
        "float strict_order scales its zero threshold by the largest Gram entry, so "
        "the nonzero defect of an off-circle block next to a larger unimodular "
        "Jordan block can be taken for zero",
        {"verdict"}),
}


def known_defect(mode, command, op):
    """The key of the known defect class a request falls in, or None."""
    if command == "ortho":
        if mode == "float":
            return "float-ortho-threshold"
        return "exact-ortho-window" if op.kind == "sheared" else None
    if mode == "float" and command == "order":
        if op.kind == "jordan" and max(k for _, k in op.blocks) >= 9:
            return "float-block-order"
        if op.kind == "off-circle" and len(op.blocks) > 1:
            return "float-off-circle-scale"
    return None


def excused(req, failure):
    """Whether a failure of req (check()'s result) has the shape of the
    known defect of its class."""
    return (failure is not None and req.known_defect is not None
            and failure[0] in KNOWN_DEFECTS[req.known_defect][1])


# ---------------------------------------------------------------------------
# Gaussian-rational matrices (lists of rows of pairs)
# ---------------------------------------------------------------------------

def g_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def g_neg(a):
    return (-a[0], -a[1])


def m_zero(n):
    return [[ZERO] * n for _ in range(n)]


def m_identity(n):
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def m_mul(a, b):
    n = len(a)
    out = m_zero(n)
    for i in range(n):
        for k in range(n):
            if a[i][k] == ZERO:
                continue
            for j in range(n):
                if b[k][j] != ZERO:
                    out[i][j] = g_add(out[i][j], g_mul(a[i][k], b[k][j]))
    return out


def jordan(z, k):
    rows = m_zero(k)
    for i in range(k):
        rows[i][i] = z
        if i + 1 < k:
            rows[i][i + 1] = ONE
    return rows


def block_diag(blocks):
    n = sum(len(b) for b in blocks)
    out = m_zero(n)
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


def shift_power(k, t):
    """S^t for the nilpotent k x k Jordan block S."""
    out = m_zero(k)
    for i in range(k - t):
        out[i][i + t] = ONE
    return out


def nilpotency_index(n_mat):
    """Smallest j with N^j = 0 (exact), or None if N^dim != 0."""
    dim = len(n_mat)
    power = m_identity(dim)
    for j in range(1, dim + 1):
        power = m_mul(power, n_mat)
        if all(x == ZERO for row in power for x in row):
            return j
    return None


def fmt_rational(z):
    """The spec-file grammar [-]a[/b][(+|-)c[/d]i]."""
    def frac(f):
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
    out = frac(z[0])
    if z[1] != 0:
        out += ("+" if z[1] > 0 else "-") + frac(abs(z[1])) + "i"
    return out


def to_complex(z):
    return complex(float(z[0]), float(z[1]))


def fmt_float(z):
    z = complex(z)
    return f"{z.real!r}{z.imag:+}i"


# ---------------------------------------------------------------------------
# Operator instances
# ---------------------------------------------------------------------------

@dataclass
class Operator:
    kind: str                   # "jordan" | "sheared" | "off-circle"
    matrix: list                # Gaussian-rational rows
    hints: tuple                # distinct eigenvalues
    blocks: tuple               # (z, size) in diagonal order, before any shear
    certified: bool
    expected_order: Optional[int]
    shear: Optional[tuple] = None   # (r, s, c) of T = (I + cE_rs) S (I - cE_rs)


def _composition(rng, total, parts):
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _jordan_operator(zs, sizes):
    return Operator(
        kind="jordan", matrix=block_diag([jordan(z, k) for z, k in zip(zs, sizes)]),
        hints=tuple(zs), blocks=tuple(zip(zs, sizes)), certified=True,
        expected_order=max(2 * k - 1 for k in sizes),
    )


def jordan_sum(rng, dim, nblocks=None):
    if nblocks is None:
        nblocks = rng.randint(1, min(3, dim))
    zs = rng.sample(UNIMODULAR, nblocks)
    return _jordan_operator(zs, _composition(rng, dim, nblocks))


def sheared(rng, dim):
    """Two blocks whose generalized eigenspaces the shear I + cE_rs makes
    non-orthogonal: <e_r, (I + cE_rs) e_s> = conj(c) != 0."""
    z1, z2 = rng.sample(SHEAR_POOL, 2)
    s1 = rng.randint(1, dim - 1)
    s2 = dim - s1
    base = block_diag([jordan(z1, s1), jordan(z2, s2)])
    r, s = rng.randrange(s1), s1 + rng.randrange(s2)
    c = (_F(rng.choice([1, -1, 2])), _F(0))
    plus, minus = m_identity(dim), m_identity(dim)
    plus[r][s], minus[r][s] = c, g_neg(c)
    return Operator(
        kind="sheared", matrix=m_mul(m_mul(plus, base), minus), hints=(z1, z2),
        blocks=((z1, s1), (z2, s2)), certified=False, expected_order=None,
        shear=(r, s, c),
    )


def off_circle(rng, dim):
    z_bad = rng.choice(OFF_CIRCLE)
    if dim == 1 or rng.random() < 0.3:
        blocks = [(z_bad, dim)]
    else:
        k = rng.randint(1, dim - 1)
        blocks = [(z_bad, k), (rng.choice(UNIMODULAR), dim - k)]
    return Operator(
        kind="off-circle", matrix=block_diag([jordan(z, k) for z, k in blocks]),
        hints=tuple(z for z, _ in blocks), blocks=tuple(blocks), certified=False,
        expected_order=None,
    )


def single_block(rng, dim):
    return jordan_sum(rng, dim, nblocks=1)


def fixed_sum(rng, sizes):
    """Orthogonal sum of Jordan blocks of the given sizes at distinct
    unimodular eigenvalues drawn from rng."""
    return _jordan_operator(rng.sample(UNIMODULAR, len(sizes)), sizes)


BUILDERS = {"jordan": jordan_sum, "single": single_block, "fixed": fixed_sum,
            "sheared": sheared, "off-circle": off_circle}


# ---------------------------------------------------------------------------
# Spec documents
# ---------------------------------------------------------------------------

def random_unitary(dim, np_rng):
    import numpy as np

    raw = np_rng.standard_normal((dim, dim)) + 1j * np_rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def exact_doc(op):
    if op.kind == "sheared":
        return {"mode": "exact",
                "matrix": [[fmt_rational(x) for x in row] for row in op.matrix],
                "eigen_hints": [fmt_rational(z) for z in op.hints]}
    return {"mode": "exact",
            "jordan_blocks": [{"z": fmt_rational(z), "size": k} for z, k in op.blocks]}


def float_matrix(rows, u):
    """u @ rows @ u^*, as a complex ndarray."""
    import numpy as np

    a = np.array([[to_complex(x) for x in row] for row in rows], dtype=complex)
    return u @ a @ u.conj().T


def float_doc(arr):
    return {"mode": "float",
            "matrix": [[[float(z.real), float(z.imag)] for z in row] for row in arr]}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------

@dataclass
class Request:
    slot: str                   # stable label: command/kind/size
    mode: str                   # "exact" | "float" | "verify"
    argv: list                  # misolab argv; {dir} is replaced by the work directory
    files: dict                 # file name -> JSON document
    expect: dict
    known_defect: Optional[str] = None     # a KNOWN_DEFECTS key
    meta: dict = field(default_factory=dict)

    def write_files(self, workdir):
        for name, doc in self.files.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh)

    def resolved_argv(self, workdir):
        return [a.replace("{dir}", workdir) for a in self.argv]


def _vector_support(op, which):
    """Coordinates of the diagonal block(s) of op.blocks[which]."""
    off = sum(k for _, k in op.blocks[:which])
    return range(off, off + op.blocks[which][1])


def _ortho_vectors(rng, op):
    """Generalized eigenvectors h1 (block 0) and h2 (block 1) with small
    integer entries; for a sheared operator they are mapped by I + cE_rs and
    carry nonzero r and s coordinates, so their inner product is nonzero."""
    dim = len(op.matrix)
    vecs = []
    for which in (0, 1):
        x = [ZERO] * dim
        for j in _vector_support(op, which):
            x[j] = (_F(rng.randint(-2, 2)), _F(rng.randint(-2, 2)))
        if op.shear is not None:
            r, s, _ = op.shear
            pin = r if which == 0 else s
            x[pin] = (_F(rng.choice([1, 2, -1])), _F(rng.randint(-1, 1)))
        elif all(v == ZERO for v in x):
            x[_vector_support(op, which)[0]] = ONE
        vecs.append(x)
    if op.shear is not None:
        r, s, c = op.shear
        h2 = list(vecs[1])
        h2[r] = g_add(h2[r], g_mul(c, h2[s]))
        vecs[1] = h2
    return vecs


def _blocks_expected(op):
    return sorted((fmt_rational(z), k, k) for z, k in op.blocks)


def dense_request(rng, np_rng, mode, command, kind, dim, tag):
    """One order/decompose/ortho request on a fresh operator of the given kind."""
    if command == "ortho" and kind == "sheared":
        op = sheared(rng, dim)
    elif command == "ortho" and kind == "jordan":
        op = jordan_sum(rng, dim, nblocks=rng.randint(2, min(3, dim)))
    else:
        op = BUILDERS[kind](rng, dim)
    slot = f"{command}/{kind}/{'+'.join(map(str, dim)) if kind == 'fixed' else dim}"
    dim = len(op.matrix)
    fname = f"{tag}.json"
    out = f"{tag}.out.json"
    expect = {"command": command, "kind": op.kind, "certified": op.certified,
              "order": op.expected_order, "dim": dim}
    if mode == "exact":
        files = {fname: exact_doc(op)}
        if command == "decompose":
            expect["blocks"] = _blocks_expected(op) if op.certified else None
        if command == "order" and op.kind == "jordan":
            expect["basis_degrees"] = [
                f"polynomial(degree={2 * p})" for _, k in op.blocks for p in range(k)]
    else:
        u = random_unitary(dim, np_rng)
        files = {fname: float_doc(float_matrix(op.matrix, u))}
        if command == "decompose" and op.certified:
            expect["block_shapes"] = sorted((k, k) for _, k in op.blocks)
    argv = [command, "{dir}/" + fname, "--output", "{dir}/" + out]
    if command == "ortho":
        h1, h2 = _ortho_vectors(rng, op)
        z1, z2 = op.blocks[0][0], op.blocks[1][0]
        if mode == "exact":
            vec_txt = [",".join(fmt_rational(x) for x in h) for h in (h1, h2)]
            z_txt = [fmt_rational(z1), fmt_rational(z2)]
        else:
            vec_txt = [",".join(fmt_float(x) for x in u @ [to_complex(x) for x in h])
                       for h in (h1, h2)]
            z_txt = [fmt_float(to_complex(z1)), fmt_float(to_complex(z2))]
        # the --flag=value form keeps argparse from reading "-1,..." as a flag
        argv += [f"--h1={vec_txt[0]}", f"--h2={vec_txt[1]}",
                 f"--z1={z_txt[0]}", f"--z2={z_txt[1]}"]
        expect["orthogonal"] = op.kind == "jordan"
    return Request(slot=slot, mode=mode, argv=argv, files=files, expect=expect,
                   known_defect=known_defect(mode, command, op),
                   meta={"out": out, "blocks": [
                       [fmt_rational(z), k] for z, k in op.blocks]})


def perturb_request(rng, np_rng, mode, style, size, tag):
    """A + N built like the suites' perturbation corpus, at a fixed size."""
    if style == "scalar-base":
        z = rng.choice(UNIMODULAR)
        a = [[z if i == j else ZERO for j in range(size)] for i in range(size)]
        n = [[(_F(rng.randint(-2, 2)), _F(rng.randint(-2, 2))) if j > i else ZERO
              for j in range(size)] for i in range(size)]
        m_a = 1
    elif style == "block-polynomial":
        # blocks of sizes size and size - 1, each perturbed by c * S^t, a
        # polynomial in the block's own nilpotent part, so N commutes with A
        blocks, nils = [], []
        for z, k in zip(rng.sample(UNIMODULAR, 2), (size, size - 1)):
            c = (_F(rng.choice([0, 1, -1, 2])), _F(0))
            blocks.append(jordan(z, k))
            nils.append([[g_mul(c, x) for x in row]
                         for row in shift_power(k, rng.randint(1, k - 1))])
        a, n = block_diag(blocks), block_diag(nils)
        m_a = 2 * size - 1
    else:   # cross-coupled: N = [[0, S^t], [0, 0]] commutes with J (+) J
        z = rng.choice(UNIMODULAR)
        a = block_diag([jordan(z, size), jordan(z, size)])
        t = rng.choice([0, 1])
        n = m_zero(2 * size)
        for i, row in enumerate(shift_power(size, t) if t else m_identity(size)):
            n[i][size:] = row
        m_a = 2 * size - 1
    nu = nilpotency_index(n)
    dim = len(a)
    if mode == "exact":
        docs = [{"mode": "exact", "matrix": [[fmt_rational(x) for x in row] for row in m]}
                for m in (a, n)]
    else:
        u = random_unitary(dim, np_rng)
        docs = [float_doc(float_matrix(m, u)) for m in (a, n)]
    fa, fn, out = f"{tag}.a.json", f"{tag}.n.json", f"{tag}.out.json"
    return Request(
        slot=f"perturb/{style}/{size}", mode=mode,
        argv=["perturb", "{dir}/" + fa, "{dir}/" + fn, "--output", "{dir}/" + out],
        files={fa: docs[0], fn: docs[1]},
        expect={"command": "perturb", "base_order": m_a, "nu": nu,
                "bound": m_a + 2 * (nu - 1), "dim": dim},
        meta={"out": out},
    )


def shift_request(rng, mode, degree, at_order, tag):
    """`shift --m M` on the shift generated by a positive polynomial."""
    coeffs = [rng.randint(1, 4) for _ in range(degree + 1)]
    m = degree + 1 if at_order else degree
    if mode == "exact":
        poly = [str(c) for c in coeffs]
    else:
        poly = [float(c) for c in coeffs]
    fname, out = f"{tag}.json", f"{tag}.out.json"
    return Request(
        slot=f"shift/deg{degree}/{'m=d+1' if at_order else 'm=d'}", mode=mode,
        argv=["shift", "{dir}/" + fname, "--m", str(m), "--output", "{dir}/" + out],
        files={fname: {"mode": mode, "shift": {"polynomial": poly, "prefix": 32}}},
        expect={"command": "shift", "degree": degree, "m": m, "is_m_isometry": at_order},
        meta={"out": out},
    )


def verify_request(suite, suite_seed, tag):
    out = f"{tag}.out.json"
    return Request(
        slot=f"verify/{suite}", mode="verify",
        argv=["verify", "--suite", suite, "--seed", str(suite_seed),
              "--output", "{dir}/" + out],
        files={}, expect={"command": "verify", "suite": suite}, meta={"out": out},
    )


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------

# Slots of one cycle, as (command, kind, size).  The seed draws the
# eigenvalues, block partitions, shears, vectors and the order of a cycle;
# the slot fixes the command and size, which set most of a request's cost,
# so that runs on different seeds do comparable work.  The slot list is not
# a model of how misolab is used: nothing measures that.  It covers every
# command on every operator kind at dims 2-12, and its counts were chosen
# for the steadiness of the percentiles and for the run's time budget, not
# from traffic: the 50th and 90th percentile ranks fall inside groups of
# slots of similar cost rather than between two.
#
# The exact cycle holds its cheaper slots twice, and its two verify suites
# and its most expensive requests once: exact order at dims 8 and 10
# (1-3 s each), with fixed block partitions whose cost does not depend on
# the seed.  Two cycles give the 100 requests a run needs
# (worker.MIN_REQUESTS), and the 90th percentile of those 102 falls among
# the twelve dim-8 order requests.  Exact order at dim 12 (about 8 s) is
# left out: one per cycle would make a run, already over a minute on a
# shared 2-core machine, a third longer.
#
# The float cycle fixes the block partitions of its dim 10 and 12 order
# requests, which would otherwise move its 90th percentile from seed to
# seed, and holds decompose off-circle/10 three times, which puts the rank
# of its 50th percentile inside a group of requests of one cost.
_EXACT_REPEATED = (
    [("order", "jordan", d) for d in (2, 3, 4, 5, 6)]
    + [("order", "sheared", 4), ("order", "off-circle", 3)]
    + [("decompose", "jordan", d) for d in (6, 9, 12)]
    + [("decompose", "sheared", 5), ("decompose", "off-circle", 10)]
    + [("ortho", "jordan", d) for d in (3, 6)] + [("ortho", "fixed", (4, 4, 2))]
    + [("ortho", "sheared", 4)]
    + [("perturb", "scalar-base", 3), ("perturb", "block-polynomial", 3),
       ("perturb", "cross-coupled", 2)]
    + [("shift", d, at) for d, at in ((2, False), (3, True))]
)
_EXACT_ONCE = (
    [("verify", suite, 0) for suite in VERIFY_SUITES]
    + [("order", "fixed", sizes) for sizes in (
        (3, 3, 2), (3, 2, 2, 1), (2, 2, 2, 2), (4, 2, 2), (4, 3, 1), (5, 3), (4, 4, 2))]
)
EXACT_SLOTS = 2 * _EXACT_REPEATED + _EXACT_ONCE

FLOAT_SLOTS = (
    [("order", "jordan", d) for d in (2, 3, 4, 5, 6, 7, 8)]
    + [("order", "fixed", (5, 3, 2)), ("order", "fixed", (6, 4, 2))]
    + [("order", "single", d) for d in (9, 10, 11, 12)]
    + [("order", "sheared", 5), ("order", "off-circle", 3), ("order", "off-circle", 6)]
    + [("decompose", "jordan", d) for d in (3, 6, 9, 12)]
    + [("decompose", "sheared", 5), ("decompose", "off-circle", 4)]
    + 3 * [("decompose", "off-circle", 10)]
    + [("ortho", "jordan", d) for d in (3, 8, 12)]
    + [("ortho", "sheared", d) for d in (3, 5)]
    + [("perturb", "scalar-base", 3), ("perturb", "block-polynomial", 3),
       ("perturb", "cross-coupled", 2)]
    + [("shift", d, at) for d, at in ((1, True), (2, False), (3, True), (4, False))]
)


def _slot_request(rng, np_rng, mode, slot, tag):
    command, kind, size = slot
    if command == "verify":
        return verify_request(kind, rng.randrange(2 ** 31), tag)
    if command == "perturb":
        return perturb_request(rng, np_rng, mode, kind, size, tag)
    if command == "shift":
        return shift_request(rng, mode, kind, size, tag)
    return dense_request(rng, np_rng, mode, command, kind, size, tag)


# The traced run replays a shorter exact cycle, each kind of slot once, so
# that its four passes (worker.traced) stay within the run's deadline.
TRACE_SLOTS = {
    "exact-cli": (_EXACT_REPEATED + _EXACT_ONCE[:3] + _EXACT_ONCE[-1:]),
    "float-cli": FLOAT_SLOTS,
}


def cycle_slots(workload, traced=False):
    """The slots of one cycle; with traced, those of the traced run's cycle."""
    if traced:
        return TRACE_SLOTS[workload]
    return EXACT_SLOTS if workload == "exact-cli" else FLOAT_SLOTS


def cycle_requests(workload, seed, cycle, traced=False):
    """The requests of one cycle, in their seeded order; with traced, those
    of the traced run's cycle."""
    rng = random.Random(f"{workload}:{seed}:{cycle}")
    import numpy as np

    np_rng = np.random.default_rng([seed % 2 ** 32, cycle])
    mode = "exact" if workload == "exact-cli" else "float"
    slots = cycle_slots(workload, traced)
    reqs = [_slot_request(rng, np_rng, mode, slot, f"c{cycle}-{i}")
            for i, slot in enumerate(slots)]
    rng.shuffle(reqs)
    return reqs


WORKLOADS = ("exact-cli", "float-cli")


# ---------------------------------------------------------------------------
# Oracle
# ---------------------------------------------------------------------------

def check(req, rc, report):
    """None when the request's output matches its expectation, else
    (shape, message); the shape names the kind of failure (KNOWN_DEFECTS)."""
    if rc != 0:
        return "exit", f"exit code {rc}"
    if not isinstance(report, dict):
        return "no-report", "no JSON report written"
    try:
        return _check_report(req, report)
    except (KeyError, IndexError, TypeError) as exc:
        return "malformed", f"malformed report: {type(exc).__name__} {exc}"


def _check_report(req, report):
    exp = req.expect
    cmd = exp["command"]
    if cmd == "verify":
        suites = report["suites"]
        if len(suites) != 1 or not suites[0]["passed"]:
            return "suite", f"suite failed: {suites[0]['failures'] if suites else suites}"
        return None
    if cmd == "order":
        v = report["verdict"]
        if exp["certified"]:
            if v["kind"] != "strict-order" or v["m"] != exp["order"]:
                return "order", f"verdict {v['kind']}({v['m']}), want strict-order({exp['order']})"
            if req.mode == "float" and not v["residual"] <= FLOAT_RESIDUAL_BOUND:
                return "residual", f"residual {v['residual']:.2e} above {FLOAT_RESIDUAL_BOUND:g}"
        elif v["kind"] != "not-within-bound" or v["m"] != 2 * exp["dim"] + 1:
            return "verdict", (f"verdict {v['kind']}({v['m']}), "
                               f"want not-within-bound({2 * exp['dim'] + 1})")
        want = exp.get("basis_degrees")
        if want is not None and report["basis_orbit_degrees"] != want:
            return "basis-degrees", f"basis orbit degrees {report['basis_orbit_degrees']}, want {want}"
        return None
    if cmd == "decompose":
        d = report["decomposition"]
        if d["certified"] != exp["certified"]:
            return "certified", f"certified={d['certified']}, want {exp['certified']} ({d['failures']})"
        if exp["certified"]:
            if d["predicted_strict_order"] != exp["order"]:
                return "order", f"predicted order {d['predicted_strict_order']}, want {exp['order']}"
            if "blocks" in exp:
                got = sorted((b["eigenvalue"], b["dimension"], b["nilpotency_index"])
                             for b in d["blocks"])
                if got != [tuple(b) for b in exp["blocks"]]:
                    return "blocks", f"blocks {got}, want {exp['blocks']}"
            if "block_shapes" in exp:
                got = sorted((b["dimension"], b["nilpotency_index"]) for b in d["blocks"])
                if got != [tuple(b) for b in exp["block_shapes"]]:
                    return "blocks", f"block shapes {got}, want {exp['block_shapes']}"
        return None
    if cmd == "ortho":
        o = report["orthogonality"]
        if not o["agrees_with_theory"]:
            return "agrees", "agrees_with_theory is false"
        if o["mixed_inner_vanishes"] != exp["orthogonal"]:
            return "mixed", (f"mixed_inner_vanishes={o['mixed_inner_vanishes']}, "
                             f"want {exp['orthogonal']}")
        return None
    if cmd == "perturb":
        p = report["perturbation"]
        got = (p["base_order"], p["nilpotency_index"], p["order_bound"], p["bound_verified"])
        want = (exp["base_order"], exp["nu"], exp["bound"], True)
        if got != want:
            return "perturb", f"(m_A, nu, bound, verified)={got}, want {want}"
        return None
    if cmd == "shift":
        s = report["shift"]
        got = (s["generator_degree"], s["is_m_isometry"], s["positivity_certified"])
        want = (exp["degree"], exp["is_m_isometry"], True)
        if got != want:
            return "shift", f"(degree, is_m_isometry, positivity)={got}, want {want}"
        return None
    return "unknown", f"unknown command {cmd}"
