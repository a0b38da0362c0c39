"""Seeded test corpora and named verification suites.

Every suite derives its expectations from an independent oracle —
closed-form strict orders, telescoping weight products, hand-expanded
worked examples — and reports pass/fail with one message per violated
check.  Generation is deterministic in the seed, so suite runs are
reproducible and diffable.
"""

from __future__ import annotations

import random
import reprlib
from fractions import Fraction
from itertools import islice
from typing import NamedTuple, Optional

from .diffcalc import OrbitSequence, detect_degree, difference_table, newton_reconstruct
from .errors import MisolabError
from .isometry import DEFAULT_DEFECT_TOL, defect, orbit_sequence, strict_order
from .matrices import (
    DenseOperator,
    direct_sum,
    np,
    orbit,
    vec_add,
    vec_inner,
    vec_norm_sq,
)
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, Scalar
from .shifts import shift_from_polynomial, shift_is_m_isometry
from .spectral import (
    JordanSpec,
    algebraic_decompose,
    from_numpy,
    jordan_matrix,
    jordan_pair_equivalences,
    perturbation_analysis,
    to_numpy,
)

FLOAT_RESIDUAL_BOUND = 1e-6

UNIMODULAR_EXACT = (
    Scalar.exact(1),
    Scalar.exact(-1),
    Scalar.exact(0, 1),
    Scalar.exact(0, -1),
    Scalar.exact(Fraction(3, 5), Fraction(4, 5)),
)
# shear instances stay on the fourth roots of unity: any two distinct ones
# keep |1 - z1*conj(z2)| >= sqrt(2), which makes the nonzero defect signal
# survive float tolerances after unitary conjugation
_SHEAR_POOL = UNIMODULAR_EXACT[:4]
_OFF_CIRCLE_POOL = (
    Scalar.exact(2),
    Scalar.exact(Fraction(1, 2)),
    Scalar.exact(1, 1),
    Scalar.exact(0, 2),
    Scalar.exact(Fraction(-3, 2)),
)

SHIFT_GENERATORS = ((1,), (1, 1), (1, 2, 1), (1, 0, 1), (3, 2))


# ---------------------------------------------------------------------------
# Suite bookkeeping
# ---------------------------------------------------------------------------

class SuiteResult(NamedTuple):
    name: str
    passed: bool
    checks: int
    failures: tuple
    notes: tuple = ()


class _Recorder:
    def __init__(self, name):
        self.name = name
        self.checks = 0
        self.failures = []
        self.notes = []

    def check(self, ok, message):
        self.checks += 1
        if not ok:
            self.failures.append(message)
        return ok

    def result(self):
        return SuiteResult(
            name=self.name,
            passed=not self.failures,
            checks=self.checks,
            failures=tuple(self.failures),
            notes=tuple(self.notes),
        )


# ---------------------------------------------------------------------------
# Float helpers
# ---------------------------------------------------------------------------

def operator_to_float(T):
    return DenseOperator(
        [[Scalar.flt(float(s.re), float(s.im)) for s in row] for row in T.rows]
    )


def random_unitary(dim, np_rng):
    raw = np_rng.standard_normal((dim, dim)) + 1j * np_rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(raw)
    # fix the phase so Q is a deterministic function of the draw
    return q @ np.diag(np.diag(r) / np.abs(np.diag(r)))


def conjugate_by_unitary(T, u):
    return from_numpy(u @ to_numpy(T) @ u.conj().T)


def _conjugated(np_rng):
    """The float lift U T U* of an exact T, one random_unitary draw per call."""
    return lambda T: conjugate_by_unitary(operator_to_float(T), random_unitary(T.dim, np_rng))


# ---------------------------------------------------------------------------
# Corpora
# ---------------------------------------------------------------------------

class CorpusInstance(NamedTuple):
    kind: str                  # "certified" | "sheared" | "off-circle"
    operator: DenseOperator
    eigen_hints: tuple
    expected_order: Optional[int]   # strict order for certified instances


def _certified_instance(rng):
    zs = rng.sample(list(UNIMODULAR_EXACT), rng.randint(1, 3))
    sizes = []
    budget = 6
    for idx in range(len(zs)):
        remaining = len(zs) - idx - 1
        size = rng.randint(1, min(3, budget - remaining))
        sizes.append(size)
        budget -= size
    T = direct_sum(*[jordan_matrix(JordanSpec(z, s)) for z, s in zip(zs, sizes)])
    return CorpusInstance(
        kind="certified",
        operator=T,
        eigen_hints=tuple(zs),
        expected_order=max(2 * s - 1 for s in sizes),
    )


def _entry_matrix(dim, mode, positions):
    zero = Scalar.zero(mode)
    rows = [[zero] * dim for _ in range(dim)]
    for (i, j), val in positions.items():
        rows[i][j] = val
    return DenseOperator(rows)


def _sheared_instance(rng):
    """Conjugate an orthogonal two-block sum by the shear I + c E_{r,s}
    with r in the first block and s in the second; the images of the two
    generalized eigenspaces then have cross inner product conj(c) != 0."""
    z1, z2 = rng.sample(list(_SHEAR_POOL), 2)
    s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
    S = direct_sum(jordan_matrix(JordanSpec(z1, s1)), jordan_matrix(JordanSpec(z2, s2)))
    dim = s1 + s2
    r = rng.randrange(s1)
    s = s1 + rng.randrange(s2)
    c = Scalar.exact(rng.choice([1, -1, 2]))
    E = _entry_matrix(dim, EXACT, {(r, s): c})
    ident = DenseOperator.identity(dim, EXACT)
    T = (ident + E) @ S @ (ident - E)   # (I+E)^-1 = I-E since E^2 = 0
    return CorpusInstance(
        kind="sheared", operator=T, eigen_hints=(z1, z2), expected_order=None
    )


def _off_circle_instance(rng):
    z_bad = rng.choice(_OFF_CIRCLE_POOL)
    blocks = [jordan_matrix(JordanSpec(z_bad, rng.randint(1, 2)))]
    hints = [z_bad]
    if rng.random() < 0.7:
        z_good = rng.choice(UNIMODULAR_EXACT)
        blocks.append(jordan_matrix(JordanSpec(z_good, rng.randint(1, 2))))
        hints.append(z_good)
    return CorpusInstance(
        kind="off-circle",
        operator=direct_sum(*blocks),
        eigen_hints=tuple(hints),
        expected_order=None,
    )


def decomposition_corpus(seed=0, per_kind=20):
    rng = random.Random(seed)
    out = [_certified_instance(rng) for _ in range(per_kind)]
    out += [_sheared_instance(rng) for _ in range(per_kind)]
    out += [_off_circle_instance(rng) for _ in range(per_kind)]
    return out


class PerturbationInstance(NamedTuple):
    kind: str
    base: DenseOperator         # A, an m-isometry
    nilpotent: DenseOperator    # N, commuting with A


def _strict_upper_random(rng, dim):
    rows = [
        [
            Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2)) if j > i
            else Scalar.exact(0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    return DenseOperator(rows)


def _shift_power(dim, t):
    """S^t for S the size-dim nilpotent Jordan block (zero for t >= dim)."""
    return _entry_matrix(dim, EXACT, {(i, i + t): Scalar.one(EXACT) for i in range(dim - t)})


def perturbation_corpus(seed=0, count=30):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        style = i % 3
        if style == 0:
            # scalar unimodular base, arbitrary nilpotent (always commutes)
            z = rng.choice(UNIMODULAR_EXACT)
            dim = rng.randint(2, 4)
            A = DenseOperator.identity(dim, EXACT).scale(z)
            N = _strict_upper_random(rng, dim)
            out.append(PerturbationInstance("scalar-base", A, N))
        elif style == 1:
            # Jordan block sum, per-block perturbation c * S^t (a polynomial
            # in the block's own nilpotent part, so it commutes)
            zs = rng.sample(list(UNIMODULAR_EXACT), rng.randint(1, 2))
            blocks, nils = [], []
            for z in zs:
                k = rng.randint(2, 3)
                blocks.append(jordan_matrix(JordanSpec(z, k)))
                c = rng.choice([0, 1, -1, 2])
                t = rng.randint(1, k - 1)
                nils.append(_shift_power(k, t).scale(Scalar.exact(c)))
            out.append(PerturbationInstance(
                "block-polynomial", direct_sum(*blocks), direct_sum(*nils)))
        else:
            # two identical blocks coupled by N = [[0, S^t], [0, 0]], S^(k+t) of
            # size 2k; S^t commutes with the block, so N commutes with J (+) J
            z = rng.choice(UNIMODULAR_EXACT)
            k = rng.randint(2, 3)
            J = jordan_matrix(JordanSpec(z, k))
            A = direct_sum(J, J)
            t = rng.choice([0, 1])
            out.append(PerturbationInstance("cross-coupled", A, _shift_power(2 * k, k + t)))
    return out


def density_operators():
    """Ten strict m-isometries with m in {3, 5, 7}: block sums whose largest
    Jordan block has size (m+1)/2."""
    i_ = Scalar.exact(0, 1)
    z45 = Scalar.exact(Fraction(3, 5), Fraction(4, 5))
    specs = [
        (3, [(Scalar.exact(1), 2)]),
        (3, [(i_, 2), (Scalar.exact(-1), 1)]),
        (3, [(z45, 2)]),
        (3, [(-i_, 2), (Scalar.exact(1), 1)]),
        (5, [(Scalar.exact(1), 3)]),
        (5, [(i_, 3), (Scalar.exact(-1), 2)]),
        (5, [(z45, 3)]),
        (7, [(Scalar.exact(1), 4)]),
        (7, [(Scalar.exact(-1), 4), (i_, 2)]),
        (7, [(i_, 4)]),
    ]
    return [
        (m, direct_sum(*[jordan_matrix(JordanSpec(z, k)) for z, k in blocks]))
        for m, blocks in specs
    ]


# ---------------------------------------------------------------------------
# Suites.  A law checked in both modes has one checker: exact on exact operators,
# float on their lifts (_conjugated) or on float generators, at DEFAULT_DEFECT_TOL.
# ---------------------------------------------------------------------------

def _jordan_checks(rec, sizes, lift=None):
    """Strict order 2k - 1 of J_k(z) at each unimodular z; lifted, also the residual
    up to size 11: from size 12 on the input's own rounding reaches the bound (the
    exact defects of the float input of a size-12 conjugation reach 5.7e-7)."""
    prefix = "" if lift is None else "float "
    for z in UNIMODULAR_EXACT:
        for k in sizes:
            T = jordan_matrix(JordanSpec(z, k))
            v = strict_order(T if lift is None else lift(T))
            tag = f"{prefix}block z={z!r} size {k}"
            rec.check(v.strict and v.m == 2 * k - 1,
                      f"{tag}: got {v.describe()}, want strict-order({2 * k - 1})")
            if lift is not None and k <= 11:
                rec.check(v.residual <= FLOAT_RESIDUAL_BOUND,
                          f"{tag}: residual {v.residual:.2e}")


def _shift_checks(rec, mode):
    """The shift of each generator p in mode is a (deg p + 1)- and no (deg p)-isometry,
    with orbit norms p(n + j) / p(j): exact, as got p(j) == p(n + j); in float
    within the bound times max(1, the norm)."""
    prefix = "" if mode == EXACT else "float "

    def agree(got, pj, pnj):
        if mode == EXACT:
            return got * pj == pnj
        want = float((pnj / pj).re)
        return abs(float(got.re) - want) <= FLOAT_RESIDUAL_BOUND * max(1.0, want)

    for ints in SHIFT_GENERATORS:
        p = Polynomial.from_ints(ints, mode=mode)
        d = p.degree
        W = shift_from_polynomial(p, prefix_len=32)
        rec.check(shift_is_m_isometry(W, d + 1, tol=DEFAULT_DEFECT_TOL),
                  f"{prefix}generator {ints}: not flagged as a {d + 1}-isometry")
        rec.check(not shift_is_m_isometry(W, d, tol=DEFAULT_DEFECT_TOL),
                  f"{prefix}generator {ints}: wrongly flagged at order {d}")
        values = [p(n) for n in range(32)]
        for j in range(7):
            orbit_j = W.basis_orbit(j, 25 - j).values
            for n in range(25 - j):
                ok = agree(orbit_j[n], values[j], values[n + j])
                rec.check(ok, None if ok else
                          f"{prefix}generator {ints}: orbit norm mismatch at j={j}, n={n}")


def _decomposition_checks(rec, seed, lift=None):
    """A certified instance of decomposition_corpus(seed) is certified and of the strict
    order max(2 nu - 1) it predicts, an odd one (exact) or within the residual bound
    (lifted); any other is refused and not strict.  Float mode reads no hints."""
    prefix = "" if lift is None else "float "
    for idx, inst in enumerate(decomposition_corpus(seed)):
        tag = f"{prefix}instance {idx} ({inst.kind})"
        T = inst.operator if lift is None else lift(inst.operator)
        dec = algebraic_decompose(T, eigen_hints=inst.eigen_hints)
        order = strict_order(T)
        if inst.kind == "certified":
            rec.check(dec.certified, f"{tag}: refused: {dec.failures}")
            rec.check(order.strict and order.m == inst.expected_order,
                      f"{tag}: order {order.describe()}, want {inst.expected_order}")
            rec.check(dec.certified and dec.predicted_strict_order == inst.expected_order,
                      f"{tag}: predicted {dec.predicted_strict_order}")
            if lift is None:
                rec.check(dec.certified and dec.predicted_strict_order % 2 == 1,
                          f"{tag}: predicted order is even")
            else:
                rec.check(order.residual <= FLOAT_RESIDUAL_BOUND,
                          f"{tag}: residual {order.residual:.2e}")
        else:
            rec.check(not dec.certified, f"{tag}: wrongly certified")
            rec.check(not order.strict, f"{tag}: unexpected {order.describe()}")


def suite_jordan_orders(seed=0):
    rec = _Recorder("jordan-orders")
    _jordan_checks(rec, range(1, 6))
    return rec.result()


def suite_newton_roundtrip(seed=0):
    rec = _Recorder("newton-roundtrip")
    rng = random.Random(seed)
    for i in range(200):
        deg = rng.randint(0, 6)
        p = Polynomial(
            [Scalar.exact(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
             for _ in range(deg + 1)],
            mode=EXACT,
        )
        gamma = OrbitSequence([p(n) for n in range(deg + 4)])
        try:
            # reading the last row makes every row, and making a row
            # cross-checks its binomial-sum form against iterated subtraction
            difference_table(gamma, gamma.window_len - 1).row(gamma.window_len - 1)
            q = newton_reconstruct(gamma)
        except MisolabError as exc:
            rec.check(False, f"sample {i}: {exc}")
            continue
        rec.check(q == p, f"sample {i}: reconstruction differs from the source")
    return rec.result()


def suite_defect_consistency(seed=0):
    rec = _Recorder("defect-consistency")
    rng = random.Random(seed)
    for i in range(100):
        T = DenseOperator(
            [[Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
             for _ in range(4)]
        )
        try:
            # defect() recomputes each beta_m by the recurrence and raises
            # unless it matches the definitional sum
            betas = [defect(T, m) for m in range(7)]
        except MisolabError as exc:
            rec.check(False, f"matrix {i}: {exc}")
            continue
        rec.check(True, "")
        for j in range(5):
            h = tuple(Scalar.exact(rng.randint(-3, 3), rng.randint(-3, 3))
                      for _ in range(4))
            gamma = orbit_sequence(T, h, window_len=8)
            table = difference_table(gamma, 6)
            for m in range(7):
                lhs = table.row(m)[0]
                rhs = vec_inner(betas[m].matrix.apply(h), h) * ((-1) ** m)
                rec.check(
                    (lhs - rhs).is_zero(),
                    f"matrix {i} vector {j}: difference row {m} at 0 differs "
                    "from the defect quadratic form",
                )
    return rec.result()


def suite_shift_factory(seed=0):
    rec = _Recorder("shift-factory")
    _shift_checks(rec, EXACT)
    return rec.result()


def suite_decomposition(seed=0):
    rec = _Recorder("decomposition")
    _decomposition_checks(rec, seed)
    return rec.result()


def suite_perturbation(seed=0):
    rec = _Recorder("perturbation")
    for idx, inst in enumerate(perturbation_corpus(seed)):
        tag = f"pair {idx} ({inst.kind})"
        try:
            res = perturbation_analysis(inst.base, inst.nilpotent)
        except MisolabError as exc:
            rec.check(False, f"{tag}: {exc}")
            continue
        rec.check(res.bound_verified,
                  f"{tag}: defect of order {res.m_bound} does not vanish")
        actual = strict_order(inst.base + inst.nilpotent, m_max=res.m_bound)
        rec.check(actual.strict,
                  f"{tag}: perturbed order exceeds the bound {res.m_bound}")
        if res.strict:
            rec.check(actual.strict and actual.m == res.m_bound,
                      f"{tag}: criterion fired but order {actual.m} < {res.m_bound}")
        else:
            rec.check(actual.strict and actual.m < res.m_bound,
                      f"{tag}: criterion silent but order reached the bound")
    return rec.result()


def suite_density(seed=0):
    rec = _Recorder("density")
    rng = random.Random(seed)
    for op_idx, (m, T) in enumerate(density_operators()):
        hits = 0
        for _ in range(50):
            h = tuple(
                Scalar.exact(rng.choice([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5]),
                             rng.randint(-5, 5))
                for _ in range(T.dim)
            )
            gamma = orbit_sequence(T, h, window_len=m + 4)
            verdict = detect_degree(gamma)
            if verdict.polynomial and not verdict.zero_sequence \
                    and verdict.degree == m - 1:
                hits += 1
        rec.check(hits >= 49,
                  f"operator {op_idx} (order {m}): only {hits}/50 random "
                  f"vectors reached degree {m - 1}")
    return rec.result()


def suite_float_robustness(seed=0):
    rec = _Recorder("float-robustness")
    np_rng = np.random.default_rng(seed)
    lift = _conjugated(np_rng)

    _jordan_checks(rec, range(1, 6), lift)

    # the non-orthogonal two-chain worked example after unitary conjugation
    i_f = Scalar.flt(0.0, 1.0)
    T0 = DenseOperator([
        [i_f, Scalar.flt(2.0)],
        [Scalar.flt(0.0), -i_f],
    ])
    u = random_unitary(2, np_rng)
    T = conjugate_by_unitary(T0, u)
    h1 = tuple(Scalar.flt(x.real, x.imag) for x in u @ np.array([1, 0], dtype=complex))
    h2 = tuple(Scalar.flt(x.real, x.imag) for x in u @ np.array([1j, 1], dtype=complex))
    for n, w in enumerate(islice(orbit(T, vec_add(h1, h2)), 21)):
        rec.check(abs(float(vec_norm_sq(w).re) - 3.0) <= FLOAT_RESIDUAL_BOUND,
                  f"float example: orbit norm at n={n} deviates from 3")
    powers_h1 = list(islice(orbit(T, h1), 7))
    powers_h2 = list(islice(orbit(T, h2), 7))
    for k in range(7):
        for l in range(7):
            got = vec_inner(powers_h1[k], powers_h2[l]).as_complex()
            want = -(1j ** (k + l + 1))
            rec.check(abs(got - want) <= FLOAT_RESIDUAL_BOUND,
                      f"float example: inner product at k={k}, l={l} off target")
    v9 = strict_order(T, m_max=9)
    rec.check((not v9.strict) and v9.m == 9,
              f"float example: got {v9.describe()}, want not-within-bound(9)")
    report = jordan_pair_equivalences(T, h1, h2, i_f, -i_f)
    rec.check(report.all_agree and not any(report.conditions()),
              f"float example: equivalence conditions {report.conditions()}")

    _shift_checks(rec, FLOAT)
    _decomposition_checks(rec, seed, lift)
    # sizes 6-16 draw from a stream of their own, so that no check above moves
    _jordan_checks(rec, range(6, 17), _conjugated(np.random.default_rng([seed, 1])))
    return rec.result()


SUITES = {
    "jordan-orders": suite_jordan_orders,
    "newton-roundtrip": suite_newton_roundtrip,
    "defect-consistency": suite_defect_consistency,
    "shift-factory": suite_shift_factory,
    "decomposition": suite_decomposition,
    "perturbation": suite_perturbation,
    "density": suite_density,
    "float-robustness": suite_float_robustness,
}


def run_suite(name, seed=0):
    if name not in SUITES:
        raise KeyError(f"unknown suite {reprlib.repr(name)}; "
                       f"available: {', '.join(sorted(SUITES))}")
    return SUITES[name](seed)


def run_all_suites(seed=0):
    return [fn(seed) for fn in SUITES.values()]
