"""The kernels against the Scalar loops in both modes, and the internal
cross-checks that guard them."""

import math
from fractions import Fraction
from functools import reduce
from itertools import islice
from operator import add, mul, sub

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from misolab import (
    DegreeVerdict,
    DenseOperator,
    DimensionMismatchError,
    InternalCheckError,
    JordanSpec,
    MisolabError,
    ModeMismatchError,
    OrbitSequence,
    Polynomial,
    PreconditionError,
    Scalar,
    defect,
    detect_degree,
    direct_sum,
    jordan_matrix,
    local_isometry_survey,
    orbit,
    orbit_sequence,
    strict_order,
    vec_add,
    vec_inner,
)
from misolab import isometry, matrices, polynomials
from misolab.diffcalc import _check_binomial_form, default_window_len
from misolab.isometry import (
    DefectOperator,
    _defects,
    _grams,
    _nonzero_form_witness,
    _survey_windows,
)
from misolab.matrices import (_box, _forms, _int_form, _orbit_inners, _polarization_values,
                              _polarization_vector, basis_vector, float_max_abs,
                              polarization_pairs, vec_max_abs)
from misolab.scalars import EXACT, FLOAT, zero_threshold
from misolab.suites import (UNIMODULAR_EXACT, conjugate_by_unitary, operator_to_float,
                            random_unitary)

# ---------------------------------------------------------------------------
# Reference Scalar loops: the kernels must reproduce them entry by entry,
# exactly in exact mode and bit for bit in float mode.
# ---------------------------------------------------------------------------


def ref_dot(row, vec):
    acc = row[0] * vec[0]
    for a, x in zip(row[1:], vec[1:]):
        acc = acc + a * x
    return acc


def ref_matmul(a, b):
    cols = list(zip(*b.rows))
    return [[ref_dot(row, col) for col in cols] for row in a.rows]


def ref_apply(a, v):
    return tuple(ref_dot(row, v) for row in a.rows)


def ref_inner(u, v):
    acc = u[0] * v[0].conj()
    for a, b in zip(u[1:], v[1:]):
        acc = acc + a * b.conj()
    return acc


def ref_defect_from_grams(grams, m):
    n = grams[0].dim
    acc = [[Scalar.zero(EXACT)] * n for _ in range(n)]
    for k in range(m + 1):
        c = Scalar.from_int((-1) ** k * math.comb(m, k), EXACT)
        acc = [[x + c * g for x, g in zip(ra, rg)] for ra, rg in zip(acc, grams[k].rows)]
    return tuple(map(tuple, acc))


def ref_combine(a, b, op):
    return [[op(x, y) for x, y in zip(ra, rb)] for ra, rb in zip(a.rows, b.rows)]


def ref_adjoint(a):
    return [[a.rows[j][i].conj() for j in range(a.dim)] for i in range(a.dim)]


def ref_defect_walk(T, m):
    """(rows, scale) of beta_0 .. beta_m by the recurrence beta_{k+1} = beta_k
    - T* beta_k T as Scalar loops, with the float scale: the running maximum
    of |beta_k| + |T* beta_k T|, each the largest Scalar.modulus, from 1."""
    Tstar = DenseOperator(ref_adjoint(T))
    beta, scale, out = DenseOperator.identity(T.dim, T.mode), 1.0, []
    for _ in range(m + 1):
        out.append((beta.rows, scale))
        step = DenseOperator(ref_matmul(DenseOperator(ref_matmul(Tstar, beta)), T))
        scale = max(scale, max(s.modulus() for r in beta.rows for s in r)
                    + max(s.modulus() for r in step.rows for s in r))
        beta = DenseOperator(ref_combine(beta, step, sub))
    return out


def ref_largest(moduli):
    """The largest modulus, nan if any is nan, wherever it sits."""
    return math.nan if any(map(math.isnan, moduli)) else max(moduli)


def polarization_candidates(vectors):
    """The candidates of polarization_pairs made from the vectors."""
    return [_polarization_vector(vectors.__getitem__, *c) for c in polarization_pairs(len(vectors))]


def ref_nonzero_form_witness(d, tol):
    """The witness search as a vector loop: one apply and one vec_inner per
    polarization candidate."""
    beta = d.matrix
    dim, mode = beta.dim, beta.mode
    thr = d.threshold(tol) * 0.25 if mode == FLOAT else 0.0
    best, best_val = None, thr
    for h in polarization_candidates([basis_vector(dim, j, mode) for j in range(dim)]):
        form = vec_inner(beta.apply(h), h)
        val = form.modulus() if mode == FLOAT else abs(form.re)
        if val > best_val:
            best, best_val = h, val
    return best


# Large, coprime and mixed denominators, plus exact zeros.
denominators = st.one_of(
    st.sampled_from([1, 2, 3, 5, 7, 25, 2 ** 61 - 1, 10 ** 20 + 39]),
    st.integers(1, 10 ** 30),
)
parts = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25), denominators),
)
gaussian = st.builds(Scalar.exact, parts, parts)


def vectors(n):
    return st.lists(gaussian, min_size=n, max_size=n).map(tuple)


def operators(n):
    return st.lists(vectors(n), min_size=n, max_size=n).map(DenseOperator)


dims = st.integers(1, 4)
# few values, so that candidates tie and "first best" decides
tied_parts = st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)])


def square(n, hermitian, entries):
    """n x n rows of the entries; Hermitian (the upper triangle mirrored,
    the diagonal real) if asked."""
    rows = [entries[i * n:(i + 1) * n] for i in range(n)]
    if hermitian:
        for i in range(n):
            rows[i][i] = Scalar(rows[i][i].mode, rows[i][i].re, rows[i][i].re * 0)
            for j in range(i):
                rows[i][j] = rows[j][i].conj()
    return rows


class TestExactKernels:
    @given(dims.flatmap(lambda n: st.tuples(operators(n), operators(n))))
    @settings(max_examples=30, deadline=None)
    def test_matmul(self, ab):
        a, b = ab
        assert list(map(list, (a @ b).rows)) == ref_matmul(a, b)

    @given(dims.flatmap(lambda n: st.tuples(operators(n), vectors(n))))
    @settings(max_examples=30, deadline=None)
    def test_apply(self, av):
        a, v = av
        assert a.apply(v) == ref_apply(a, v)

    @given(dims.flatmap(lambda n: st.tuples(vectors(n), vectors(n))))
    @settings(max_examples=30, deadline=None)
    def test_vec_inner(self, uv):
        u, v = uv
        assert vec_inner(u, v) == ref_inner(u, v)
        assert vec_inner(u, u) == ref_inner(u, u)

    @given(st.integers(0, 4), dims.flatmap(operators))
    @settings(max_examples=25, deadline=None)
    def test_defect_walk(self, m, T):
        grams = list(islice(_grams(T), m + 1))
        for k, d in enumerate(islice(_defects(T), m + 1)):
            assert d.m == k
            assert d.matrix.rows == ref_defect_from_grams(grams, k)

    @given(dims.flatmap(lambda n: st.tuples(operators(n), operators(n), operators(n))))
    @settings(max_examples=30, deadline=None)
    def test_operators_made_from_parts(self, abc):
        # a @ b holds only its parts; each operation on it equals the Scalar loop
        a, b, c = abc
        ref = DenseOperator(ref_matmul(a, b))
        assert a @ b == ref and hash(a @ b) == hash(ref)
        for op in (add, sub):
            assert list(map(list, op(a @ b, c).rows)) == ref_combine(ref, c, op)
            assert list(map(list, op(c, a @ b).rows)) == ref_combine(c, ref, op)
        assert list(map(list, (a @ b).adjoint().rows)) == ref_adjoint(ref)
        assert (a @ b).is_zero() == all(s.is_zero() for r in ref.rows for s in r)
        assert (a @ b - a @ b).is_zero()
        assert (a @ b).max_abs() == max(s.modulus() for r in ref.rows for s in r)

    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.booleans(),
        st.lists(st.tuples(tied_parts, tied_parts), min_size=n * n, max_size=n * n))),
        st.integers(1, 6))
    @settings(max_examples=80, deadline=None)
    def test_witness_reads_the_entries(self, case, k):
        n, hermitian, entries = case
        beta = DefectOperator(m=1, matrix=DenseOperator(
            square(n, hermitian, [Scalar.exact(x, y) for x, y in entries])))
        assert _nonzero_form_witness(beta, 0.0) == ref_nonzero_form_witness(beta, 0.0)
        # beta over a denominator k times its least one, as _defects makes it
        den, rows = beta.matrix._row_parts()
        scaled = DenseOperator._from_parts(EXACT, den * k, [([x * k for x in re], [y * k for y in im])
                                                            for re, im in rows])
        assert scaled == beta.matrix
        assert (_nonzero_form_witness(DefectOperator(m=1, matrix=scaled), 0.0)
                == ref_nonzero_form_witness(beta, 0.0))

    def test_int_form(self):
        den, re, im = _int_form([Scalar.exact(Fraction(1, 6), Fraction(-3, 4)),
                                 Scalar.exact(0, 5)])
        assert (den, re, im) == (12, [2, 0], [-9, 60])

    def test_mixed_modes_raise(self):
        a = DenseOperator.from_ints([[1, 0], [0, 1]])
        exact = (Scalar.exact(1), Scalar.exact(0))
        mixed = (Scalar.exact(1), Scalar.flt(0.0))
        with pytest.raises(ModeMismatchError):
            a.apply(mixed)
        with pytest.raises(ModeMismatchError):
            vec_inner(exact, mixed)
        with pytest.raises(ModeMismatchError):
            vec_inner(mixed, exact)


# Finite floats with signed zeros, subnormals and magnitudes whose products
# overflow to inf (and sums of those to nan).
float_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.0, -0.1, 1e308,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
float_scalars = st.builds(Scalar.flt, float_parts, float_parts)
tied_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e300, -1e300, 9e307, -9e307, 1.7e308,
                     -1.7e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)
BOUNDED = st.floats(-1e30, 1e30)


def float_vectors(n, scalars=float_scalars):
    return st.lists(scalars, min_size=n, max_size=n).map(tuple)


def float_operators(n, scalars=float_scalars):
    return st.lists(float_vectors(n, scalars), min_size=n, max_size=n).map(DenseOperator)


def bits(scalars):
    """float.hex of every part: equal bits, signed zeros included."""
    return [(s.re.hex(), s.im.hex()) for s in scalars]


# 9 to 16 terms per sum: numpy's pairwise sum (np.sum, add.reduce) departs
# from left to right only from 8 terms on, and BLAS (@, np.dot) fuses
# multiply-adds.  The parts are bounded, so that long sums cancel and round
# without overflowing.
long_dims = st.integers(9, 16)
unit_scalars = st.builds(Scalar.flt, st.floats(-1, 1), st.floats(-1, 1))


# (n, hermitian, entries) of float operators B whose forms <B h, h> overflow
OVERFLOWING_FORMS = [
    # an entry of B h outside a and b overflows, so the vector loop's value
    # is nan: Hermitian, on e_0 + e_2
    (3, True, [(-1.7e308, -1.0), (1.7e308, -1.7e308), (0.5, -1.7e308), (9e307, -1.7e308),
               (-9e307, -1.7e308), (-1.7e308, -9e307), (-1.7e308, -1.7e308), (0.5, -9e307),
               (-1.0, 9e307)]),
    # entry a of B h overflows, and its product with conj(1) = 1 - 0i makes
    # the other part nan
    (2, False, [(0.5, 9e307), (9e307, 0.0), (-9e307, -1.7e308), (-9e307, -9e307)]),
]


class TestFloatKernels:
    @given(dims.flatmap(lambda n: st.tuples(float_operators(n), float_operators(n))))
    @settings(max_examples=60, deadline=None)
    def test_matmul(self, ab):
        a, b = ab
        for row, ref in zip((a @ b).rows, ref_matmul(a, b)):
            assert bits(row) == bits(ref)

    @given(dims.flatmap(lambda n: st.tuples(float_operators(n), float_vectors(n))))
    @settings(max_examples=60, deadline=None)
    def test_apply(self, av):
        a, v = av
        assert bits(a.apply(v)) == bits(ref_apply(a, v))

    @given(dims.flatmap(lambda n: st.tuples(float_vectors(n), float_vectors(n))))
    @settings(max_examples=60, deadline=None)
    def test_vec_inner(self, uv):
        u, v = uv
        assert bits([vec_inner(u, v)]) == bits([ref_inner(u, v)])
        assert bits([vec_inner(u, u)]) == bits([ref_inner(u, u)])

    @given(long_dims.flatmap(lambda n: st.tuples(
        float_operators(n, unit_scalars), float_operators(n, unit_scalars),
        float_vectors(n, unit_scalars), float_vectors(n, unit_scalars))))
    @settings(max_examples=15, deadline=None)
    def test_long_sums(self, abuv):
        a, b, u, v = abuv
        for row, ref in zip((a @ b).rows, ref_matmul(a, b)):
            assert bits(row) == bits(ref)
        assert bits(a.apply(u)) == bits(ref_apply(a, u))
        assert bits([vec_inner(u, v)]) == bits([ref_inner(u, v)])

    # parts below 1e30 in size, so that no defect up to beta_4 overflows;
    # the long walks, beta_8 .. beta_15, on parts of size at most 1
    @given(st.one_of(
        st.tuples(st.integers(0, 4),
                  dims.flatmap(lambda n: float_operators(n, st.builds(Scalar.flt, BOUNDED,
                                                                       BOUNDED)))),
        st.tuples(st.integers(8, 15), st.integers(1, 3).flatmap(
            lambda n: float_operators(n, unit_scalars)))))
    @settings(max_examples=50, deadline=None)
    def test_defect_walk(self, case):
        # the bits and the scale of the Scalar loop of the recurrence
        m, T = case
        for d, (rows, scale) in zip(islice(_defects(T), m + 1), ref_defect_walk(T, m)):
            assert list(map(bits, d.matrix.rows)) == list(map(bits, rows))
            assert d.float_scale.hex() == scale.hex()

    @given(dims.flatmap(lambda n: st.tuples(float_operators(n), float_operators(n),
                                             float_operators(n))),
           st.one_of(st.just(0.0), st.floats(0.0, 1e300)))
    @settings(max_examples=60, deadline=None)
    def test_operators_made_from_parts(self, abc, tol):
        # a @ b holds only its parts; each operation on it equals the Scalar loop
        a, b, c = abc
        ref = DenseOperator(ref_matmul(a, b))
        assert list(map(bits, (a @ b).rows)) == list(map(bits, ref.rows))
        assert (a @ b == ref) == (DenseOperator(ref_matmul(a, b)) == ref)
        if a @ b == ref:
            assert hash(a @ b) == hash(ref)
        for op in (add, sub):
            assert list(map(bits, op(a @ b, c).rows)) == list(map(bits, ref_combine(ref, c, op)))
            assert list(map(bits, op(c, a @ b).rows)) == list(map(bits, ref_combine(c, ref, op)))
        assert list(map(bits, (a @ b).adjoint().rows)) == list(map(bits, ref_adjoint(ref)))
        assert (a @ b).is_zero(tol) == all(s.is_zero(tol) for r in ref.rows for s in r)
        moduli = [s.modulus() for r in ref.rows for s in r]
        assert (a @ b).max_abs().hex() == ref_largest(moduli).hex()

    # tied values, and values near the top of float range, where a sum of
    # two entries overflows to inf in both paths
    @given(st.integers(1, 4).flatmap(lambda n: st.tuples(
        st.just(n), st.booleans(),
        st.lists(st.tuples(tied_floats, tied_floats), min_size=n * n, max_size=n * n))),
        st.sampled_from([0.0, 1e-8, 1.0]), st.floats(1.0, 1e308))
    @example(OVERFLOWING_FORMS[0], 0.0, 1.0)
    @example(OVERFLOWING_FORMS[1], 0.0, 1.0)
    @settings(max_examples=150, deadline=None)
    def test_witness_reads_the_entries(self, case, tol, scale):
        n, hermitian, entries = case
        beta = DefectOperator(m=1, matrix=DenseOperator(
            square(n, hermitian, [Scalar.flt(x, y) for x, y in entries])), float_scale=scale)
        got, ref = _nonzero_form_witness(beta, tol), ref_nonzero_form_witness(beta, tol)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert bits(got) == bits(ref)

    def test_modulus_is_hypot(self, monkeypatch):
        # abs(complex) and math.hypot (Scalar.modulus) differ in about one
        # case in 5,000 on some builds; on this entry abs gives
        # 0x1.61ed3c6c1e630p+4, math.hypot 0x1.61ed3c6c1e62fp+4
        z = Scalar.flt(float.fromhex("0x1.4f6ca3fb9bd5ap+4"),
                       float.fromhex("-0x1.c3beba815dfd2p+2"))
        h = math.hypot(z.re, z.im)
        G = DenseOperator([[z]])
        assert G.max_abs() == h
        # beta_0 = G and T = 0: beta_1 = G - T* G T = G, whose scale is |G| + 0
        zero = DenseOperator([[Scalar.flt(0.0)]])
        monkeypatch.setattr(DenseOperator, "identity", staticmethod(lambda dim, mode: G))
        assert list(islice(_defects(zero), 2))[1].float_scale == h
        # a one-entry beta whose threshold is its own modulus: not above it
        beta = DefectOperator(m=1, matrix=G, float_scale=4 * h)
        assert _nonzero_form_witness(beta, 1.0) is None
        assert _nonzero_form_witness(beta, 0.5) == (Scalar.flt(1.0),)

    def test_mode_mismatch_raises(self):
        exact_op = DenseOperator.from_ints([[1, 0], [0, 1]])
        float_op = DenseOperator.from_ints([[1, 0], [0, 1]], FLOAT)
        with pytest.raises(ModeMismatchError):
            float_op.apply((Scalar.exact(1), Scalar.exact(0)))
        with pytest.raises(ModeMismatchError):
            exact_op.apply((Scalar.flt(1.0), Scalar.flt(0.0)))
        with pytest.raises(ModeMismatchError):
            next(islice(orbit(float_op, (Scalar.exact(1), Scalar.exact(0))), 1, None))


# ---------------------------------------------------------------------------
# The form readers of matrices against the vector loop: each <B u, v> is
# vec_inner(B.apply(u), v), the same value in exact mode and the same bits in
# float mode.
# ---------------------------------------------------------------------------

def float_operator(n, hermitian, entries):
    return DenseOperator(square(n, hermitian, [Scalar.flt(x, y) for x, y in entries]))


def basis_candidates(n, mode):
    return polarization_candidates([basis_vector(n, j, mode) for j in range(n)])


def overflowing_form_case(n, hermitian, entries, pairs):
    """(ops, us, vs) on an OVERFLOWING_FORMS operator and its adjoint: the
    polarization candidates, against themselves alone or (pairs) all of them."""
    B, cands = float_operator(n, hermitian, entries), basis_candidates(n, FLOAT)
    return [B, B.adjoint()], cands, cands if pairs else None


@st.composite
def form_cases(draw):
    """(ops, us, vs): one to three operators and vectors of one mode, vs
    None (v = u) or one to three vectors."""
    n = draw(dims)
    ops, vecs = ((operators(n), vectors(n)) if draw(st.booleans())
                 else (float_operators(n), float_vectors(n)))
    us = draw(st.lists(vecs, min_size=1, max_size=3))
    return (draw(st.lists(ops, min_size=1, max_size=3)), us,
            draw(st.none() | st.lists(vecs, min_size=1, max_size=3)))


def hermitian_operators(mode):
    part, scalar = (tied_parts, Scalar.exact) if mode == EXACT else (tied_floats, Scalar.flt)
    return st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(part, part), min_size=n * n, max_size=n * n).map(
        lambda entries: DenseOperator(square(n, True, [scalar(x, y) for x, y in entries]))))


class TestFormReaders:
    @given(form_cases())
    @example(overflowing_form_case(*OVERFLOWING_FORMS[0], pairs=False))
    @example(overflowing_form_case(*OVERFLOWING_FORMS[1], pairs=False))
    @example(overflowing_form_case(*OVERFLOWING_FORMS[0], pairs=True))
    @example(overflowing_form_case(*OVERFLOWING_FORMS[1], pairs=True))
    @settings(max_examples=80, deadline=None)
    def test_forms_are_the_vector_loop(self, case):
        ops, us, vs = case
        got = list(_forms(ops, us, vs))
        assert len(got) == len(us)
        for u, per_op in zip(us, got):
            assert len(per_op) == len(ops)
            for B, row in zip(ops, per_op):
                values = [_box((re, im), den, B.mode) for den, re, im in row]
                ref = [vec_inner(B.apply(u), v) for v in ([u] if vs is None else vs)]
                if B.mode == FLOAT:
                    values, ref = bits(values), bits(ref)
                assert values == ref

    @given(st.one_of(hermitian_operators(EXACT), hermitian_operators(FLOAT)))
    @example(float_operator(*OVERFLOWING_FORMS[0]))
    @example(float_operator(*OVERFLOWING_FORMS[1]))
    @settings(max_examples=80, deadline=None)
    def test_polarization_values_are_the_vector_loop(self, B):
        # exact: |Re <B h, h>| times B's den; float: |<B h, h>|, nan included
        den = B._row_parts()[0]
        values = list(_polarization_values(B))
        cands = basis_candidates(B.dim, B.mode)
        assert len(values) == len(cands)
        for h, value in zip(cands, values):
            form = vec_inner(B.apply(h), h)
            if B.mode == EXACT:
                assert Fraction(value, den) == abs(form.re)
            else:
                assert value.hex() == form.modulus().hex()


@pytest.mark.parametrize("row", [(1.0, math.nan), (math.nan, 1.0)])
def test_a_nan_modulus_is_seen_wherever_it_sits(row):
    v = tuple(Scalar.flt(x) for x in row)
    assert math.isnan(DenseOperator([v, (Scalar.flt(0.0),) * 2]).max_abs())
    assert math.isnan(vec_max_abs(v))
    assert math.isnan(float_max_abs(v, FLOAT))


def test_strict_order_takes_each_operator_apart_once(monkeypatch):
    """strict_order takes apart only the operators its walk starts from, T
    and the identity (built from Scalars), each once, in either mode: T*,
    the Gram operators, the products T* G_k and every beta_m are made from
    parts, so no product or beta entry becomes a Scalar."""
    converted, boxed = [], []
    real_parts, real_scalar, real_box = matrices._parts, matrices._scalar, matrices._box

    def counting(scalars, mode):
        converted.append(scalars)
        return real_parts(scalars, mode)

    def scalar(*args):
        boxed.append(args)
        return real_scalar(*args)

    def box(*args):
        boxed.append(args)
        return real_box(*args)

    monkeypatch.setattr(matrices, "_parts", counting)
    monkeypatch.setattr(matrices, "_scalar", scalar)
    monkeypatch.setattr(matrices, "_box", box)
    for mode in (EXACT, FLOAT):
        T = jordan_matrix(JordanSpec(z=Scalar.one(mode), size=4))
        identity = DenseOperator.identity(4, mode)
        converted.clear()
        assert strict_order(T).describe() == "strict-order(7)"
        assert boxed == []
        entries = [[s for r in op.rows for s in r] for op in (T, identity)]
        assert len(converted) == 2
        assert [s is t for s, t in zip(converted[0], entries[0])] == [True] * 16
        assert converted[1] == entries[1]


def orbit_window(T, u, v, n):
    """The reference window: vec_inner on the vectors of two orbit() walks."""
    return [vec_inner(a, b) for a, b in islice(zip(orbit(T, u), orbit(T, v)), n)]


windows = st.integers(1, 6)


class TestOrbitWindows:
    """_orbit_inners steps the orbits on the kernel form and boxes only the
    samples; every sample equals the orbit() and vec_inner one."""

    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(operators(n), vectors(n), vectors(n))), windows)
    @settings(max_examples=30, deadline=None)
    def test_exact(self, tuv, count):
        T, u, v = tuv
        assert _orbit_inners(T, u, v, count) == orbit_window(T, u, v, count)
        assert _orbit_inners(T, u, u, count) == orbit_window(T, u, u, count)

    @given(dims.flatmap(
        lambda n: st.tuples(float_operators(n), float_vectors(n), float_vectors(n))), windows)
    @settings(max_examples=60, deadline=None)
    def test_float(self, tuv, count):
        T, u, v = tuv
        assert bits(_orbit_inners(T, u, v, count)) == bits(orbit_window(T, u, v, count))
        assert bits(_orbit_inners(T, u, u, count)) == bits(orbit_window(T, u, u, count))

    @given(long_dims.flatmap(
        lambda n: st.tuples(float_operators(n, unit_scalars), float_vectors(n, unit_scalars),
                            float_vectors(n, unit_scalars))), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_float_long(self, tuv, count):
        T, u, v = tuv
        assert bits(_orbit_inners(T, u, v, count)) == bits(orbit_window(T, u, v, count))
        assert bits(_orbit_inners(T, u, u, count)) == bits(orbit_window(T, u, u, count))

    def test_exact_vectors_stay_over_their_least_denominator(self, monkeypatch):
        # T swaps the coordinates and scales them by q and 1/q, so T^2 = I;
        # without the per-step gcd the denominators would grow like q^k
        q, r = 2 ** 61 - 1, 10 ** 20 + 39
        T = DenseOperator([[Scalar.exact(0), Scalar.exact(Fraction(1, q))],
                           [Scalar.exact(q), Scalar.exact(0)]])
        u = (Scalar.exact(1), Scalar.exact(Fraction(1, r), Fraction(1, q)))
        v = (Scalar.exact(Fraction(1, r)), Scalar.exact(r))
        expected = [orbit_window(T, u, w, 30) for w in (u, v)]
        dens = []
        real = matrices._box

        def recording(z, den, mode):
            dens.append(den)
            return real(z, den, mode)

        monkeypatch.setattr(matrices, "_box", recording)
        assert [_orbit_inners(T, u, w, 30) for w in (u, v)] == expected
        assert len(dens) == 60 and max(dens) <= (q * q * r) ** 2

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_bad_vectors_raise(self, mode):
        other = FLOAT if mode == EXACT else EXACT
        T = DenseOperator.from_ints([[1, 1], [0, 1]], mode)
        good = (Scalar.one(mode), Scalar.zero(mode))
        for bad, error in [((Scalar.one(other), Scalar.zero(other)), ModeMismatchError),
                           ((Scalar.one(mode), Scalar.zero(other)), ModeMismatchError),
                           ((Scalar.one(mode),) * 3, DimensionMismatchError)]:
            for u, v in [(bad, good), (good, bad), (bad, bad)]:
                with pytest.raises(error):
                    _orbit_inners(T, u, v, 3)


def test_orbit_windows_take_each_vector_apart_once(monkeypatch):
    """orbit_sequence on a dense operator takes h apart once, and T at most
    once (T keeps its parts), not once or twice per step."""
    converted = []
    real = matrices._parts

    def counting(scalars, mode):
        converted.append(scalars)
        return real(scalars, mode)

    monkeypatch.setattr(matrices, "_parts", counting)
    for mode in (EXACT, FLOAT):
        T = jordan_matrix(JordanSpec(z=Scalar.one(mode), size=4))
        h = tuple(Scalar.from_int(j + 1, mode) for j in range(4))
        converted.clear()
        assert orbit_sequence(T, h, 20).window_len == 20
        assert [s is h for s in converted].count(True) == 1
        assert len([s for s in converted if len(s) == 16]) <= 1
        assert len(converted) <= 2


def ref_norm_window(T, h, n):
    """||T^k h||^2 for k < n by the Scalar loops."""
    out = []
    for _ in range(n):
        out.append(ref_inner(h, h))
        h = ref_apply(T, h)
    return out


def ref_survey(T, vectors, window_len=None):
    """The survey's verdicts as the vector-by-vector loop gives them: the
    global strict order, then one orbit_sequence and one detect_degree per
    vector, in order."""
    return (strict_order(T), [detect_degree(orbit_sequence(T, h, window_len)) for h in vectors])


def ref_beta_survey(T, vectors, window_len=None, tol=isometry.DEFAULT_DEFECT_TOL):
    """The float survey's verdicts where it reads the degrees from beta
    (a strict order m, a window of at least max(3, m + 1) samples): per
    vector the largest j < m with |<beta_j h, h>| above zero_threshold of
    beta_j's float_scale * ||h||^2, the forms made by the Scalar loops.
    None where the survey walks its windows."""
    verdict = strict_order(T)
    if not verdict.strict or (window_len or default_window_len(T.dim)) < max(3, verdict.m + 1):
        return None
    forms = [(ref_inner(h, h).re, [ref_inner(ref_apply(b.matrix, h), h).modulus()
                                   for b in verdict.defects]) for h in vectors]
    if not all(math.isfinite(x) for norm, values in forms for x in [norm, *values]):
        raise PreconditionError("float overflow: a form <beta_j h, h> of the survey "
                                "leaves float range")
    degrees = [next((j for j, b in reversed(list(enumerate(verdict.defects)))
                     if values[j] > zero_threshold(FLOAT, tol, lambda: b.float_scale * norm,
                                                   f"<beta_{j} h, h>")), None)
               for norm, values in forms]
    return verdict, [DegreeVerdict(polynomial=True, degree=d, zero_sequence=d is None)
                     for d in degrees]


def outcome(f):
    """f()'s value, or the type and message of the MisolabError it raises."""
    try:
        return f()
    except MisolabError as exc:
        return type(exc), str(exc)


def survey(T, vectors, window_len=None):
    res = local_isometry_survey(T, vectors, window_len=window_len)
    return res.global_verdict, list(res.per_vector)


class TestSurveyWindows:
    """local_isometry_survey walks all its vectors at once; each window is
    orbit_sequence's, and the verdicts and errors are the per-vector loop's."""

    # on diag(1e30, 1) the orbit of e_0 overflows at n = 6 (1e360), inside
    # the window of 12, while strict_order's Gram walk stops at G_5 = 1e300
    BIG = DenseOperator([[Scalar.flt(1e30), Scalar.flt(0.0)], [Scalar.flt(0.0), Scalar.flt(1.0)]])
    E0, E1 = basis_vector(2, 0, FLOAT), basis_vector(2, 1, FLOAT)
    BOTH = (Scalar.flt(1.0), Scalar.flt(1.0))
    JORDAN_2 = DenseOperator.from_ints([[1, 1], [0, 1]], FLOAT)

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        float_operators(n, unit_scalars), st.lists(float_vectors(n, unit_scalars), min_size=1,
                                                    max_size=4))), st.integers(2, 20))
    @example((JORDAN_2, [E0, (Scalar.flt(0.5), Scalar.flt(-0.25, 0.125)), (Scalar.flt(0.0),) * 2]),
             12)
    @example((JORDAN_2, [E0, E1]), 3)
    @settings(max_examples=40, deadline=None)
    def test_float_windows_and_verdicts(self, case, window_len):
        T, vectors = case
        got = _survey_windows(T, vectors, window_len)
        assert [bits(w) for w in got] == [bits(ref_norm_window(T, h, window_len))
                                          for h in vectors]
        # a strict operator's degrees are read from beta, the others' walked
        ref = outcome(lambda: ref_beta_survey(T, vectors, window_len))
        if ref is None:
            ref = outcome(lambda: ref_survey(T, vectors, window_len))
        assert outcome(lambda: survey(T, vectors, window_len)) == ref

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        operators(n), st.lists(vectors(n), min_size=1, max_size=3))), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_exact_windows(self, case, window_len):
        T, vecs = case
        assert _survey_windows(T, vecs, window_len) == [
            list(orbit_sequence(T, h, window_len).values) for h in vecs]
        assert outcome(lambda: survey(T, vecs, window_len)) == outcome(
            lambda: ref_survey(T, vecs, window_len))

    def test_one_orbit_overflows(self):
        vectors = [self.E1, self.E0, self.BOTH]
        windows = _survey_windows(self.BIG, vectors, None)
        assert [bits(w) for w in windows] == [bits(ref_norm_window(self.BIG, h, 12))
                                              for h in vectors]
        assert math.isfinite(windows[1][5].re) and windows[1][6].re == math.inf
        assert all(math.isfinite(s.re) for s in windows[0])

    @pytest.mark.parametrize("order", [(1, 0), (0, 1), (1, 0, 2), (1, 2, 0), (2, 0), (0, 3),
                                       (3, 0), (1, 4), (4, 1), (1,)])
    @pytest.mark.parametrize("window_len", [None, 1, 5])
    def test_errors_come_from_the_same_vector(self, order, window_len):
        other = (Scalar.flt(1.0),) * 3
        mixed = (Scalar.flt(1.0), Scalar.exact(0))
        vectors = [[self.E0, self.E1, self.BOTH, other, mixed][j] for j in order]
        got = outcome(lambda: survey(self.BIG, vectors, window_len))
        assert got == outcome(lambda: ref_survey(self.BIG, vectors, window_len))
        if order[0] == 0 and window_len is None:
            assert got == (PreconditionError,
                           "orbit sample 6 is not finite: float overflow at step n=6")

    def test_one_step_walks_every_vector(self, monkeypatch):
        # the window of 4 * 4 + 4 samples takes 19 steps, each one product
        # of T with the 3 vectors as columns
        steps = []
        real = matrices._fmatmul

        def counting(a, b):
            steps.append(b.shape)
            return real(a, b)

        T = jordan_matrix(JordanSpec(z=Scalar.one(FLOAT), size=4))
        vectors = [basis_vector(4, j, FLOAT) for j in range(3)]
        monkeypatch.setattr(matrices, "_fmatmul", counting)
        windows = _survey_windows(T, vectors, None)
        assert steps == [(2, 4, 3)] * 19
        assert [bits(w) for w in windows] == [bits(ref_norm_window(T, h, 20)) for h in vectors]
        assert [v.describe() for v in local_isometry_survey(T, vectors).per_vector] == [
            f"polynomial(degree={2 * j})" for j in range(3)]

    def test_strict_exact_survey_walks_no_orbit(self, monkeypatch):
        # on a strict exact operator the degrees are read from beta_0 .. beta_{m-1}
        def walk(*args):
            raise AssertionError("an orbit window was walked")

        monkeypatch.setattr(matrices, "_exact_orbit_inners", walk)
        T = direct_sum(*(jordan_matrix(JordanSpec(z=z, size=k)) for z, k in (
            (Scalar.exact(1), 4), (Scalar.exact(0, 1), 3),
            (Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 1))))
        vectors = [basis_vector(8, j, EXACT) for j in range(8)] + [(Scalar.exact(0),) * 8]
        res = local_isometry_survey(T, vectors)
        assert res.global_verdict.describe() == "strict-order(7)"
        assert [v.describe() for v in res.per_vector] == [
            f"polynomial(degree={2 * j})" for j in (0, 1, 2, 3, 0, 1, 2, 0)] + ["zero-sequence"]
        # a sheared diag(1, -1) is not an m-isometry: its orbits are walked
        sheared = DenseOperator.from_ints([[1, -2], [0, -1]])
        with pytest.raises(AssertionError, match="walked"):
            local_isometry_survey(sheared, [basis_vector(2, 0, EXACT)])

    def test_strict_float_survey_walks_no_orbit(self, monkeypatch):
        # the float degrees are read from beta_0 .. beta_{m-1} too
        def walk(*args):
            raise AssertionError("an orbit window was walked")

        monkeypatch.setattr(matrices, "_orbit_windows", walk)
        monkeypatch.setattr(isometry, "_orbit_windows", walk)
        T = operator_to_float(direct_sum(*(jordan_matrix(JordanSpec(z=z, size=k)) for z, k in (
            (Scalar.exact(1), 4), (Scalar.exact(0, 1), 3),
            (Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 1)))))
        vectors = [basis_vector(8, j, FLOAT) for j in range(8)] + [(Scalar.flt(0.0),) * 8]
        res = local_isometry_survey(T, vectors)
        assert res.global_verdict.describe() == "strict-order(7)"
        assert [v.describe() for v in res.per_vector] == [
            f"polynomial(degree={2 * j})" for j in (0, 1, 2, 3, 0, 1, 2, 0)] + ["zero-sequence"]
        sheared = DenseOperator.from_ints([[1, -2], [0, -1]], FLOAT)
        with pytest.raises(AssertionError, match="walked"):
            local_isometry_survey(sheared, [self.E0])

    def test_float_forms_beyond_float_range_raise(self):
        # on the identity <beta_0 h, h> = ||h||^2 = 1e400 is what the orbit
        # window's first sample was; a nan form is never taken for zero
        eye = DenseOperator.identity(2, FLOAT)
        for h in [(Scalar.flt(1e200), Scalar.flt(0.0)), (Scalar.flt(math.nan), Scalar.flt(0.0))]:
            with pytest.raises(PreconditionError, match="float overflow"):
                local_isometry_survey(eye, [self.E1, h])
        # on J = [[1, c], [0, 1]], c = 1e150, beta_2 = diag(0, 2c^2): for
        # h = 1e5 e_1 the form 2e310 leaves float range, its threshold
        # 1e-8 * 6e300 * 1e10 does not
        J = DenseOperator([[Scalar.flt(1.0), Scalar.flt(1e150)], [Scalar.flt(0.0), Scalar.flt(1.0)]])
        assert strict_order(J).describe() == "strict-order(3)"
        with pytest.raises(PreconditionError, match="float overflow"):
            local_isometry_survey(J, [(Scalar.flt(0.0), Scalar.flt(1e5))])


superdiagonal = st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 2)])


@st.composite
def strict_exact_operators(draw):
    """A Jordan sum over suites.UNIMODULAR_EXACT with superdiagonal weights
    1, 2 or 1/2, sometimes with one more upper-triangular coupling between
    two equal diagonal entries: a unitary diagonal plus a commuting
    nilpotent, which is a strict m-isometry."""
    n = draw(st.integers(1, 6))
    diag, weights, start = [], {}, 0
    while start < n:
        size = draw(st.integers(1, n - start))
        diag += [draw(st.sampled_from(UNIMODULAR_EXACT))] * size
        weights.update({(i, i + 1): draw(superdiagonal) for i in range(start, start + size - 1)})
        start += size
    pairs = [(a, b) for b in range(n) for a in range(b - 1) if diag[a] == diag[b]]
    if pairs and draw(st.booleans()):
        weights[draw(st.sampled_from(pairs))] = draw(superdiagonal)
    return DenseOperator([[diag[i] if i == j else Scalar.exact(weights.get((i, j), 0))
                           for j in range(n)] for i in range(n)])


def gaussian_integer_vectors(n):
    small = st.integers(-3, 3)
    return st.one_of(st.just((Scalar.exact(0),) * n),
                     st.lists(st.builds(Scalar.exact, small, small), min_size=n,
                              max_size=n).map(tuple))


@given(strict_exact_operators().flatmap(lambda T: st.tuples(
    st.just(T), st.lists(gaussian_integer_vectors(T.dim), min_size=1, max_size=3))))
@settings(max_examples=30, deadline=None)
def test_beta_degrees_are_the_window_verdicts(case):
    """The degrees read from beta are detect_degree's verdicts on the
    default window, on m + 1 samples (the shortest the read takes) and on
    three times the default window; on m samples the orbits are walked."""
    T, vecs = case
    verdict = strict_order(T)
    assert verdict.strict
    default = default_window_len(T.dim)
    for window_len in (None, verdict.m, verdict.m + 1, 3 * default):
        got = outcome(lambda: survey(T, vecs, window_len))
        assert got == outcome(lambda: (verdict, [
            detect_degree(orbit_sequence(T, h, window_len or default)) for h in vecs]))


# seeded unitary conjugations of Jordan sums (z index in UNIMODULAR_EXACT, size)
THEORY_CASES = [([(2, 6)], 0), ([(4, 6), (3, 2)], 0), ([(1, 7), (2, 1)], 0), ([(2, 4), (1, 3)], 1)]


def test_float_beta_degrees_follow_theory():
    """After a random unitary every basis vector meets the largest Jordan
    block, so its orbit degree is m - 1, which the float survey reads from
    beta; detect_degree on the default window says less for some of them."""
    window_degrees = []
    for blocks, seed in THEORY_CASES:
        T = direct_sum(*(jordan_matrix(JordanSpec(z=UNIMODULAR_EXACT[z], size=k))
                         for z, k in blocks))
        T = conjugate_by_unitary(operator_to_float(T), random_unitary(
            T.dim, np.random.default_rng(seed)))
        vectors = [basis_vector(T.dim, j, FLOAT) for j in range(T.dim)]
        res = local_isometry_survey(T, vectors)
        m = 2 * max(k for _, k in blocks) - 1
        assert res.global_verdict.describe() == f"strict-order({m})"
        assert [v.degree for v in res.per_vector] == [m - 1] * T.dim
        window_degrees += [(detect_degree(orbit_sequence(T, h)).degree, m - 1) for h in vectors]
    assert any(d is None or d < want for d, want in window_degrees)


# ---------------------------------------------------------------------------
# The exact products visit only nonzero entries, so operators with many zeros
# are checked against the Scalar loops as well: Jordan-block sums, the Jordan
# forms of m-isometries on C^d, and shapes near them.
# ---------------------------------------------------------------------------

unimodular = st.sampled_from([Scalar.exact(1), Scalar.exact(-1), Scalar.exact(0, 1),
                              Scalar.exact(Fraction(3, 5), Fraction(4, 5)),
                              Scalar.exact(Fraction(-5, 13), Fraction(12, 13))])
nonzero_gaussian = gaussian.filter(lambda s: not s.is_zero())
sparse_dims = st.integers(1, 12)


def shear(n, a, b, c):
    """I + c E_ab."""
    one, zero = Scalar.exact(1), Scalar.exact(0)
    return DenseOperator([[c if (i, j) == (a, b) else one if i == j else zero for j in range(n)]
                          for i in range(n)])


@st.composite
def sparse_operators(draw, n):
    """An exact n x n operator: a Jordan-block sum at Gaussian-rational
    eigenvalues (unimodular, or with the large coprime denominators of
    gaussian), that sum conjugated by a shear I + c E_ab, or with one row or
    one column set to zero, a single nonzero entry, or zero."""
    shape = draw(st.sampled_from(["jordan", "sheared", "zero row", "zero column", "single",
                                  "zero"]))
    zero, index = Scalar.exact(0), st.integers(0, n - 1)
    rows = [[zero] * n for _ in range(n)]
    if shape == "single":
        rows[draw(index)][draw(index)] = draw(nonzero_gaussian)
    start = 0
    while shape not in ("single", "zero") and start < n:
        end = start + draw(st.integers(1, n - start))
        z = draw(st.one_of(unimodular, gaussian))
        for i in range(start, end):
            rows[i][i] = z
            if i + 1 < end:
                rows[i][i + 1] = Scalar.exact(1)
        start = end
    if shape == "zero row":
        rows[draw(index)] = [zero] * n
    if shape == "zero column":
        j = draw(index)
        for r in rows:
            r[j] = zero
    T = DenseOperator(rows)
    if shape == "sheared" and n > 1:
        a, b = draw(st.lists(index, min_size=2, max_size=2, unique=True))
        c = draw(nonzero_gaussian)
        T = DenseOperator(ref_matmul(DenseOperator(ref_matmul(shear(n, a, b, c), T)),
                                     shear(n, a, b, -c)))
    return T


def sparse_vectors(n):
    return st.one_of(vectors(n), st.builds(lambda j: basis_vector(n, j, EXACT),
                                           st.integers(0, n - 1)))


class TestSparseKernels:
    """The exact kernels on sparse operators against the Scalar loops: equal
    values with Fraction parts, and for products the kernel form of the
    reference, over its least common denominator."""

    @given(sparse_dims.flatmap(lambda n: st.tuples(sparse_operators(n), sparse_operators(n))))
    @settings(max_examples=40, deadline=None)
    def test_matmul(self, ab):
        a, b = ab
        # the last two make a Gram step T* G T
        for x, y in ((a, b), (b, a), (a.adjoint(), b), (a.adjoint() @ b, a)):
            got, ref = x @ y, DenseOperator(ref_matmul(x, y))
            assert got.rows == ref.rows and all(fractions(s) for r in got.rows for s in r)
            assert got._row_parts() == ref._row_parts()

    @given(sparse_dims.flatmap(lambda n: st.tuples(sparse_operators(n), sparse_vectors(n))))
    @settings(max_examples=40, deadline=None)
    def test_apply(self, av):
        a, v = av
        got = a.apply(v)
        assert got == ref_apply(a, v) and all(map(fractions, got))

    @given(sparse_dims.flatmap(lambda n: st.tuples(sparse_operators(n), sparse_vectors(n),
                                                    sparse_vectors(n))), windows)
    @settings(max_examples=30, deadline=None)
    def test_orbit_inners(self, tuv, count):
        T, u, v = tuv
        for w in (u, v):
            got = _orbit_inners(T, u, w, count)
            assert got == orbit_window(T, u, w, count) and all(map(fractions, got))

    @given(sparse_dims.flatmap(lambda n: st.tuples(
        sparse_operators(n), st.lists(sparse_vectors(n), min_size=1, max_size=3))),
        st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_survey_windows(self, case, window_len):
        T, vecs = case
        got = _survey_windows(T, vecs, window_len)
        assert got == [ref_norm_window(T, h, window_len) for h in vecs]
        assert all(fractions(s) for w in got for s in w)


def nonzero_pairs(a_rows, b_rows):
    """The number of pairs of nonzero entries a_ik, b_kj: the terms of the
    product a b that are not zero."""
    return sum(sum(not t.is_zero() for t in b_rows[k])
               for r in a_rows for k, s in enumerate(r) if not s.is_zero())


def test_exact_products_visit_only_nonzero_pairs():
    """On a Jordan sum of blocks 4 + 4 + 4, a Gram step T* G T and an orbit
    step make four integer products per pair of nonzero entries, not per
    term of the dense sums (4 n^3 and 4 n^2).  T's parts are an int type
    that counts its products and keeps its type through sums, differences,
    negation and quotients, so products of results are counted too."""
    mults = []

    class Counted(int):
        def __mul__(self, other):
            mults.append(None)
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

        def __neg__(self):
            return Counted(-int(self))

        def __floordiv__(self, other):
            return Counted(int(self) // int(other))

    T = direct_sum(*(jordan_matrix(JordanSpec(z=z, size=4)) for z in (
        Scalar.exact(1), Scalar.exact(0, 1), Scalar.exact(Fraction(3, 5), Fraction(4, 5)))))
    den, rows = T._row_parts()
    counted = DenseOperator._from_parts(EXACT, den, [tuple(list(map(Counted, part)) for part in r)
                                                     for r in rows])
    G = next(islice(_grams(T), 2, None))
    star_g = T.adjoint() @ G
    pairs = nonzero_pairs(T.adjoint().rows, G.rows) + nonzero_pairs(star_g.rows, T.rows)
    assert pairs <= 2 * 2 * 4 * 12
    mults.clear()
    gram = counted.adjoint() @ G @ counted
    assert 0 < len(mults) <= 4 * pairs
    assert gram == star_g @ T == DenseOperator(ref_matmul(DenseOperator(ref_matmul(T.adjoint(), G)), T))

    u = vec_add(basis_vector(12, 0, EXACT), basis_vector(12, 5, EXACT))
    step = nonzero_pairs(T.rows, [[x] for x in u])
    ref = ref_apply(T, u), orbit_window(T, u, u, 2)
    mults.clear()
    got = counted.apply(u)
    assert 0 < len(mults) <= 4 * step
    mults.clear()
    # one step, and the sample <Tu, Tu>, an inner product of n terms
    window = _orbit_inners(counted, u, u, 2)
    assert 0 < len(mults) <= 4 * (step + 12)
    assert (got, window) == ref


# ---------------------------------------------------------------------------
# Polynomial evaluation, scalar multiples, negation and exact division run on
# the kernel form too; the Scalar loops they replaced are the references.
# ---------------------------------------------------------------------------


def ref_poly_eval(p, x):
    """Horner on Scalars."""
    if isinstance(x, int):
        x = Scalar.from_int(x, p.mode)
    acc = Scalar.zero(p.mode)
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def ref_scale(a, c):
    return [[c * x for x in r] for r in a.rows]


def ref_neg(a):
    return [[-x for x in r] for r in a.rows]


def ref_div(s, o):
    """The quotient by |o|^2 first, then both parts over it."""
    d = o.re * o.re + o.im * o.im
    if d == 0:
        if s.mode == FLOAT and not o.is_zero(0.0):
            k = max(abs(o.re), abs(o.im))
            return ref_div(Scalar(FLOAT, s.re / k, s.im / k), Scalar(FLOAT, o.re / k, o.im / k))
        raise ZeroDivisionError("division by zero scalar")
    return Scalar(s.mode, (s.re * o.re + s.im * o.im) / d, (s.im * o.re - s.re * o.im) / d)


def fractions(s):
    return type(s.re) is Fraction and type(s.im) is Fraction


def exact_polynomials(coeffs=gaussian):
    return st.lists(coeffs, max_size=6).map(lambda cs: Polynomial(cs, mode=EXACT))


def float_polynomials(coeffs=float_scalars):
    return st.lists(coeffs, max_size=6).map(lambda cs: Polynomial(cs, mode=FLOAT))


imaginary = st.builds(lambda y: Scalar.exact(0, y), parts)
exact_arguments = st.one_of(st.integers(-10 ** 6, 10 ** 6), parts, gaussian, imaginary)
non_finite = st.sampled_from([math.inf, -math.inf, math.nan])


class TestExactScalarKernels:
    @given(exact_polynomials(st.one_of(gaussian, imaginary)), exact_arguments)
    @example(Polynomial([], mode=EXACT), Fraction(3, 2 ** 61 - 1))
    @settings(max_examples=80, deadline=None)
    def test_polynomial_eval(self, p, x):
        got = p(x)
        assert got == ref_poly_eval(p, x) and fractions(got)
        assert p(x) == got  # the kept parts give the same value again

    @given(dims.flatmap(lambda n: st.tuples(operators(n), st.one_of(gaussian, imaginary,
                                                                    st.integers(-5, 5)))))
    @settings(max_examples=40, deadline=None)
    def test_scale_and_negation(self, ac):
        a, c = ac
        for op in (a, a @ a):
            assert list(map(list, op.scale(c).rows)) == ref_scale(op, c)
            assert list(map(list, (-op).rows)) == ref_neg(op)
            assert all(fractions(x) for r in (-op).scale(c).rows for x in r)

    @given(st.one_of(gaussian, imaginary), st.one_of(gaussian, imaginary))
    @settings(max_examples=150, deadline=None)
    def test_division(self, s, o):
        if o.is_zero():
            with pytest.raises(ZeroDivisionError, match="^division by zero scalar$"):
                s / o
        else:
            assert s / o == ref_div(s, o) and fractions(s / o)


class TestFloatScalarKernels:
    @given(float_polynomials(), st.one_of(float_scalars, st.integers(-40, 40)))
    @example(Polynomial([Scalar.flt(-0.0, 0.0)], mode=FLOAT), Scalar.flt(-0.0, -0.0))
    @example(Polynomial([Scalar.flt(1e200), Scalar.flt(1e200, -1e200)], mode=FLOAT), 10 ** 200)
    @settings(max_examples=150, deadline=None)
    def test_polynomial_eval(self, p, x):
        assert bits([p(x)]) == bits([ref_poly_eval(p, x)])

    @given(dims.flatmap(lambda n: st.tuples(float_operators(n),
                                             st.one_of(float_scalars, st.integers(-5, 5)))))
    @settings(max_examples=60, deadline=None)
    def test_scale_and_negation(self, ac):
        a, c = ac
        for op in (a, a @ a):
            assert list(map(bits, op.scale(c).rows)) == list(map(bits, ref_scale(op, c)))
            assert list(map(bits, (-op).rows)) == list(map(bits, ref_neg(op)))

    @given(float_scalars, st.one_of(float_scalars, st.builds(
        Scalar.flt, st.one_of(float_parts, non_finite), st.one_of(float_parts, non_finite))))
    @example(Scalar.flt(-0.0, 0.0), Scalar.flt(1.0, -0.0))
    @example(Scalar.flt(1e308, 1e308), Scalar.flt(5e-324))
    @settings(max_examples=200, deadline=None)
    def test_division(self, s, o):
        d = o.re * o.re + o.im * o.im
        if o.is_zero(0.0):
            with pytest.raises(ZeroDivisionError):
                s / o
        elif d == math.inf and math.isfinite(o.re) and math.isfinite(o.im):
            # |o|^2 overflows: o is scaled to about 1 first, which keeps the
            # quotient accurate where the plain formula gives 0 or nan;
            # compared with the exact quotient, rounded once
            exact = (Scalar.exact(Fraction(s.re), Fraction(s.im))
                     / Scalar.exact(Fraction(o.re), Fraction(o.im)))
            want = complex(float(exact.re), float(exact.im))
            assert abs((s / o).as_complex() - want) <= 1e-15 * abs(want) + 2e-323
        else:
            assert bits([s / o]) == bits([ref_div(s, o)])


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_scalar_kernels_refuse_the_other_mode(mode):
    other = FLOAT if mode == EXACT else EXACT
    p = Polynomial.from_ints([1, 2, 3], mode)
    with pytest.raises(ModeMismatchError):
        p(Scalar.one(other))
    with pytest.raises(ModeMismatchError):
        DenseOperator.identity(2, mode).scale(Scalar.one(other))
    with pytest.raises(ModeMismatchError):
        Scalar.one(mode) / Scalar.one(other)


def test_scalar_kernels_box_only_their_results(monkeypatch):
    """A polynomial takes its coefficients apart once, however often it is
    evaluated, and its Horner loop makes no Scalar product or sum; zI and
    T - zI are made from parts, boxing nothing."""
    converted = []
    real_parts = matrices._parts

    def counting(scalars, mode):
        converted.append(list(scalars))
        return real_parts(scalars, mode)

    def refused(*args):
        raise AssertionError("Scalar arithmetic in a kernel")

    made = []
    real_init, real_new = Scalar.__init__, Fraction.__new__

    def counted_init(self, *args):
        made.append("Scalar")
        real_init(self, *args)

    def counted_new(cls, *args, **kwargs):
        made.append("Fraction")
        return real_new(cls, *args, **kwargs)

    monkeypatch.setattr(polynomials, "_parts", counting)
    for attr in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(Scalar, attr, refused)
    for mode in (EXACT, FLOAT):
        p = Polynomial.from_ints([1, 2, 3], mode)
        converted.clear()
        values = [p(n) for n in range(20)] + [p(Scalar.i_unit(mode))]
        assert converted == [list(p.coeffs)]
        assert values[3] == Scalar.from_int(34, mode)
        assert values[-1] == Scalar(mode, *((-2, 2) if mode == EXACT else (-2.0, 2.0)))
        # an int argument goes straight to its parts: the value is the only
        # Scalar made, and its two parts the only Fractions
        made.clear()
        monkeypatch.setattr(Scalar, "__init__", counted_init)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        value = p(7)
        monkeypatch.setattr(Scalar, "__init__", real_init)
        monkeypatch.setattr(Fraction, "__new__", real_new)
        assert made == (["Fraction", "Fraction", "Scalar"] if mode == EXACT else ["Scalar"])
        assert value == Scalar.from_int(162, mode)
    monkeypatch.undo()
    monkeypatch.setattr(matrices, "_scalar", refused)
    monkeypatch.setattr(matrices, "_box", refused)
    T = jordan_matrix(JordanSpec(z=Scalar.exact(Fraction(3, 5), Fraction(4, 5)), size=3))
    z = Scalar.exact(Fraction(3, 5), Fraction(4, 5))
    zI = DenseOperator.identity(3, EXACT).scale(z)
    N = T - zI
    assert N._row_parts() == (1, [([0, 1, 0], [0, 0, 0]), ([0, 0, 1], [0, 0, 0]),
                                  ([0, 0, 0], [0, 0, 0])])
    assert zI._row_parts() == (5, [([3 * (i == j) for j in range(3)],
                                    [4 * (i == j) for j in range(3)]) for i in range(3)])


# ---------------------------------------------------------------------------
# The cross-checks raise when the two computations disagree.
# ---------------------------------------------------------------------------


def difference_rows(reals):
    rows = [list(reals)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([prev[n + 1] - prev[n] for n in range(len(prev) - 1)])
    return rows


class TestBinomialFormCheck:
    def test_exact_row_off_by_one_over_den_raises(self):
        gamma = OrbitSequence.from_reals([Fraction(n ** 3 - 2, 7 + n) for n in range(7)], EXACT)
        den, reals, _ = _int_form(gamma.values)
        rows = difference_rows(reals)
        for m, row in enumerate(rows):
            _check_binomial_form(reals, m, row, 0.0)
        rows[3][1] += 1          # one unit of 1/den
        with pytest.raises(InternalCheckError, match="row 3 entry 1"):
            _check_binomial_form(reals, 3, rows[3], 0.0)

    # C(1040, 520) is beyond float range, so a slack made from it as a
    # float ends in OverflowError; exact rows need no slack at all
    def test_long_exact_row_is_compared_without_float(self):
        gamma = OrbitSequence.from_reals([Fraction(n % 2, 3) for n in range(1042)], EXACT)
        den, reals, _ = _int_form(gamma.values)
        assert den == 3
        row = difference_rows(reals)[1040]
        _check_binomial_form(reals, 1040, row, 0.0)
        row[0] += 1          # one unit of 1/den
        with pytest.raises(InternalCheckError, match="row 1040 entry 0"):
            _check_binomial_form(reals, 1040, row, 0.0)

    def test_long_float_row_slack_overflow_raises(self):
        reals = [1.0] * 1042
        with pytest.raises(PreconditionError, match="float overflow"):
            _check_binomial_form(reals, 1040, [0.0, 0.0], 1.0)

    def test_float_row_beyond_slack_raises(self):
        reals = [float(n * n) + 0.5 for n in range(7)]
        scale = max(reals)
        m = 4
        slack = 1e-12 * scale * math.comb(m, m // 2) * (m + 1)
        rows = difference_rows(reals)
        rows[m][0] += 0.5 * slack
        _check_binomial_form(reals, m, rows[m], scale)
        rows[m][0] += 2 * slack
        with pytest.raises(InternalCheckError, match=f"row {m} entry 0"):
            _check_binomial_form(reals, m, rows[m], scale)


    # 9 to 16 terms, and rows from m = 57 on, where C(m, k) passes 2^53 and
    # float(C(m, k)) must round as int * float rounds it.  A scale of
    # 5e-324 makes the slack 0.0, so the check passes only on the bits of
    # the left-to-right Scalar loop.
    @given(st.one_of(st.integers(9, 16), st.integers(57, 64)).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.floats(-1e3, 1e3), min_size=m + 1,
                                                 max_size=m + 8))), st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_sums_run_left_to_right(self, case, data):
        m, reals = case
        coeffs = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
        sums = [reduce(add, map(mul, coeffs, reals[n:n + m + 1]))
                for n in range(len(reals) - m)]
        _check_binomial_form(reals, m, sums, 5e-324)
        n = data.draw(st.integers(0, len(sums) - 1))
        sums[n] = math.nextafter(sums[n], data.draw(st.sampled_from([math.inf, -math.inf])))
        with pytest.raises(InternalCheckError, match=f"row {m} entry {n} disagrees"):
            _check_binomial_form(reals, m, sums, 5e-324)


class TestDefectCrossCheck:
    @pytest.mark.parametrize("mode,bump", [(EXACT, Scalar.exact(Fraction(1, 10 ** 30))),
                                           (FLOAT, Scalar.flt(1e-6))])
    def test_perturbed_recurrence_raises(self, monkeypatch, mode, bump):
        # the recurrence walk against a binomial sum whose T*^4 T^4 is bumped
        T = jordan_matrix(JordanSpec(z=Scalar.one(mode), size=3))
        assert defect(T, 4).m == 4
        real = isometry._grams

        def perturbed(T):
            for k, g in enumerate(real(T)):
                if k == 4:
                    rows = [list(r) for r in g.rows]
                    rows[0][-1] = rows[0][-1] + bump
                    g = DenseOperator(rows)
                yield g

        monkeypatch.setattr(isometry, "_grams", perturbed)
        with pytest.raises(InternalCheckError, match="m=4"):
            defect(T, 4)
