"""The kernels against the Scalar loops in both modes, and the internal
cross-checks that guard them."""

import json
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
    WeightedShiftOperator,
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
    vec_scale,
)
from misolab import isometry, matrices, polynomials
from misolab.diffcalc import _binomial_coeffs, _check_binomial_form, default_window_len
from misolab.isometry import (
    DefectOperator,
    _beta_degrees,
    _defects,
    _grams,
    _nonzero_form_witness,
)
from misolab.matrices import (_defect_walk, _forms, _int_form, _orbit_norms, _orbit_windows,
                              _polarization_values, _polarization_vector, _scalar,
                              basis_vector, polarization_pairs, vec_max_abs)
from misolab.scalars import EXACT, FLOAT, negligible, zero_threshold
from misolab.specio import load_spec_file, parse_entry, parse_operator_spec
from misolab.spectral import _strictness_criterion, from_numpy
from misolab.suites import (UNIMODULAR_EXACT, conjugate_by_unitary, operator_to_float,
                            random_unitary)

# ---------------------------------------------------------------------------
# Reference Scalar loops: the kernels must reproduce them entry by entry,
# exactly in exact mode and within a rounding bound in float mode (below).
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


def ref_form(B, h):
    """<B h, h> by the Scalar loops."""
    return ref_inner(ref_apply(B, h), h)


def ref_nonzero_form_witness(d, tol):
    """The witness search as a vector loop: one Scalar-loop form per
    polarization candidate."""
    beta = d.matrix
    dim, mode = beta.dim, beta.mode
    thr = d.threshold(tol) * 0.25 if mode == FLOAT else 0.0
    best, best_val = None, thr
    for h in polarization_candidates([basis_vector(dim, j, mode) for j in range(dim)]):
        form = ref_form(beta, h)
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
        den, rows = beta.matrix._form
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


def generic_parts(n, seed):
    """n (re, im) pairs of generic float parts, whose sums round differently
    in each order of adding."""
    return [tuple(z) for z in np.random.default_rng(seed).standard_normal((n, 2))]


def bits(scalars):
    """float.hex of every part: equal bits, signed zeros included."""
    return [(s.re.hex(), s.im.hex()) for s in scalars]


# ---------------------------------------------------------------------------
# The float kernels add their products in whatever order numpy or BLAS
# picks, fused multiply-adds included, so they meet the Scalar loops within
# a rounding bound rather than bit for bit.  A complex sum of n products
# x_k y_k, added in any order, is within sqrt(2) gamma_(n+2) sum |x_k| |y_k|
# of the exact sum, gamma_n = n u / (1 - n u) and u = 2^-53 (Higham,
# Accuracy and Stability of Numerical Algorithms, 2nd ed., 3.1 and 3.6); a
# product that underflows adds an absolute error below TINY.  The kernel and
# the Scalar loop each meet the bound, so they are within twice it of each
# other.  No bound is claimed where the sum of moduli passes 2^1020 (or is
# nan): there a sum may overflow in one order and not in another.
# ---------------------------------------------------------------------------

U = 2.0 ** -53
TINY = 2.0 ** -1070
NEAR_OVERFLOW = 2.0 ** 1020


def gamma(n):
    return n * U / (1 - n * U)


def dot_coefficient(n):
    """sqrt(2) gamma_(n+2), the relative bound of a complex sum of n products."""
    return math.sqrt(2) * gamma(n + 2)


def two_sided(magnitude, relative, absolute):
    """The slack between two computations that are each within relative *
    magnitude + absolute of the exact value; inf near overflow."""
    if not magnitude < NEAR_OVERFLOW:
        return math.inf
    return 2 * (relative * magnitude + absolute)


def dot_slack(xs, ys):
    """The slack between two computations of sum_k x_k y_k (or x_k conj(y_k))."""
    magnitude = sum(x.modulus() * y.modulus() for x, y in zip(xs, ys))
    return two_sided(magnitude, dot_coefficient(len(xs)), len(xs) * TINY)


def form_slack(B, u, v):
    """The slack between two computations of <B u, v>: the Scalar loop's two
    sums of n products, B u and then its inner product with v, are within
    (2c + c^2) sum_jk |v_j| |B_jk| |u_k| of the exact form, c =
    dot_coefficient(n), and the underflow of B u is weighed by |v|; the
    four-entry read of a polarization value adds at most four terms, and a
    modulus rounds once more.  No bound is claimed where B u is near
    overflow."""
    n, c = B.dim, dot_coefficient(B.dim)
    images = [sum(b.modulus() * x.modulus() for b, x in zip(row, u)) for row in B.rows]
    if not max(images) < NEAR_OVERFLOW:
        return math.inf
    magnitude = sum(y.modulus() * m for y, m in zip(v, images))
    absolute = 2 * n * TINY * (1 + sum(y.modulus() for y in v))
    return two_sided(magnitude, 2 * c + c * c + 2 * U, absolute)


def within(got, ref, slack):
    """|got - ref| <= slack for two float Scalars; True where slack is inf."""
    return slack == math.inf or abs(got.as_complex() - ref.as_complex()) <= slack


def assert_product(got, a, b):
    """got = a @ b within dot_slack of the Scalar loop, entry by entry."""
    cols = list(zip(*b.rows))
    for row, ref_row, a_row in zip(got.rows, ref_matmul(a, b), a.rows):
        assert all(within(x, r, dot_slack(a_row, col)) for x, r, col in zip(row, ref_row, cols))


def assert_apply(got, a, v):
    """got = a.apply(v) within dot_slack of the Scalar loop, entry by entry."""
    assert len(got) == a.dim
    assert all(within(x, r, dot_slack(row, v))
               for x, r, row in zip(got, ref_apply(a, v), a.rows))


def assert_inner(u, v):
    assert within(vec_inner(u, v), ref_inner(u, v), dot_slack(u, v))


def moduli(rows):
    """The moduli of a list (or a list of lists) of Scalars, as a float array."""
    return np.abs(np.array([[s.as_complex() for s in r] for r in rows]
                           if isinstance(rows[0], (list, tuple)) else
                           [s.as_complex() for s in rows]))


def walk_slacks(T, walk):
    """(entrywise slack, scale slack) between the kernel walk of the
    recurrence and the reference walk (ref_defect_walk) at each beta_k.
    Each walk is within E_k of the exact recurrence: E_0 = 0 and E_(k+1) =
    E_k + A' E_k A + (2c + c^2) P_k + u (M_k + S_k) + TINY, for A = |T|, c =
    dot_coefficient(n), M_k = |beta_k| + 2 E_k a bound on both walks'
    |beta_k|, P_k = A' M_k A, and S_k = (1 + c)^2 P_k one on |T* beta_k T|:
    T* beta_k T is two products, each n products a sum, and the difference
    rounds once.  A scale is a running maximum of |beta_k| + |T* beta_k T|,
    each modulus and the sum rounded once."""
    n, c = T.dim, dot_coefficient(T.dim)
    A, E, scale_slack, out = moduli(T.rows), np.zeros((T.dim, T.dim)), 0.0, []
    with np.errstate(all="ignore"):
        for k, (rows, _) in enumerate(walk):
            out.append((2 * E, scale_slack))
            if k == len(walk) - 1:
                break
            M = moduli(rows) + 2 * E
            P = A.T @ M @ A
            S = (1 + c) ** 2 * P
            step = A.T @ E @ A + (2 * c + c * c) * P + 2 * n * TINY
            scale_slack = max(scale_slack, 2 * (E.max() + step.max())
                              + 4 * U * (M.max() + S.max()))
            E = E + step + U * (M + S) + TINY
    return out


# 9 to 16 terms per sum: numpy's pairwise sum (np.sum, add.reduce) departs
# from left to right from 8 terms on, and BLAS (@, np.dot) fuses
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
        assert_product(a @ b, a, b)

    @given(dims.flatmap(lambda n: st.tuples(float_operators(n), float_vectors(n))))
    @settings(max_examples=60, deadline=None)
    def test_apply(self, av):
        a, v = av
        assert_apply(a.apply(v), a, v)

    @given(dims.flatmap(lambda n: st.tuples(float_vectors(n), float_vectors(n))))
    @settings(max_examples=60, deadline=None)
    def test_vec_inner(self, uv):
        u, v = uv
        assert_inner(u, v)
        assert_inner(u, u)

    @given(long_dims.flatmap(lambda n: st.tuples(
        float_operators(n, unit_scalars), float_operators(n, unit_scalars),
        float_vectors(n, unit_scalars), float_vectors(n, unit_scalars))))
    @settings(max_examples=15, deadline=None)
    def test_long_sums(self, abuv):
        a, b, u, v = abuv
        assert_product(a @ b, a, b)
        assert_apply(a.apply(u), a, u)
        assert_inner(u, v)

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
        # the Scalar loop of the recurrence, and its scale, within walk_slacks
        m, T = case
        walk = ref_defect_walk(T, m)
        for d, (rows, scale), (slack, scale_slack) in zip(islice(_defects(T), m + 1), walk,
                                                        walk_slacks(T, walk)):
            for got, ref, s in zip(d.matrix.rows, rows, slack.tolist()):
                assert all(map(within, got, ref, s))
            assert abs(d.float_scale - scale) <= scale_slack

    @given(dims.flatmap(lambda n: st.tuples(float_operators(n), float_operators(n),
                                             float_operators(n))),
           st.one_of(st.just(0.0), st.floats(0.0, 1e300)))
    @settings(max_examples=60, deadline=None)
    def test_operators_made_from_parts(self, abc, tol):
        # a @ b holds only its parts: within the bound of the Scalar loop, and
        # each elementwise operation on it is the Scalar loop on its entries,
        # bit for bit
        a, b, c = abc
        ab = a @ b
        assert_product(ab, a, b)
        same = DenseOperator([[Scalar.flt(s.re, s.im) for s in r] for r in ab.rows])
        assert (ab == same) == all(s.as_complex() == s.as_complex() for r in ab.rows for s in r)
        if ab == same:
            assert hash(ab) == hash(same)
        for op in (add, sub):
            assert list(map(bits, op(ab, c).rows)) == list(map(bits, ref_combine(ab, c, op)))
            assert list(map(bits, op(c, ab).rows)) == list(map(bits, ref_combine(c, ab, op)))
        assert list(map(bits, ab.adjoint().rows)) == list(map(bits, ref_adjoint(ab)))
        # the kernels' moduli are within two ulps of Scalar.modulus
        hs = [s.modulus() for r in ab.rows for s in r]
        if all(not abs(h - tol) <= 4 * U * h for h in hs):
            assert negligible(ab, FLOAT, tol, lambda: 1.0, "ab") == all(h <= tol for h in hs)
        largest, ref = ab.max_abs(), ref_largest(hs)
        assert math.isnan(largest) == math.isnan(ref)
        assert math.isnan(ref) or largest == ref or abs(largest - ref) <= 4 * U * ref

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
        # the witness is a candidate whose Scalar-loop form is above the
        # threshold and at least the best one, each within form_slack; no
        # witness, where no form is above the threshold beyond its slack
        n, hermitian, entries = case
        beta = DefectOperator(m=1, matrix=DenseOperator(
            square(n, hermitian, [Scalar.flt(x, y) for x, y in entries])), float_scale=scale)
        cands, thr = basis_candidates(n, FLOAT), beta.threshold(tol) * 0.25
        values = [ref_form(beta.matrix, h).modulus() for h in cands]
        slacks = [form_slack(beta.matrix, h, h) for h in cands]
        got = outcome(lambda: _nonzero_form_witness(beta, tol))
        if isinstance(got, tuple) and got[0] is PreconditionError:
            # a form left float range: some candidate is near overflow
            assert "float overflow" in got[1] and math.inf in slacks
            return
        if got is None:
            assert not any(v - s > thr for v, s in zip(values, slacks))
            return
        k = list(map(bits, cands)).index(bits(got))
        assert slacks[k] == math.inf or values[k] + slacks[k] > thr
        assert not any(v - s > values[k] + slacks[k] for v, s in zip(values, slacks))

    def test_modulus_is_hypot(self, monkeypatch):
        # Scalar.modulus is math.hypot; the kernels' moduli are within two
        # ulps of it.  abs(complex) and math.hypot differ in about one case
        # in 5,000 on some builds; on this entry abs gives
        # 0x1.61ed3c6c1e630p+4, math.hypot 0x1.61ed3c6c1e62fp+4
        z = Scalar.flt(float.fromhex("0x1.4f6ca3fb9bd5ap+4"),
                       float.fromhex("-0x1.c3beba815dfd2p+2"))
        h = math.hypot(z.re, z.im)
        assert z.modulus() == h
        G = DenseOperator([[z]])
        assert abs(G.max_abs() - h) <= 4 * U * h
        # beta_0 = G and T = 0: beta_1 = G - T* G T = G, whose scale is |G| + 0
        zero = DenseOperator([[Scalar.flt(0.0)]])
        monkeypatch.setattr(DenseOperator, "identity", staticmethod(lambda dim, mode: G))
        assert abs(list(islice(_defects(zero), 2))[1].float_scale - h) <= 4 * U * h
        # a one-entry beta is its own witness just where its modulus passes
        # the threshold, a quarter of tol times the scale
        for scale, tol, witness in [(4 * h * (1 + 8 * U), 1.0, None),
                                    (4 * h * (1 - 8 * U), 1.0, (Scalar.flt(1.0),)),
                                    (4 * h, 0.5, (Scalar.flt(1.0),))]:
            beta = DefectOperator(m=1, matrix=G, float_scale=scale)
            assert _nonzero_form_witness(beta, tol) == witness

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
# the Scalar loop's vec_inner(B.apply(u), v), the same value in exact mode
# and within form_slack of it in float mode.
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


def ref_scatter_forms(ops, us, vs=None):
    """The exact (den, re, im) triples of _forms by the full product: each
    u scattered through B's nonzero columns into all of B u (apply's
    kernel), then dotted with each conjugated v (vec_inner's kernel)."""
    cols = [(den, matrices._nonzeros(matrices._columns(rows)))
            for den, rows in (B._form for B in ops)]
    ws = None if vs is None else [(d, matrices._conj(f))
                                  for d, f in (matrices._parts(v, EXACT) for v in vs)]
    for u in us:
        du, uf = matrices._parts(u, EXACT)
        against = [(du, matrices._conj(uf))] if vs is None else ws
        images = [(den * du, matrices._scatter([uf], c)[0]) for den, c in cols]
        yield [[(den * dw, *matrices._dot(image, w)) for dw, w in against]
               for den, image in images]


# distinct primes, so that each part of a vector has its own denominator
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19]


def support_vectors(n):
    """Exact vectors of the supports the form read meets: any, zero, one
    entry, a block of consecutive entries, and entries over distinct
    denominators."""
    zero = Scalar.exact(0)

    def kept(vector, keep):
        return tuple(x if keep(k) else zero for k, x in enumerate(vector))

    return st.one_of(
        vectors(n),
        st.just((zero,) * n),
        st.tuples(vectors(n), st.integers(0, n - 1)).map(
            lambda t: kept(t[0], lambda k: k == t[1])),
        st.tuples(vectors(n), st.integers(0, n - 1), st.integers(1, n)).map(
            lambda t: kept(t[0], lambda k: t[1] <= k < t[1] + t[2])),
        st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=2 * n, max_size=2 * n).map(
            lambda xs: tuple(Scalar.exact(Fraction(xs[2 * k], PRIMES[2 * k]),
                                          Fraction(xs[2 * k + 1], PRIMES[2 * k + 1]))
                             for k in range(n))))


@st.composite
def form_cases(draw):
    """(ops, us, vs): one to three operators and vectors of one mode, vs
    None (v = u) or one to five vectors; exact vs may hold a u itself."""
    n = draw(dims)
    exact = draw(st.booleans())
    ops, vecs = ((operators(n), support_vectors(n)) if exact
                 else (float_operators(n), float_vectors(n)))
    us = draw(st.lists(vecs, min_size=1, max_size=3))
    vs = draw(st.none() | st.lists(vecs, min_size=1, max_size=5))
    if exact and vs is not None and draw(st.booleans()):
        vs.insert(draw(st.integers(0, len(vs))), us[draw(st.integers(0, len(us) - 1))])
    return draw(st.lists(ops, min_size=1, max_size=3)), us, vs


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
        if ops[0].mode == EXACT:
            assert got == list(ref_scatter_forms(ops, us, vs))
        for u, per_op in zip(us, got):
            assert len(per_op) == len(ops)
            for B, row in zip(ops, per_op):
                against = [u] if vs is None else vs
                values = [_scalar(re, im, den, B.mode) for den, re, im in row]
                ref = [ref_inner(ref_apply(B, u), v) for v in against]
                if B.mode == EXACT:
                    assert values == ref
                else:
                    assert len(values) == len(ref)
                    assert all(within(x, r, form_slack(B, u, v))
                               for x, r, v in zip(values, ref, against))

    @given(st.one_of(hermitian_operators(EXACT), hermitian_operators(FLOAT)))
    @example(float_operator(*OVERFLOWING_FORMS[0]))
    @example(float_operator(*OVERFLOWING_FORMS[1]))
    @settings(max_examples=80, deadline=None)
    def test_polarization_values_are_the_vector_loop(self, B):
        # exact: |Re <B h, h>| times B's den; float: |<B h, h>| within form_slack
        den, cands = B._form[0], basis_candidates(B.dim, B.mode)
        values = outcome(lambda: list(_polarization_values(B)))
        if isinstance(values, tuple):
            # a float form left float range: some candidate is near overflow
            assert values[0] is PreconditionError and "float overflow" in values[1]
            assert B.mode == FLOAT and math.inf in [form_slack(B, h, h) for h in cands]
            return
        assert len(values) == len(cands)
        for h, value in zip(cands, values):
            form = ref_form(B, h)
            if B.mode == EXACT:
                assert Fraction(value, den) == abs(form.re)
            else:
                slack = form_slack(B, h, h)
                assert slack == math.inf or abs(value - form.modulus()) <= slack


@pytest.mark.parametrize("case", OVERFLOWING_FORMS)
def test_overflowing_forms_end_in_the_overflow_error(case):
    """Where the vector loop's <B h, h> is nan, a sum having left float
    range, the readers end in the float-overflow error: the witness search
    and perturb's strictness criterion, which read four entries of B per
    candidate, and the survey's degrees, which read _forms."""
    B = float_operator(*case)
    cands = basis_candidates(B.dim, FLOAT)
    overflowing = [h for h in cands if math.isnan(ref_form(B, h).modulus())]
    assert overflowing
    d = DefectOperator(m=1, matrix=B, float_scale=1.0)
    with pytest.raises(PreconditionError, match="float overflow"):
        _nonzero_form_witness(d, 0.0)
    with pytest.raises(PreconditionError, match="float overflow"):
        _strictness_criterion(d, DenseOperator.identity(B.dim, FLOAT), 0.0)
    verdict = isometry.OrderVerdict(strict=True, m=2, defects=(
        DefectOperator(m=0, matrix=DenseOperator.identity(B.dim, FLOAT)), d))
    for h in overflowing:
        with pytest.raises(PreconditionError, match="float overflow"):
            _beta_degrees(B, [h], None, verdict, 0.0)


@given(dims.flatmap(lambda n: st.tuples(
    st.one_of(float_operators(n), float_operators(n, unit_scalars)),
    st.lists(float_vectors(n), min_size=1, max_size=3))), st.integers(1, 12))
@settings(max_examples=60, deadline=None)
def test_float_orbit_norms_are_real(case, count):
    """||T^k h||^2 from the float kernels has imaginary part 0.0 exactly,
    overflow or not: it is a sum of |w_j|^2, not of the complex products
    w_j conj(w_j), whose imaginary parts a fused multiply-add leaves
    nonzero, and an orbit window must be real."""
    T, vectors = case
    norms = [vec_inner(h, h) for h in vectors] + [
        s for w in [kernel_window(T, h, h, count) for h in vectors]
        + _orbit_windows(T, [(h, h) for h in vectors], count) for s in w]
    assert {s.im.hex() for s in norms} == {"0x0.0p+0"}


@pytest.mark.parametrize("row", [(1.0, math.nan), (math.nan, 1.0)])
def test_a_nan_modulus_is_seen_wherever_it_sits(row):
    v = tuple(Scalar.flt(x) for x in row)
    assert math.isnan(DenseOperator([v, (Scalar.flt(0.0),) * 2]).max_abs())
    assert math.isnan(vec_max_abs(v))


def record_kernel_reads(monkeypatch):
    """(converted, boxed): the Scalar lists that matrices._parts takes apart,
    and the arguments of each Scalar that matrices._scalar makes."""
    converted, boxed = [], []
    real_parts, real_scalar = matrices._parts, matrices._scalar

    def counting(scalars, mode):
        converted.append(scalars)
        return real_parts(scalars, mode)

    def scalar(*args):
        boxed.append(args)
        return real_scalar(*args)

    monkeypatch.setattr(matrices, "_parts", counting)
    monkeypatch.setattr(matrices, "_scalar", scalar)
    return converted, boxed


def test_strict_order_takes_each_operator_apart_once(monkeypatch):
    """A T built from Scalars is taken apart once, at construction, on the
    caller's own Scalars, in either mode; strict_order then takes nothing
    apart: an operator of the kernel-form constructors (jordan_matrix here)
    and the identity the walk starts from hold their form from birth; T*,
    the Gram operators, the products T* G_k and every beta_m are made from
    parts, so no product or beta entry becomes a Scalar."""
    converted, boxed = record_kernel_reads(monkeypatch)
    for mode in (EXACT, FLOAT):
        built = jordan_matrix(JordanSpec(z=Scalar.one(mode), size=4))
        rows = built.rows
        converted.clear()
        from_scalars = DenseOperator(rows)
        assert len(converted) == 1
        entries = [s for r in rows for s in r]
        assert [s is t for s, t in zip(converted[0], entries)] == [True] * 16
        for T in (built, from_scalars):
            converted.clear()
            boxed.clear()
            assert strict_order(T).describe() == "strict-order(7)"
            assert (converted, boxed) == ([], [])


def parts_bits(s):
    """A Scalar's parts; float parts by float.hex, signed zeros included."""
    return (s.re, s.im) if s.mode == EXACT else (s.re.hex(), s.im.hex())


def assert_same_operator(got, want):
    """got, made in the kernel form, and want, a DenseOperator of Scalars,
    have the same Scalar rows and the same _form: den, and a form of
    ints or complex128 of the same bits."""
    assert (got.mode, got.dim) == (want.mode, want.dim)
    assert [list(map(parts_bits, r)) for r in got.rows] == \
        [list(map(parts_bits, r)) for r in want.rows]
    (got_den, got_form), (want_den, want_form) = got._form, want._form
    assert got_den == want_den
    if got.mode == FLOAT:
        assert got_form.dtype == want_form.dtype == complex
        assert got_form.tobytes() == want_form.tobytes()
    else:
        assert {type(x) for re, im in got_form for x in (*re, *im)} == {int}
        assert [(list(re), list(im)) for re, im in got_form] == \
            [(list(re), list(im)) for re, im in want_form]


def scalar_rows(ints, mode):
    return DenseOperator([[Scalar.from_int(x, mode) for x in r] for r in ints])


def scalar_jordan(z, k):
    zero, one = Scalar.zero(z.mode), Scalar.one(z.mode)
    return DenseOperator([[z if j == i else one if j == i + 1 else zero for j in range(k)]
                          for i in range(k)])


def scalar_direct_sum(*ops):
    dim, mode = sum(op.dim for op in ops), ops[0].mode
    rows, off = [[Scalar.zero(mode)] * dim for _ in range(dim)], 0
    for op in ops:
        for i, r in enumerate(op.rows):
            rows[off + i][off:off + op.dim] = r
        off += op.dim
    return DenseOperator(rows)


JORDAN_Z = {EXACT: [Scalar.exact(Fraction(3, 5), Fraction(-4, 5)), Scalar.exact(Fraction(2, 4)),
                    Scalar.exact(0)],
            FLOAT: [Scalar.flt(-0.0, -0.0), Scalar.flt(0.6, 0.8), Scalar.flt(1.0, -0.0)]}


class TestKernelFormConstructors:
    """The constructors make the kernel form the Scalar rows would give."""

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_identity_zeros_and_from_ints(self, mode):
        for n in (1, 3):
            eye = [[int(i == j) for j in range(n)] for i in range(n)]
            assert_same_operator(DenseOperator.identity(n, mode), scalar_rows(eye, mode))
            assert_same_operator(DenseOperator.zeros(n, mode), scalar_rows([[0] * n] * n, mode))
        ints = [[2, -3, 0], [0, 10 ** 12, 1], [-1, 0, 7]]
        assert_same_operator(DenseOperator.from_ints(ints, mode), scalar_rows(ints, mode))
        with pytest.raises(DimensionMismatchError):
            DenseOperator.from_ints([[1, 2]], mode)
        with pytest.raises(DimensionMismatchError):
            DenseOperator.identity(0, mode)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_jordan_matrix_and_direct_sum(self, mode):
        blocks = [(jordan_matrix(JordanSpec(z, k)), scalar_jordan(z, k))
                  for z, k in zip(JORDAN_Z[mode], (3, 1, 2))]
        for got, want in blocks:
            assert_same_operator(got, want)
        # blocks of the kernel form, of Scalars, and, in exact mode, over a
        # den that is not the least: 1/2 and i over 4
        over_four = (DenseOperator._from_parts(EXACT, 4, [([2, 0], [0, 4]), ([0, 0], [0, 0])])
                     if mode == EXACT else blocks[2][0])
        mixed = [blocks[0][0], blocks[1][1], over_four]
        assert_same_operator(direct_sum(*mixed),
                             scalar_direct_sum(*(DenseOperator(b.rows) for b in mixed)))

    def test_from_numpy(self):
        arr = np.array([[1 + 2j, complex(-0.0, 0.0)], [complex(0.0, -0.0), -3.5]])
        want = DenseOperator([[Scalar.flt(z.real, z.imag) for z in r] for r in arr])
        assert_same_operator(from_numpy(arr), want)
        assert_same_operator(from_numpy(arr.real), DenseOperator(
            [[Scalar.flt(x) for x in r] for r in arr.real]))
        with pytest.raises(DimensionMismatchError):
            from_numpy(np.zeros((2, 3)))

    @pytest.mark.parametrize("mode,matrix", [
        (EXACT, [[3, [1, -2], "2/4"], ["-0", "-3/5+4/5i", "10/3-7/6i"], [[0, 0], "0-1/2i", 1]]),
        (FLOAT, [[1, [1, 0], -0.0], [[0.0, -0.0], 2.5e-300, [-1e300, 3]], [0, [1.5, -2], 7]]),
    ])
    def test_matrix_specs(self, mode, matrix):
        got = parse_operator_spec({"mode": mode, "matrix": matrix}).operator
        want = DenseOperator([[parse_entry(e, mode) for e in r] for r in matrix])
        assert_same_operator(got, want)

    @pytest.mark.parametrize("mode,matrix", [
        (EXACT, [["1", "1", 0], [0, "1", "1"], [0, 0, "1"]]),
        (FLOAT, [[1, 1, 0], [0, 1, 1], [0, 0, [1, 0]]]),
    ])
    def test_a_loaded_spec_is_never_taken_apart(self, tmp_path, monkeypatch, mode, matrix):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"mode": mode, "matrix": matrix}))
        converted, boxed = record_kernel_reads(monkeypatch)
        T = load_spec_file(str(path)).operator
        assert strict_order(T).describe() == "strict-order(5)"
        assert (converted, boxed) == ([], [])


def kernel_window(T, u, v, n):
    """<T^k u, T^k v> for k < n from the kernels' walk of the one pair (u, v)."""
    return _orbit_windows(T, [(u, v)], n)[0]


def orbit_window(T, u, v, n):
    """The reference window: vec_inner on the vectors of two orbit() walks."""
    return [vec_inner(a, b) for a, b in islice(zip(orbit(T, u), orbit(T, v)), n)]


def ref_walk(T, h, count):
    """h, T h, ..., T^(count-1) h by the Scalar loop of apply."""
    out = [h]
    while len(out) < count:
        out.append(ref_apply(T, out[-1]))
    return out


def ref_orbit_window(T, u, v, count):
    """<T^k u, T^k v> for k < count by the Scalar loops."""
    return [ref_inner(a, b) for a, b in zip(ref_walk(T, u, count), ref_walk(T, v, count))]


def orbit_slacks(T, u, v, count):
    """The slack between the kernel's and the Scalar loops' <T^k u, T^k v>,
    k < count.  Each walk of T^k w is within E_k of the exact one: E_0 = 0
    and E_(k+1) = A E_k + c A M_k + n TINY, for A = |T|, c =
    dot_coefficient(n) and M_k = |T^k w| + 2 E_k a bound on both walks'
    |T^k w|.  A sample is then within sum_j (E_u M_v + M_u E_v + c M_u M_v)_j
    + n TINY of the exact inner product of the exact vectors."""
    n, c = T.dim, dot_coefficient(T.dim)
    A, bounds = moduli(T.rows), []
    with np.errstate(all="ignore"):
        for w in (u, v):
            E, walk = np.zeros(n), []
            for x in ref_walk(T, w, count):
                walk.append((moduli(x) + 2 * E, E))
                E = A @ E + c * (A @ walk[-1][0]) + n * TINY
            bounds.append(walk)
        return [two_sided(Eu @ Mv + Mu @ Ev + c * (Mu @ Mv), 1.0, n * TINY)
                for (Mu, Eu), (Mv, Ev) in zip(*bounds)]


def assert_window(got, ref, slacks):
    assert len(got) == len(ref) == len(slacks)
    assert all(map(within, got, ref, slacks))


windows = st.integers(1, 6)


class TestOrbitWindows:
    """_orbit_windows steps the orbits on the kernel form and boxes only the
    samples; every sample is the orbit() and vec_inner one, exactly in
    exact mode and within orbit_slacks of the Scalar loops in float mode."""

    @given(st.integers(1, 3).flatmap(
        lambda n: st.tuples(operators(n), vectors(n), vectors(n))), windows)
    @settings(max_examples=30, deadline=None)
    def test_exact(self, tuv, count):
        T, u, v = tuv
        assert kernel_window(T, u, v, count) == orbit_window(T, u, v, count)
        assert kernel_window(T, u, u, count) == orbit_window(T, u, u, count)

    @given(dims.flatmap(
        lambda n: st.tuples(float_operators(n), float_vectors(n), float_vectors(n))), windows)
    @settings(max_examples=60, deadline=None)
    def test_float(self, tuv, count):
        T, u, v = tuv
        for w in (v, u):
            assert_window(kernel_window(T, u, w, count), ref_orbit_window(T, u, w, count),
                          orbit_slacks(T, u, w, count))

    @given(long_dims.flatmap(
        lambda n: st.tuples(float_operators(n, unit_scalars), float_vectors(n, unit_scalars),
                            float_vectors(n, unit_scalars))), st.integers(2, 6))
    @settings(max_examples=15, deadline=None)
    def test_float_long(self, tuv, count):
        T, u, v = tuv
        for w in (v, u):
            assert_window(kernel_window(T, u, w, count), ref_orbit_window(T, u, w, count),
                          orbit_slacks(T, u, w, count))

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
        real = matrices._scalar

        def recording(re, im, den, mode):
            dens.append(den)
            return real(re, im, den, mode)

        monkeypatch.setattr(matrices, "_scalar", recording)
        assert [kernel_window(T, u, w, 30) for w in (u, v)] == expected
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
                    kernel_window(T, u, v, 3)


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


def ref_orbit_norms(T, h, count):
    """(den, reals) of ||T^k h||^2 for k < count from a walk of h alone:
    the ints of one _exact_orbit_inners walk over their lcm, or the sums of
    |w_j|^2 over one n x 1 float walk, a float64 array over 1."""
    T._check_vec(h)
    dt, rows = T._form
    if T.mode == EXACT:
        return matrices._exact_orbit_inners(rows, dt, h, h, count)[:2]
    with np.errstate(all="ignore"):
        walk = matrices._float_walk(rows, matrices._parts(h, FLOAT)[1][:, None], count)
        return 1, matrices._norms_sq(walk, 1)[:count, 0]


OVERFLOWING_ORBIT = (DenseOperator([[Scalar.flt(1e300)] * 2] * 2), (Scalar.flt(1.0),) * 2)


def generic_orbit_case(n, seed):
    """(T, u, v) of generic float entries, T scaled to keep its orbits in
    range."""
    parts = [Scalar.flt(x / n, y / n) for x, y in generic_parts(n * n + 2 * n, seed)]
    return (DenseOperator([parts[i * n:(i + 1) * n] for i in range(n)]),
            tuple(parts[n * n:n * n + n]), tuple(parts[n * n + n:]))


@given(st.one_of(
    dims.flatmap(lambda n: st.tuples(operators(n), vectors(n))),
    st.one_of(dims, long_dims).flatmap(lambda n: st.tuples(
        st.one_of(float_operators(n), float_operators(n, unit_scalars)), float_vectors(n)))),
    st.integers(0, 12))
@example(OVERFLOWING_ORBIT, 4)
@example(generic_orbit_case(12, 0)[:2], 12)
@settings(max_examples=80, deadline=None)
def test_orbit_norms_are_the_one_vector_walk(case, count):
    """_orbit_norms, the one pair (h, h) of the shared orbit walk, is h's
    own walk: exactly in exact mode, bit for bit in float mode, and
    orbit_sequence ends in the same overflow error at the same sample."""
    T, h = case
    got, want = _orbit_norms(T, h, count), ref_orbit_norms(T, h, count)
    if T.mode == EXACT:
        assert got == want
    else:
        assert got[0] == want[0] == 1 and got[1].dtype == want[1].dtype == np.float64
        assert [x.hex() for x in got[1].tolist()] == [x.hex() for x in want[1].tolist()]
    read = bits if T.mode == FLOAT else list
    if count >= 2:
        assert (outcome(lambda: read(orbit_sequence(T, h, count).values))
                == outcome(lambda: read(OrbitSequence._of_form(T.mode, *want).values)))


def test_an_overflowing_orbit_names_its_first_sample():
    with pytest.raises(PreconditionError, match="orbit sample 1 is not finite"):
        orbit_sequence(*OVERFLOWING_ORBIT, 4)


def ref_batched_windows(T, pairs, count):
    """The float windows of the pairs as bits, from one walk of their
    distinct vectors: the conjugated dots of all the pairs, read from
    fancy-indexed copies of the walk, then sum |w_k|^2 in place of the dot
    wherever v is u."""
    cols = {id(w): w for pair in pairs for w in pair}
    where = {key: j for j, key in enumerate(cols)}
    with np.errstate(all="ignore"):
        walk = matrices._float_walk(T._form[1], np.stack(
            [matrices._parts(w, FLOAT)[1] for w in cols.values()], axis=1), count)
        iu, iv = ([where[id(pair[j])] for pair in pairs] for j in (0, 1))
        samples = (walk[..., iu] * walk[..., iv].conj()).sum(axis=1)
        same = [j for j, (u, v) in enumerate(pairs) if u is v]
        samples[:, same] = matrices._norms_sq(walk[..., [iu[j] for j in same]], 1)
    return [bits(matrices._fbox(window[:count])) for window in samples.T.tolist()]


@given(st.one_of(dims, long_dims).flatmap(lambda n: st.tuples(
    st.one_of(float_operators(n), float_operators(n, unit_scalars)),
    float_vectors(n), float_vectors(n))), st.integers(0, 12))
@example(generic_orbit_case(12, 0), 12)
@settings(max_examples=60, deadline=None)
def test_float_orbit_windows_keep_the_batched_bits(tuv, count):
    """Each float window is summed over its own pair's columns, with no dot
    made where v is u, and keeps the bits of the batched read, however the
    pairs are mixed."""
    T, u, v = tuv
    for pairs in ([(u, v)], [(u, u)], [(u, v), (u, u), (v, v)], [(u, u), (v, v)],
                  [(v, u), (u, v), (u, u)]):
        assert [bits(w) for w in _orbit_windows(T, pairs, count)] == ref_batched_windows(
            T, pairs, count)


def test_exact_forms_read_no_operator_apart(monkeypatch):
    """Exact _forms reads B's entries on the vectors' supports: it calls
    neither _columns nor _scatter, and _nonzeros only on a vector's form,
    never on an operator's rows."""
    calls = []
    for name in ("_columns", "_nonzeros", "_scatter"):
        def counting(*args, name=name, real=getattr(matrices, name)):
            calls.append((name, args[0]))
            return real(*args)
        monkeypatch.setattr(matrices, name, counting)
    T = jordan_matrix(JordanSpec(z=Scalar.exact(Fraction(3, 5), Fraction(4, 5)), size=4))
    ops = [T, T.adjoint() @ T, DenseOperator.identity(4, EXACT)]
    rows = [r for B in ops for r in B._form[1]]
    us = [basis_vector(4, 2, EXACT), tuple(Scalar.exact(j + 1, -j) for j in range(4))]
    for vs in (None, us, [us[1], basis_vector(4, 0, EXACT)]):
        calls.clear()
        assert len(list(_forms(ops, us, vs))) == 2
        assert {name for name, _ in calls} == {"_nonzeros"}
        assert all(len(arg) == 1 and not any(arg[0] is r for r in rows) for _, arg in calls)


def ref_norm_window(T, h, n):
    """||T^k h||^2 for k < n by the Scalar loops."""
    out = []
    for _ in range(n):
        out.append(ref_inner(h, h))
        h = ref_apply(T, h)
    return out


def ref_orbit_norm_sq(W, j, n):
    """||W^n e_j||^2 as the telescoping Scalar product of squared weights."""
    return math.prod(W.weights_sq[j:j + n], start=Scalar.one(W.mode))


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


def assert_same_survey(got, ref, windows):
    """Two float survey outcomes agree: the same error, or the same global
    verdict and per-vector degrees.  windows holds per vector the Scalar
    loop's window and its orbit_slacks; the two residuals, max |Delta^(d+1)
    gamma| over windows of W samples, are within 2^W (slack + 4 W u max
    |gamma|) of each other: a row of k differences weighs its samples by
    binomials that add to 2^k, and each difference rounds once."""
    if isinstance(ref[0], type):
        assert got == ref
        return
    (got_global, got_degrees), (ref_global, ref_degrees) = got, ref
    assert got_global == ref_global and len(got_degrees) == len(ref_degrees)
    for g, r, (window, slacks) in zip(got_degrees, ref_degrees, windows):
        assert (g.polynomial, g.degree, g.zero_sequence) == (r.polynomial, r.degree,
                                                             r.zero_sequence)
        w, top = len(window), max(s.modulus() for s in window)
        assert abs(g.residual - r.residual) <= 2 ** w * (max(slacks) + 4 * w * U * top)


class TestSurveyWindows:
    """local_isometry_survey walks each vector's window with orbit_sequence
    where it reads no degree from beta; each window is within orbit_slacks of
    the Scalar loops, and the verdicts and errors are the per-vector loop's."""

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
        got = [orbit_sequence(T, h, window_len).values for h in vectors]
        windows = [(ref_norm_window(T, h, window_len), orbit_slacks(T, h, h, window_len))
                   for h in vectors]
        assert len(got) == len(windows)
        for w, (ref, slacks) in zip(got, windows):
            assert_window(w, ref, slacks)
        # a strict operator's degrees are read from beta, the others' walked
        ref = outcome(lambda: ref_beta_survey(T, vectors, window_len))
        if ref is None:
            ref = outcome(lambda: ref_survey(T, vectors, window_len))
        assert_same_survey(outcome(lambda: survey(T, vectors, window_len)), ref, windows)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(
        operators(n), st.lists(vectors(n), min_size=1, max_size=3))), st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_exact_windows(self, case, window_len):
        T, vecs = case
        assert [list(orbit_sequence(T, h, window_len).values) for h in vecs] == [
            ref_norm_window(T, h, window_len) for h in vecs]
        assert outcome(lambda: survey(T, vecs, window_len)) == outcome(
            lambda: ref_survey(T, vecs, window_len))

    def test_one_orbit_overflows(self):
        # the walk of e_0 holds 1e300 at n = 5 and inf at n = 6, where
        # orbit_sequence raises; the window of e_1 is walked in full
        vectors = [self.E1, self.E0, self.BOTH]
        walks = [kernel_window(self.BIG, h, h, 12) for h in vectors]
        for w, h in zip(walks, vectors):
            assert_window(w, ref_norm_window(self.BIG, h, 12), orbit_slacks(self.BIG, h, h, 12))
        assert math.isfinite(walks[1][5].re) and walks[1][6].re == math.inf
        window = orbit_sequence(self.BIG, self.E1).values
        assert len(window) == 12 and all(math.isfinite(s.re) for s in window)
        for h in (self.E0, self.BOTH):
            with pytest.raises(PreconditionError, match="orbit sample 6 is not finite"):
                orbit_sequence(self.BIG, h)

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

    @pytest.mark.parametrize("T", [
        DenseOperator.from_ints([[1, -2], [0, -1]]),
        operator_to_float(direct_sum(jordan_matrix(JordanSpec(z=Scalar.exact(1), size=2)),
                                     DenseOperator.from_ints([[2]])))], ids=[EXACT, FLOAT])
    def test_non_strict_survey_walks_each_vector_once(self, monkeypatch, T):
        # an operator of no strict order: each degree is the verdict on one
        # orbit_sequence window of its own vector, asked for once
        vectors = [basis_vector(T.dim, j, T.mode) for j in range(T.dim)] + [
            (Scalar.one(T.mode),) * T.dim]
        ref = ref_survey(T, vectors)
        calls = []
        real = isometry.orbit_sequence

        def counting(op, h, window_len=None):
            calls.append(h)
            return real(op, h, window_len)

        monkeypatch.setattr(isometry, "orbit_sequence", counting)
        res = local_isometry_survey(T, vectors)
        assert not res.global_verdict.strict
        assert [id(h) for h in calls] == [id(v) for v in vectors]
        assert [(v.polynomial, v.degree, v.zero_sequence) for v in res.per_vector] == [
            (v.polynomial, v.degree, v.zero_sequence) for v in ref[1]]

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
        # the float degrees are read from beta_0 .. beta_{m-1} too; every
        # float orbit window is walked by _float_walk
        def walk(*args):
            raise AssertionError("an orbit window was walked")

        monkeypatch.setattr(matrices, "_float_walk", walk)
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
            assert got._form == ref._form

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
            got = kernel_window(T, u, w, count)
            assert got == orbit_window(T, u, w, count) and all(map(fractions, got))

    @given(sparse_dims.flatmap(lambda n: st.tuples(
        sparse_operators(n), st.lists(sparse_vectors(n), min_size=1, max_size=3))),
        st.integers(2, 8))
    @settings(max_examples=25, deadline=None)
    def test_survey_windows(self, case, window_len):
        T, vecs = case
        got = [list(orbit_sequence(T, h, window_len).values) for h in vecs]
        assert got == [ref_norm_window(T, h, window_len) for h in vecs]
        assert all(fractions(s) for w in got for s in w)


class TestIntegerWindows:
    """Exact orbit windows and shift basis orbits are born in their kernel
    form, ints over the lcm of the samples' denominators, with no Scalar made
    until values is first read: the samples of the Scalar loops.  Float shift
    basis orbits are born as float64 arrays, and a window made of Scalars
    holds its form from construction."""

    @given(st.one_of(dims.flatmap(lambda n: st.tuples(operators(n), vectors(n))),
                     sparse_dims.filter(lambda n: n <= 6).flatmap(
                         lambda n: st.tuples(sparse_operators(n), sparse_vectors(n)))),
           st.integers(2, 8))
    @settings(max_examples=30, deadline=None)
    def test_orbit_sequence(self, case, window_len):
        T, h = case
        gamma, ref = orbit_sequence(T, h, window_len), ref_norm_window(T, h, window_len)
        assert gamma._form == _int_form(ref)[:2] and gamma._values is None
        assert gamma.values == tuple(ref) and all(map(fractions, gamma.values))

    @given(st.lists(st.builds(Fraction, st.integers(0, 40), st.integers(1, 30)), min_size=14,
                    max_size=14), st.integers(0, 3), st.integers(2, 12),
           st.sampled_from([EXACT, FLOAT]))
    @settings(max_examples=30, deadline=None)
    def test_basis_orbit(self, weights, j, window_len, mode):
        # the float samples are the bits of the Scalar products
        # ref_orbit_norm_sq makes, whose imaginary parts stay 0.0
        W = WeightedShiftOperator([Scalar.exact(w) if mode == EXACT else Scalar.flt(float(w))
                                   for w in weights], mode)
        gamma, ref = W.basis_orbit(j, window_len), [ref_orbit_norm_sq(W, j, n)
                                                    for n in range(window_len)]
        if mode == EXACT:
            assert gamma._form == _int_form(ref)[:2] and gamma._values is None
            assert gamma.values == tuple(ref) and all(map(fractions, gamma.values))
            return
        den, reals = gamma._form
        assert (den, reals.dtype, gamma._values) == (1, np.float64, None)
        assert [x.hex() for x in reals.tolist()] == [s.re.hex() for s in ref]
        assert [(s.re.hex(), s.im.hex()) for s in gamma.values] == \
            [(s.re.hex(), s.im.hex()) for s in ref]

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_a_window_of_scalars_holds_its_form(self, mode):
        values = tuple(Scalar.exact(Fraction(n * n + 1, 6)) if mode == EXACT
                       else Scalar.flt((n * n + 1) / 6) for n in range(5))
        gamma = OrbitSequence(values)
        den, reals = gamma._form
        if mode == EXACT:
            assert (den, reals) == (6, [1, 2, 5, 10, 17])
        else:
            assert den == 1 and reals.tolist() == [s.re for s in values]
        assert gamma.values is values and gamma.window_len == 5


def binomial_defects(T, m):
    """beta_0 .. beta_m as defect() cross-checks them: the binomial sums
    sum_k (-1)^k C(j,k) T*^k T^k of the Gram operators."""
    grams = list(islice(_grams(T), m + 1))
    return [reduce(add, (g.scale((-1) ** k * math.comb(j, k))
                         for k, g in enumerate(grams[:j + 1]))) for j in range(m + 1)]


def operator_defect_walk(T, m):
    """(beta_k, scale) for k <= m by the float arithmetic of DenseOperator's
    @, - and max_abs, as the walk ran before it had a kernel of its own."""
    Tstar = T.adjoint()
    beta, scale, out = DenseOperator.identity(T.dim, FLOAT), 1.0, []
    with np.errstate(all="ignore"):
        for _ in range(m + 1):
            out.append((beta, scale))
            step = Tstar @ beta @ T
            scale = max(scale, beta.max_abs() + step.max_abs())
            beta = beta - step
    return out


@st.composite
def walk_operators(draw):
    """An exact operator of one of three kinds: a Jordan sum at Gaussian-
    rational eigenvalues over denominators other than 1; a unitary diagonal
    beside a Jordan block, whose beta_m, m >= 1, have zero rows; or a Jordan
    sum conjugated by shears I + c E_ab until it is dense."""
    kind = draw(st.sampled_from(["jordan", "zero rows", "sheared"]))
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    small = st.integers(-6, 6)
    if kind == "jordan":
        zs = [Scalar.exact(Fraction(draw(small), d), Fraction(draw(small), d))
              for d in draw(st.lists(st.sampled_from([2, 3, 5, 25]), min_size=len(sizes),
                                     max_size=len(sizes)))]
    else:
        zs = draw(st.lists(unimodular, min_size=len(sizes), max_size=len(sizes)))
    if kind == "zero rows":
        sizes, zs = [1] * len(sizes) + [draw(st.integers(2, 4))], zs + [draw(unimodular)]
    T = direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in zip(zs, sizes)))
    n = T.dim
    if kind == "sheared" and n > 1:
        for a, b in [(a, b) for a in range(n) for b in range(n) if a != b]:
            c = Scalar.exact(draw(st.integers(1, 2)))
            T = shear(n, a, b, c) @ T @ shear(n, a, b, -c)
    return T


J4_3_4 = direct_sum(jordan_matrix(JordanSpec(Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 3)),
                    jordan_matrix(JordanSpec(Scalar.exact(Fraction(1, 2), Fraction(-1, 3)), 1)))


class TestDefectWalk:
    """matrices._defect_walk, the one kernel of the recurrence beta_{m+1} =
    beta_m - T* beta_m T: exactly the binomial sum of defect()'s cross-check
    in exact mode, over its least common denominator, and in float mode the
    bits of the operator arithmetic it replaced."""

    @given(st.one_of(dims.flatmap(operators), sparse_dims.filter(lambda n: n <= 6)
                     .flatmap(sparse_operators)), st.integers(0, 5))
    @example(J4_3_4, 6)
    @settings(max_examples=40, deadline=None)
    def test_exact_walk_is_the_binomial_sum(self, T, m):
        walk = list(islice(_defect_walk(T), m + 1))
        for (beta, scale), ref in zip(walk, binomial_defects(T, m)):
            assert beta.rows == ref.rows and beta._form == ref._form
            assert scale == 1.0

    @given(walk_operators())
    @example(J4_3_4)
    @settings(max_examples=40, deadline=None)
    def test_exact_walk_is_the_operator_recurrence(self, T):
        # the walk keeps beta as its nonzero entries; each beta it yields has
        # the parts of beta - T* beta T made by the generic kernels
        ref, Tstar = DenseOperator.identity(T.dim, EXACT), T.adjoint()
        for beta, _ in islice(_defect_walk(T), 2 * T.dim + 2):
            assert beta._form == ref._form
            ref = ref - Tstar @ ref @ T

    @given(st.integers(0, 12), dims.flatmap(float_operators))
    @settings(max_examples=60, deadline=None)
    def test_float_walk_is_the_operator_arithmetic(self, m, T):
        for (beta, scale), (ref, ref_scale) in zip(islice(_defect_walk(T), m + 1),
                                                   operator_defect_walk(T, m)):
            assert beta._form[1].tobytes() == ref._form[1].tobytes()
            assert scale.hex() == ref_scale.hex()


def fresh_max_abs(op):
    """The largest entry modulus of a float operator, reduced afresh."""
    return float(np.abs(op._form[1]).max())


def ref_first_overflow(T, m_max):
    """The first m <= m_max whose beta_m or walk scale leaves float range,
    tested entry by entry as the finiteness check did before operators
    kept max_abs; None if there is none.  The steps are the walk's own
    array operations, so the bits are the kernel's."""
    a = T._form[1]
    b, scale = np.eye(T.dim, dtype=complex), 1.0
    with np.errstate(all="ignore"):
        for m in range(1, m_max + 1):
            step = a.T.conj() @ b @ a
            scale = max(scale, float(np.abs(b).max()) + float(np.abs(step).max()))
            b = b - step
            if not (math.isfinite(scale) and np.isfinite(b).all()):
                return m
    return None


def overflow_outcome(m):
    return PreconditionError, f"float overflow: the defects beta_k for k <= {m} leave float range"


def flt_operator(rows):
    return DenseOperator([[Scalar.flt(x) for x in r] for r in rows])


class TestMaxAbsMemo:
    """DenseOperator.max_abs is one reduction, kept on the operator: a float
    defect step's scale, finiteness check, zero test and residual all read
    it, and it is the fresh reduction of the kernel form, nan included; the
    walk's overflow errors are those of the entry-by-entry check."""

    @given(dims.flatmap(lambda n: st.one_of(float_operators(n), float_operators(n, unit_scalars))),
           st.integers(1, 12))
    @settings(max_examples=60, deadline=None)
    def test_walked_defects_keep_the_fresh_reduction(self, T, m_max):
        walked, real = [], isometry._defect_walk

        def recording(T):
            for beta, scale in real(T):
                walked.append(beta)
                yield beta, scale

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(isometry, "_defect_walk", recording)
            got = outcome(lambda: strict_order(T, m_max=m_max))
        failed = type(got) is tuple
        # the unchecked walk goes on past an overflow, to inf and nan entries
        walked += [beta for beta, _ in islice(_defect_walk(T), m_max + 1)]
        for beta in walked:
            assert beta.max_abs().hex() == fresh_max_abs(beta).hex()
        if not failed:
            assert got.residual.hex() == fresh_max_abs(got.defects[-1].matrix if not got.strict
                                                       else walked[got.m]).hex()
        # the overflow error, if any, is the entry-by-entry check's, at its m
        bad = ref_first_overflow(T, m_max)
        if failed and got[1].startswith("float overflow: the defects"):
            assert got == overflow_outcome(bad)
        elif not failed:
            assert bad is None or bad > got.m
        for m in (1, m_max):
            d = outcome(lambda: defect(T, m))
            if bad is not None and bad <= m:
                assert d == overflow_outcome(bad)
            else:
                assert d != overflow_outcome(m)

    @pytest.mark.parametrize("rows,m", [
        ([[1e200, 0.0], [0.0, 1.0]], 1),
        # inf - inf: T* T holds inf + nan i, and beta_2 nan alone
        ([[1e200, 1e200], [1e200, -1e200]], 1),
        ([[1e40, 0.0], [0.0, 1.0]], 4),
    ])
    def test_overflowing_walks_raise_where_they_did(self, rows, m):
        T = flt_operator(rows)
        assert ref_first_overflow(T, 9) == m
        assert outcome(lambda: strict_order(T)) == overflow_outcome(m)
        assert outcome(lambda: defect(T, 9)) == overflow_outcome(m)
        assert isinstance(outcome(lambda: defect(T, m - 1)), DefectOperator)

    @pytest.mark.parametrize("at", [(0, 0), (0, 1), (1, 1)])
    def test_a_nan_entry_fails_the_check_at_a_finite_scale(self, at):
        rows = [[1.0, 0.0], [0.0, 1.0]]
        rows[at[0]][at[1]] = math.nan
        op = flt_operator(rows)
        with pytest.raises(PreconditionError, match="float overflow: op leave float range"):
            isometry._check_finite(op, 1.0, "op")
        assert math.isnan(op.max_abs()) and math.isnan(fresh_max_abs(op))

    def test_a_finite_entry_whose_modulus_overflows_passes_the_check(self):
        op = DenseOperator([[Scalar.flt(1.5e308, 1.5e308), Scalar.flt(0.0)],
                            [Scalar.flt(0.0), Scalar.flt(1.0)]])
        isometry._check_finite(op, 1.0, "op")
        assert op.max_abs() == math.inf

    def test_a_kept_form_is_read_only(self):
        op = flt_operator([[1.0, 2.0], [3.0, 4.0]])
        assert op.max_abs() == 4.0
        with pytest.raises(ValueError):
            op._form[1][0, 0] = 9.0
        assert op.max_abs() == fresh_max_abs(op) == 4.0


def ref_polarization_pairs(n):
    """The candidate order as a generator makes it, triple by triple."""
    yield from ((j, None, 0) for j in range(n))
    yield from ((a, b, p) for a in range(n) for b in range(a + 1, n) for p in (0, 1))


def ref_polarization_pair(n, k):
    """The k-th candidate of n vectors, made from k alone."""
    if k < n:
        return k, None, 0
    (k, phase), a = divmod(k - n, 2), 0
    while k >= n - 1 - a:
        k, a = k - (n - 1 - a), a + 1
    return a, a + 1 + k, phase


@pytest.mark.parametrize("n", range(17))
def test_polarization_pair_is_the_kth_candidate(n):
    """polarization_pairs(n) is one kept table: the same tuple on every
    call, in the generator's order, its k-th entry the k-th candidate."""
    table = polarization_pairs(n)
    assert polarization_pairs(n) is table
    assert table == tuple(ref_polarization_pairs(n))
    assert [table[k] for k in range(n * n)] == [ref_polarization_pair(n, k)
                                                for k in range(n * n)]


def ref_mask_polarization_values(B):
    """The float polarization values of a Hermitian B read through boolean
    masks of the strict upper triangle, whose row-major order, each pair
    giving its e_a + e_b value and then its e_a + i e_b one, is the
    candidate order."""
    n, (_, rows) = B.dim, B._form
    upper, diag = ~np.tri(n, dtype=bool), rows.diagonal()
    with np.errstate(all="ignore"):
        both, ab, ba = (diag[:, None] + diag)[upper], rows[upper], rows.T[upper]
        diff = ab - ba
        pairs = np.stack((both + (ab + ba), both + matrices._complex(-diff.imag, diff.real)),
                         axis=1)
        values = np.abs(np.concatenate((diag, pairs.ravel())))
    if not np.isfinite(values).all():
        raise PreconditionError("float overflow: a form <B h, h> of the polarization "
                                "candidates leaves float range")
    return values.tolist()


@given(st.integers(1, 16).flatmap(lambda n: st.sampled_from([BOUNDED, tied_floats]).flatmap(
    lambda parts: st.lists(st.tuples(parts, parts), min_size=n * n, max_size=n * n)).map(
    lambda entries: float_operator(n, True, entries))))
@example(float_operator(*OVERFLOWING_FORMS[0]))
@example(float_operator(12, True, generic_parts(144, 0)))
@settings(max_examples=60, deadline=None)
def test_float_polarization_values_keep_the_mask_bits(B):
    """The gather through the kept table's index arrays gives the mask
    read's bits, and the same float-overflow error where a value leaves
    float range."""
    def hexes(read):
        return outcome(lambda: [x.hex() for x in read(B)])

    assert hexes(_polarization_values) == hexes(ref_mask_polarization_values)


# (rows of a Hermitian beta, float_scale, tol, exact witness, float witness)
# with ties among the largest polarization values, where the first candidate
# wins, and with the float largest exactly at threshold / 4, where there is
# no witness; exact mode's threshold is 0
WITNESS_EDGES = [
    ([[1, 0], [0, -1]], 1.0, 0.0, (0, None, 0), (0, None, 0)),
    ([[1, 0], [0, 1]], 1.0, 0.0, (0, 1, 0), (0, 1, 0)),
    ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], 1.0, 0.0, (0, 1, 0), (0, 1, 0)),
    ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], 1.0, 0.0, (1, 2, 0), (1, 2, 0)),
    ([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]], 4.0, 0.5, (0, None, 0), None),
    ([[Fraction(1, 2), 0], [0, Fraction(-1, 2)]], 4.0, 0.25, (0, None, 0), (0, None, 0)),
    ([[0, 0], [0, 0]], 1.0, 0.0, None, None),
]


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("rows,scale,tol,exact_want,float_want", WITNESS_EDGES)
def test_witness_ties_and_threshold(mode, rows, scale, tol, exact_want, float_want):
    make = Scalar.exact if mode == EXACT else (lambda x: Scalar.flt(float(x)))
    d = DefectOperator(m=1, matrix=DenseOperator([[make(x) for x in r] for r in rows]),
                       float_scale=scale)
    want = exact_want if mode == EXACT else float_want
    got = _nonzero_form_witness(d, tol)
    assert got == ref_nonzero_form_witness(d, tol)
    assert got == (None if want is None else _polarization_vector(
        lambda j: basis_vector(len(rows), j, mode), *want))


@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(tied_parts, tied_parts), min_size=n * n, max_size=n * n))),
    st.sampled_from([0.0, 1.0, 2.0, 4.0, 8.0]))
@settings(max_examples=80, deadline=None)
def test_float_witness_reads_the_entries(case, tol):
    """Hermitian float betas of few exact values, so that candidates tie and
    values sit exactly at threshold / 4 = tol / 4: the first best candidate
    above it, as the vector loop finds it."""
    n, entries = case
    beta = DenseOperator(square(n, True, [Scalar.flt(float(x), float(y)) for x, y in entries]))
    d = DefectOperator(m=1, matrix=beta, float_scale=1.0)
    assert _nonzero_form_witness(d, tol) == ref_nonzero_form_witness(d, tol)


def ref_forms_degrees(op, vectors, verdict, tol):
    """The survey's degrees with every form read through matrices._forms,
    basis vectors included, as they were read before the diagonal read."""
    betas, mode, out = verdict.defects, op.mode, []
    for forms in _forms([b.matrix for b in betas], vectors):
        if mode == EXACT:
            values, norm = [abs(re) for ((_, re, _),) in forms], None
        else:
            values, norm = [math.hypot(re, im) for ((_, re, im),) in forms], forms[0][0][1]
        out.append(next((j for j in reversed(range(len(betas))) if not negligible(
            values[j], mode, tol, lambda: betas[j].float_scale * norm, "x")), None))
    return out


def basis_mix(n, mode, picks):
    """Vectors made of basis vectors: e_i, 2 e_i, i e_i, -e_i and e_i + e_j,
    for (kind, i, j) in picks."""
    e = [basis_vector(n, k, mode) for k in range(n)]
    one = Scalar.one(mode)
    made = {"e": lambda i, j: e[i], "2e": lambda i, j: vec_scale(one + one, e[i]),
            "ie": lambda i, j: vec_scale(Scalar.i_unit(mode), e[i]),
            "-e": lambda i, j: vec_scale(-one, e[i]), "e+e": lambda i, j: vec_add(e[i], e[j])}
    return [made[kind](i % n, j % n) for kind, i, j in picks]


@given(strict_exact_operators(), st.sampled_from(["exact", "float", "conjugated"]),
       st.lists(st.tuples(st.sampled_from(["e", "2e", "ie", "-e", "e+e"]), st.integers(0, 5),
                          st.integers(0, 5)), min_size=1, max_size=8), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_beta_degrees_read_the_diagonal(T, kind, picks, seed):
    """On strict operators, the degrees of basis vectors read from
    diag(beta_j), mixed with vectors that go through _forms, are the degrees
    of the read through _forms for every vector."""
    if kind != "exact":
        T = operator_to_float(T)
    if kind == "conjugated":
        T = conjugate_by_unitary(T, random_unitary(T.dim, np.random.default_rng(seed)))
    vectors = basis_mix(T.dim, T.mode, picks)
    verdict = strict_order(T)
    if not verdict.strict:
        return
    got = _beta_degrees(T, vectors, 2 * T.dim + 2, verdict, isometry.DEFAULT_DEFECT_TOL)
    assert [v.degree for v in got] == ref_forms_degrees(T, vectors, verdict,
                                                        isometry.DEFAULT_DEFECT_TOL)
    assert [v.zero_sequence for v in got] == [v.degree is None for v in got]


def test_exact_basis_survey_takes_no_vector_apart(monkeypatch):
    """An exact survey of basis vectors reads diag(beta_j) and calls _parts
    on none of them; a vector that is not a basis vector is taken apart."""
    T = direct_sum(jordan_matrix(JordanSpec(Scalar.exact(1), 3)),
                   jordan_matrix(JordanSpec(Scalar.exact(0, 1), 2)))
    vectors = [basis_vector(T.dim, j, EXACT) for j in range(T.dim)]
    other = vec_scale(Scalar.exact(2), vectors[0])
    converted, _ = record_kernel_reads(monkeypatch)
    res = local_isometry_survey(T, vectors)
    assert res.global_verdict.describe() == "strict-order(5)"
    assert [v.degree for v in res.per_vector] == [0, 2, 4, 0, 2]
    assert not [c for c in converted if any(list(c) == list(h) for h in vectors)]
    local_isometry_survey(T, vectors + [other])
    assert [c for c in converted if list(c) == list(other)]


def counting_ints(mults):
    """An int type that appends to mults at each product and keeps its type
    through sums, differences, negation and quotients, so that products of
    results are counted too."""
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

    return Counted


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
    Counted = counting_ints(mults)
    T = direct_sum(*(jordan_matrix(JordanSpec(z=z, size=4)) for z in (
        Scalar.exact(1), Scalar.exact(0, 1), Scalar.exact(Fraction(3, 5), Fraction(4, 5)))))
    den, rows = T._form
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
    window = kernel_window(counted, u, u, 2)
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
        if s.mode == FLOAT and not o.is_zero():
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

    @given(st.one_of(gaussian, imaginary), st.one_of(gaussian, imaginary, st.integers(-5, 5)))
    @settings(max_examples=150, deadline=None)
    def test_product(self, s, o):
        # the Fraction loop's canonical parts, from either side
        x, y = (o, Fraction(0)) if isinstance(o, int) else (o.re, o.im)
        ref = Scalar(EXACT, s.re * x - s.im * y, s.re * y + s.im * x)
        for got in (s * o, o * s):
            assert got == ref and fractions(got)

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
        if o.is_zero():
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
    """A polynomial takes its coefficients apart once, at construction,
    however often it is evaluated, and its Horner loop makes no Scalar product or sum; zI and
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
        converted.clear()
        p = Polynomial.from_ints([1, 2, 3], mode)
        values = [p(n) for n in range(20)] + [p(Scalar.i_unit(mode))]
        assert converted == [list(p.coeffs)]
        assert values[3] == Scalar.from_int(34, mode)
        assert values[-1] == Scalar(mode, *((-2, 2) if mode == EXACT else (-2.0, 2.0)))
        # an int argument goes straight to its parts: the value is the only
        # Scalar made, and its real part the only Fraction (the zero imaginary
        # part is the shared one)
        made.clear()
        monkeypatch.setattr(Scalar, "__init__", counted_init)
        monkeypatch.setattr(Fraction, "__new__", counted_new)
        value = p(7)
        monkeypatch.setattr(Scalar, "__init__", real_init)
        monkeypatch.setattr(Fraction, "__new__", real_new)
        assert made == (["Fraction", "Scalar"] if mode == EXACT else ["Scalar"])
        assert value == Scalar.from_int(162, mode)
    monkeypatch.undo()
    monkeypatch.setattr(matrices, "_scalar", refused)
    T = jordan_matrix(JordanSpec(z=Scalar.exact(Fraction(3, 5), Fraction(4, 5)), size=3))
    z = Scalar.exact(Fraction(3, 5), Fraction(4, 5))
    zI = DenseOperator.identity(3, EXACT).scale(z)
    N = T - zI
    assert N._form == (1, [([0, 1, 0], [0, 0, 0]), ([0, 0, 1], [0, 0, 0]),
                                  ([0, 0, 0], [0, 0, 0])])
    assert zI._form == (5, [([3 * (i == j) for j in range(3)],
                                    [4 * (i == j) for j in range(3)]) for i in range(3)])


# ---------------------------------------------------------------------------
# The cross-checks raise when the two computations disagree.
# ---------------------------------------------------------------------------


def reals_window(reals, mode):
    """The window of the reals (ints, Fractions or floats) as Scalars of mode."""
    return OrbitSequence([Scalar.exact(r) if mode == EXACT else Scalar.flt(r) for r in reals])


def difference_rows(reals):
    rows = [list(reals)]
    while len(rows[-1]) > 1:
        prev = rows[-1]
        rows.append([prev[n + 1] - prev[n] for n in range(len(prev) - 1)])
    return rows


class TestBinomialFormCheck:
    def test_binomial_rows_are_tuples_in_a_bounded_cache(self):
        # a long window asks for many rows; only the last 128 are kept
        assert _binomial_coeffs(4) == (1, -4, 6, -4, 1)
        assert _binomial_coeffs.cache_info().maxsize == 128

    def test_exact_row_off_by_one_over_den_raises(self):
        gamma = reals_window([Fraction(n ** 3 - 2, 7 + n) for n in range(7)], EXACT)
        den, reals, _ = _int_form(gamma.values)
        rows = difference_rows(reals)
        for m, row in enumerate(rows):
            _check_binomial_form(reals, m, [row], 0.0)
        rows[3][1] += 1          # one unit of 1/den
        with pytest.raises(InternalCheckError, match="row 3 entry 1"):
            _check_binomial_form(reals, 3, [rows[3]], 0.0)

    # C(1040, 520) is beyond float range, so a slack made from it as a
    # float ends in OverflowError; exact rows need no slack at all
    def test_long_exact_row_is_compared_without_float(self):
        gamma = reals_window([Fraction(n % 2, 3) for n in range(1042)], EXACT)
        den, reals, _ = _int_form(gamma.values)
        assert den == 3
        row = difference_rows(reals)[1040]
        _check_binomial_form(reals, 1040, [row], 0.0)
        row[0] += 1          # one unit of 1/den
        with pytest.raises(InternalCheckError, match="row 1040 entry 0"):
            _check_binomial_form(reals, 1040, [row], 0.0)

    def test_long_float_row_slack_overflow_raises(self):
        reals = [1.0] * 1042
        with pytest.raises(PreconditionError, match="float overflow"):
            _check_binomial_form(reals, 1040, [[0.0, 0.0]], 1.0)

    def test_float_row_beyond_slack_raises(self):
        reals = [float(n * n) + 0.5 for n in range(7)]
        scale = max(reals)
        m = 4
        slack = 1e-12 * scale * math.comb(m, m // 2) * (m + 1)
        rows = difference_rows(reals)
        rows[m][0] += 0.5 * slack
        _check_binomial_form(reals, m, [rows[m]], scale)
        rows[m][0] += 2 * slack
        with pytest.raises(InternalCheckError, match=f"row {m} entry 0"):
            _check_binomial_form(reals, m, [rows[m]], scale)


    # 9 to 16 terms, and rows from m = 57 on, where C(m, k) passes 2^53 and
    # float(C(m, k)) rounds.  The float sums may add in any order: the
    # left-to-right Scalar loop and the check's own sums are each within
    # gamma_(m+2) sum_k |c_k v_k| of the exact sum (float(c_k) rounds once
    # more), and twice that is inside the slack the check allows, so the
    # check passes on the Scalar loop's row and refuses an entry moved by
    # twice the slack.
    @given(st.one_of(st.integers(9, 16), st.integers(57, 64)).flatmap(
        lambda m: st.tuples(st.just(m), st.lists(st.floats(-1e3, 1e3), min_size=m + 1,
                                                 max_size=m + 8))), st.data())
    @settings(max_examples=60, deadline=None)
    def test_float_sums_meet_the_rounding_bound(self, case, data):
        m, reals = case
        coeffs = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
        windows = [reals[n:n + m + 1] for n in range(len(reals) - m)]
        sums = [reduce(add, map(mul, coeffs, w)) for w in windows]
        scale = max(1.0, max(map(abs, reals)))
        slack = 1e-12 * scale * math.comb(m, m // 2) * (m + 1)
        assert all(2 * gamma(m + 2) * math.fsum(abs(c * x) for c, x in zip(coeffs, w)) <= slack
                   for w in windows)
        _check_binomial_form(reals, m, [sums], scale)
        n = data.draw(st.integers(0, len(sums) - 1))
        sums[n] += data.draw(st.sampled_from([2.0, -2.0])) * slack
        with pytest.raises(InternalCheckError, match=f"row {m} entry {n} disagrees"):
            _check_binomial_form(reals, m, [sums], scale)


def test_exact_defect_walk_visits_only_nonzero_pairs():
    """A step of the exact defect walk makes four integer products per pair
    of nonzero entries of beta and T, and of T* and C = beta T, and two per
    nonzero entry of beta for beta dt^2: a zero entry or row of beta costs
    none.  On 1 + 1 + 1 + 4 (a unitary diagonal beside one Jordan block)
    the beta_m, m >= 1, are zero on the diagonal's rows and columns."""
    mults = []
    Counted = counting_ints(mults)
    T = direct_sum(*(jordan_matrix(JordanSpec(z=z, size=k)) for z, k in (
        (Scalar.exact(1), 1), (Scalar.exact(0, 1), 1), (Scalar.exact(-1), 1),
        (Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 4))))
    den, rows = T._form
    counted = DenseOperator._from_parts(EXACT, den, [tuple(list(map(Counted, part)) for part in r)
                                                     for r in rows])
    walk, ref, Tstar = _defect_walk(counted), DenseOperator.identity(7, EXACT), T.adjoint()
    for m in range(6):
        beta, c = ref.rows, ref_matmul(ref, T)
        nonzeros = sum(not s.is_zero() for r in beta for s in r)
        if m:
            assert not any(not s.is_zero() for r in beta[:3] for s in r) and nonzeros <= 16
        mults.clear()
        got, _ = next(walk)
        assert got._form == ref._form
        if m:   # beta_0 is yielded before any step
            assert 0 < len(mults) <= bound < 4 * 2 * 7 ** 3
        bound = 4 * (nonzero_pairs(beta, T.rows) + nonzero_pairs(Tstar.rows, c)) + 2 * nonzeros
        ref = ref - Tstar @ ref @ T


class TestDefectCrossCheck:
    def test_corrupted_walk_raises(self, monkeypatch):
        # the exact binomial sum is made in integers, apart from the walk: a
        # beta_3 one unit of 1/den off is caught at m = 3 and at no other m
        real = isometry._defect_walk

        def corrupted(T):
            for m, (beta, scale) in enumerate(real(T)):
                if m == 3:
                    den, rows = beta._form
                    rows = [(list(re), list(im)) for re, im in rows]
                    rows[1][0][2] += 1
                    beta = DenseOperator._from_parts(EXACT, den, rows)
                yield beta, scale

        monkeypatch.setattr(isometry, "_defect_walk", corrupted)
        for m in (1, 2, 4):
            assert defect(J4_3_4, m).m == m
        with pytest.raises(InternalCheckError, match="m=3"):
            defect(J4_3_4, 3)

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
