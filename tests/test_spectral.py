"""Jordan structure, decomposition, perturbation and orthogonality tests."""

import math
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolab import (
    DenseOperator,
    EigenHintError,
    JordanSpec,
    ModeMismatchError,
    PreconditionError,
    Scalar,
    algebraic_decompose,
    basis_vector,
    cyclic_subspace,
    difference_table,
    direct_sum,
    generalized_eigenspaces,
    is_m_isometry,
    jordan_matrix,
    jordan_pair_equivalences,
    nilpotency_index,
    orbit,
    orbit_sequence,
    ortho_test_generalized,
    parse_operator_spec,
    perturbation_analysis,
    strict_order,
    vec_add,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
    vec_scale,
)
from misolab import spectral
from misolab.isometry import _defects
from misolab import matrices
from misolab.matrices import (_components, _echelon, _polarization_vector, _row_space_walk,
                              _shifted, polarization_pairs, vec_is_zero)
from misolab.scalars import EXACT, FLOAT
from misolab.spectral import (CLUSTER_TOL, _restricted_strict_order, _single_linkage,
                              _rref_entry, _strictness_criterion, exact_nullspace, from_numpy,
                              to_numpy)
from misolab.suites import (UNIMODULAR_EXACT, conjugate_by_unitary, operator_to_float,
                            perturbation_corpus, random_unitary)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ONE = Scalar.exact(1)
I_ = Scalar.exact(0, 1)
EXAMPLE = DenseOperator([
    [I_, Scalar.exact(2)],
    [Scalar.exact(0), -I_],
])
EXAMPLE_HINTS = (I_, -I_)


class TestJordanMatrix:
    def test_size_one(self):
        assert jordan_matrix(JordanSpec(ONE, 1)) == DenseOperator.from_ints([[1]])

    def test_size_two_at_i(self):
        J = jordan_matrix(JordanSpec(I_, 2))
        assert J.rows[0] == (I_, ONE)
        assert J.rows[1] == (Scalar.exact(0), I_)

    def test_size_three(self):
        J = jordan_matrix(JordanSpec(Scalar.exact(-1), 3))
        for r in range(3):
            assert J.rows[r][r] == Scalar.exact(-1)
        assert J.rows[0][1] == ONE and J.rows[1][2] == ONE


class TestNilpotency:
    def test_zero_matrix(self):
        info = nilpotency_index(DenseOperator.zeros(3, EXACT))
        assert info.index == 1

    def test_shift_chain(self):
        info = nilpotency_index(jordan_matrix(JordanSpec(Scalar.exact(0), 3)))
        assert info.index == 3
        assert info.witness == vec_from_ints([0, 0, 1])

    def test_identity_is_not_nilpotent(self):
        assert nilpotency_index(DenseOperator.identity(2, EXACT)) is None

    def test_powers_start_from_n(self, monkeypatch):
        # N^1 is N itself: J_5(0) takes the products N^2 .. N^5, and
        # N.power(4) the three of N^2 .. N^4
        products, matmul = [], DenseOperator.__matmul__
        monkeypatch.setattr(DenseOperator, "__matmul__",
                            lambda a, b: products.append(None) or matmul(a, b))
        N = jordan_matrix(JordanSpec(Scalar.exact(0), 5))
        assert nilpotency_index(N).index == 5 and len(products) == 4
        products.clear()
        assert N.power(4) == matmul(N, matmul(N, matmul(N, N))) and len(products) == 3
        assert N.power(1) is N and N.power(0) == DenseOperator.identity(5, EXACT)


# ---------------------------------------------------------------------------
# Exact elimination against the division-based Gauss-Jordan loop on Scalars
# ---------------------------------------------------------------------------

def ref_exact_rref(rows):
    """Reduced row echelon form by Gauss-Jordan on exact Scalars, one
    division per pivot row entry; returns (rows, pivot cols)."""
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_nullspace(rows):
    red, pivots = ref_exact_rref(rows)
    ncols = len(rows[0])
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [Scalar.exact(0)] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def rref(A):
    """(RREF rows as exact Scalars, pivot cols) from matrices._echelon's integer rows."""
    rows, pivots = _echelon(A._form[1])
    return [[_rref_entry(row, c, j) for j in range(A.dim)] for row, c in zip(rows, pivots)], pivots


def parts_of(rows):
    return [[(s.re, s.im) for s in r] for r in rows]


_part = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
    # large coprime denominators
    st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
              st.sampled_from([2 ** 61 - 1, 10 ** 20 + 39, 3 ** 40, 7 ** 30])),
)
_entry = st.one_of(
    st.just(Scalar.exact(0)),
    st.builds(Scalar.exact, _part, _part),
    st.builds(lambda y: Scalar.exact(0, y), _part),
)


@st.composite
def gaussian_matrices(draw):
    """m x n Gaussian-rational rows, 1 <= m, n <= 8: the zero matrix, all
    entries purely imaginary, or general entries; then some rows replaced
    by combinations of two others, so the rank drops on purpose."""
    m, n = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["zero", "imaginary", "general"]))
    if kind == "zero":
        return [[Scalar.exact(0)] * n for _ in range(m)]
    entry = st.builds(lambda y: Scalar.exact(0, y), _part) if kind == "imaginary" else _entry
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    for _ in range(draw(st.integers(0, m - 1))):
        t, a, b = (draw(st.integers(0, m - 1)) for _ in range(3))
        ca, cb = draw(_entry), draw(_entry)
        rows[t] = [ca * x + cb * y for x, y in zip(rows[a], rows[b])]
    return rows


class TestExactElimination:
    @given(gaussian_matrices())
    @settings(max_examples=150, deadline=None)
    def test_rref_and_nullspace_match_the_division_loop(self, rows):
        # the square operator with zero rows or columns appended
        dim = max(len(rows), len(rows[0]))
        zero = Scalar.exact(0)
        square = [list(r) + [zero] * (dim - len(r)) for r in rows]
        square += [[zero] * dim for _ in range(dim - len(rows))]
        A = DenseOperator(square)
        ref_red, ref_pivots = ref_exact_rref(square)
        red, pivots = rref(A)
        assert pivots == ref_pivots
        assert parts_of(red) == parts_of(ref_red[:len(pivots)])

        basis = exact_nullspace(A)
        assert parts_of(basis) == parts_of(ref_nullspace(square))
        assert len(basis) == dim - len(ref_pivots)
        for v in basis:
            for r in square:
                acc = zero
                for a, x in zip(r, v):
                    acc = acc + a * x
                assert acc == zero

    @given(gaussian_matrices(), st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4))
                                         .filter(any), min_size=8, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_echelon_rows_are_the_least_integer_multiples(self, rows, factors):
        # rows scaled by Gaussian integers come out as their RREF rows times
        # the lcm of each row's denominators, up to sign
        dim = max(len(rows), len(rows[0]))
        zero = Scalar.exact(0)
        A = DenseOperator([list(r) + [zero] * (dim - len(r)) for r in rows]
                          + [[zero] * dim for _ in range(dim - len(rows))])
        scaled = [([a * x - b * y for x, y in zip(re, im)], [a * y + b * x for x, y in zip(re, im)])
                  for (re, im), (a, b) in zip(A._form[1], factors)]
        red, pivots = rref(A)
        got, got_pivots = _echelon(scaled)
        assert got_pivots == pivots and len(got) == len(red)
        for row, ref in zip(got, red):
            lcm = math.lcm(*(part.denominator for x in ref for part in (x.re, x.im)))
            want = [int(x.re * lcm) for x in ref], [int(x.im * lcm) for x in ref]
            assert row in (want, tuple([-x for x in part] for part in want))

    def test_purely_imaginary_pivot(self):
        # rows (i, 1) and (2i, 2): rank 1, kernel spanned by (i, 1)
        A = DenseOperator([[I_, ONE], [Scalar.exact(0, 2), Scalar.exact(2)]])
        assert rref(A) == ([[ONE, -I_]], [0])
        assert exact_nullspace(A) == [(I_, ONE)]


# ---------------------------------------------------------------------------
# Kernel chains of exact T - zI: the row-space walk against the powers
# ---------------------------------------------------------------------------

def ref_kernel_chain(M):
    """(depth, basis): exact_nullspace of M, M^2, ... by `@` until the kernel
    dimension stabilizes, depth the first power with the final dimension."""
    power, kernels = DenseOperator.identity(M.dim, EXACT), []
    for _ in range(M.dim):
        power = power @ M
        kernels.append(exact_nullspace(power))
        if len(kernels) >= 2 and len(kernels[-1]) == len(kernels[-2]):
            break
    depth = next(k + 1 for k, ker in enumerate(kernels) if len(ker) == len(kernels[-1]))
    return depth, kernels[depth - 1]


def unit_triangular(n, rng, upper):
    """(I + N, (I + N)^-1) for a seeded strictly triangular N with Gaussian-rational
    entries: the inverse is sum_k (-N)^k."""
    def entry():
        return Scalar.exact(*(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))
                              for _ in range(2)))
    zero, ident = Scalar.exact(0), DenseOperator.identity(n, EXACT)
    N = DenseOperator([[entry() if (j > i if upper else j < i) else zero for j in range(n)]
                       for i in range(n)])
    inverse = term = ident
    for _ in range(n - 1):
        term = term @ -N
        inverse = inverse + term
    return ident + N, inverse


def dense_similar(blocks, seed):
    """S J S^-1, J the direct sum of the Jordan blocks (z, k) of blocks and S =
    L U from seeded unit triangular factors, so that every entry is dense."""
    J = direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in blocks))
    rng = random.Random(seed)
    (L, L_inv), (U, U_inv) = (unit_triangular(J.dim, rng, upper) for upper in (False, True))
    S, S_inv = L @ U, U_inv @ L_inv
    assert S @ S_inv == DenseOperator.identity(J.dim, EXACT)
    return S @ J @ S_inv


Z35 = Scalar.exact(Fraction(3, 5), Fraction(4, 5))
# (T, hints): hints hold eigenvalues and values that are not
WALK_CASES = {
    "dense-three-eigenvalues": (dense_similar([(Z35, 3), (-ONE, 2), (I_, 1)], 1),
                                (Z35, -ONE, I_, ONE, Scalar.exact(Fraction(1, 2), 2))),
    "dense-two-blocks-at-one-z": (dense_similar([(ONE, 2), (ONE, 1), (-I_, 2)], 2),
                                  (ONE, -I_, I_)),
    "dense-two-equal-blocks": (dense_similar([(I_, 2), (I_, 2), (ONE, 1)], 3),
                               (I_, ONE, Scalar.exact(0))),
    "zero": (DenseOperator.zeros(3, EXACT), (Scalar.exact(0), ONE)),
    "identity": (DenseOperator.identity(3, EXACT), (ONE, Scalar.exact(0), -I_)),
    "nilpotent-J5(0)": (jordan_matrix(JordanSpec(Scalar.exact(0), 5)), (Scalar.exact(0), ONE)),
    "one-by-one": (DenseOperator([[Z35]]), (Z35, ONE)),
}


def permuted(T, p):
    """P T P^T for the permutation p: entry ij is T's entry p[i] p[j]."""
    return DenseOperator([[T.rows[a][b] for b in p] for a in p])


def triangular(diagonal, upper, seed):
    """A seeded exact triangular matrix with the given diagonal and dense
    Gaussian-integer entries on one side of it."""
    rng, n = random.Random(seed), len(diagonal)
    return DenseOperator([[diagonal[i] if i == j else
                           Scalar.exact(rng.randint(1, 3), rng.randint(-2, 2))
                           if (j > i if upper else j < i) else Scalar.exact(0)
                           for j in range(n)] for i in range(n)])


# the blocks of T - zI walk on their own: permuted sums, whose blocks are not
# index ranges, triangular blocks with z on and off their diagonals, isolated
# indices beside a dense invertible block, and blocks that share an eigenvalue
BLOCK_PERMUTATION = [5, 0, 7, 2, 4, 1, 6, 3]
WALK_CASES.update({
    "blocks-permuted-jordan-sum": (
        permuted(direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in (
            (ONE, 3), (I_, 2), (-ONE, 1), (ONE, 2)))), BLOCK_PERMUTATION),
        (ONE, I_, -ONE, Scalar.exact(0), Z35)),
    "blocks-upper-and-lower-triangular": (
        direct_sum(triangular([ONE, Scalar.exact(2), ONE], True, 1),
                   triangular([I_, I_, Z35], False, 2)),
        (ONE, Scalar.exact(2), I_, Z35, Scalar.exact(0))),
    "blocks-isolated-beside-dense": (
        permuted(direct_sum(dense_similar([(Z35, 2), (-ONE, 1)], 4),
                            DenseOperator([[ONE, Scalar.exact(0)], [Scalar.exact(0), I_]])),
                 [3, 0, 1, 4, 2]),
        (ONE, I_, Z35, -ONE, Scalar.exact(2))),
    "blocks-sharing-an-eigenvalue": (
        direct_sum(dense_similar([(ONE, 2)], 5), jordan_matrix(JordanSpec(ONE, 2)),
                   dense_similar([(ONE, 1), (I_, 2)], 6)),
        (ONE, I_, -ONE)),
})


class TestRowSpaceWalk:
    @pytest.mark.parametrize("case", sorted(WALK_CASES))
    def test_walk_is_the_powers_chain(self, case):
        T, hints = WALK_CASES[case]
        if case.startswith("dense"):
            den, rows = T._form
            assert den > 1 and all(all(re) and all(im) for re, im in rows)
        ref = []
        for z in hints:
            M = _shifted(T, z)
            assert M == T - DenseOperator.identity(T.dim, EXACT).scale(z)
            depth, R = _row_space_walk(M, _components(M))
            ref.append((z, *ref_kernel_chain(M)))
            assert (z, depth, exact_nullspace(R)) == ref[-1]
        spaces = generalized_eigenspaces(T, eigen_hints=hints)
        assert [(sp.eigenvalue, sp.chain_depth, list(sp.basis)) for sp in spaces] == \
            [(z, depth, basis) for z, depth, basis in ref if basis]

    @pytest.mark.parametrize("case,z,depth,dim", [
        ("dense-three-eigenvalues", Z35, 3, 3), ("dense-three-eigenvalues", ONE, 1, 0),
        ("dense-two-blocks-at-one-z", ONE, 2, 3), ("dense-two-equal-blocks", I_, 2, 4),
        ("zero", Scalar.exact(0), 1, 3), ("identity", ONE, 1, 3),
        ("identity", Scalar.exact(0), 1, 0), ("nilpotent-J5(0)", Scalar.exact(0), 5, 5)])
    def test_depth_and_dimension(self, case, z, depth, dim):
        M = _shifted(WALK_CASES[case][0], z)
        got_depth, R = _row_space_walk(M, _components(M))
        assert (got_depth, len(exact_nullspace(R))) == (depth, dim)

    @pytest.mark.parametrize("case,blocks", [
        ("blocks-permuted-jordan-sum",
         [([0], True), ([1, 3, 5], False), ([2, 6], True), ([4, 7], True)]),
        ("blocks-upper-and-lower-triangular", [([0, 1, 2], True), ([3, 4, 5], True)]),
        ("blocks-isolated-beside-dense", [([0], True), ([1, 2, 4], False), ([3], True)]),
        ("blocks-sharing-an-eigenvalue",
         [([0, 1], False), ([2, 3], True), ([4, 5, 6], False)]),
        ("nilpotent-J5(0)", [([0, 1, 2, 3, 4], True)]),
        ("identity", [([0], True), ([1], True), ([2], True)])])
    def test_components_of_t_serve_every_hint(self, case, blocks):
        T, hints = WALK_CASES[case]
        assert _components(T) == blocks
        assert all(_components(_shifted(T, z)) == blocks for z in hints)

    def test_only_the_singular_block_is_eliminated(self, monkeypatch):
        # at z = 1, J_4(i) - I is triangular with no zero on its diagonal, so
        # only the 3 x 3 block J_3(0) of J_3(1) + J_4(i) - I is eliminated
        T = direct_sum(jordan_matrix(JordanSpec(ONE, 3)), jordan_matrix(JordanSpec(I_, 4)))
        widths, echelon = [], matrices._echelon
        monkeypatch.setattr(matrices, "_echelon",
                            lambda rows: widths.append(len(rows[0][0])) or echelon(rows))
        M = _shifted(T, ONE)
        depth, R = _row_space_walk(M, _components(T))
        assert widths == [3, 3, 3]
        assert (depth, exact_nullspace(R)) == ref_kernel_chain(M)
        assert depth == 3

    def test_chain_boxes_only_the_final_basis(self, monkeypatch):
        T, hints = WALK_CASES["dense-three-eigenvalues"]
        nullspaces, products = [], []
        nullspace, matmul = spectral.exact_nullspace, DenseOperator.__matmul__

        def counted_nullspace(A):
            nullspaces.append(A)
            return nullspace(A)

        def counted_matmul(a, b):
            products.append((a, b))
            return matmul(a, b)

        monkeypatch.setattr(spectral, "exact_nullspace", counted_nullspace)
        monkeypatch.setattr(DenseOperator, "__matmul__", counted_matmul)
        dec = algebraic_decompose(T, eigen_hints=hints)
        assert [sp.dimension for sp in dec.blocks] == [3, 2, 1]
        assert len(nullspaces) == len(hints) and products == []


class TestGeneralizedEigenspaces:
    def test_diagonal(self):
        T = DenseOperator.from_ints([[1, 0], [0, -1]])
        spaces = generalized_eigenspaces(T, eigen_hints=(ONE, Scalar.exact(-1)))
        assert sorted(sp.dimension for sp in spaces) == [1, 1]

    def test_jordan_block_depth(self):
        spaces = generalized_eigenspaces(jordan_matrix(JordanSpec(I_, 2)),
                                         eigen_hints=(I_,))
        assert len(spaces) == 1
        assert spaces[0].dimension == 2 and spaces[0].chain_depth == 2

    def test_worked_example_spans(self):
        spaces = generalized_eigenspaces(EXAMPLE, eigen_hints=EXAMPLE_HINTS)
        by_eig = {sp.eigenvalue: sp for sp in spaces}
        v_plus = by_eig[I_].basis[0]
        # span{(1, 0)} at i: second coordinate vanishes
        assert v_plus[1].is_zero()
        v_minus = by_eig[-I_].basis[0]
        # span{(i, 1)} at -i: first coordinate is i times the second
        assert v_minus[0] == I_ * v_minus[1]

    def test_missing_hint_detected(self):
        with pytest.raises(EigenHintError):
            generalized_eigenspaces(EXAMPLE, eigen_hints=(I_,))

    def test_exact_mode_requires_hints(self):
        with pytest.raises(EigenHintError):
            generalized_eigenspaces(EXAMPLE)

    @pytest.mark.parametrize("hints", [[1, -1], [Fraction(1), Fraction(-1)],
                                       [1, Fraction(-1)]])
    def test_int_and_fraction_hints_are_exact_scalars(self, hints):
        T = direct_sum(jordan_matrix(JordanSpec(ONE, 2)),
                       jordan_matrix(JordanSpec(Scalar.exact(-1), 1)))
        dec = algebraic_decompose(T, eigen_hints=hints)
        assert dec == algebraic_decompose(T, eigen_hints=[ONE, Scalar.exact(-1)])
        assert all(isinstance(b.eigenvalue, Scalar) and b.eigenvalue.mode == EXACT
                   for b in dec.blocks)
        assert dec.certified and dec.predicted_strict_order == 3

    def test_equal_int_and_scalar_hints_are_duplicates(self):
        with pytest.raises(EigenHintError, match="duplicate"):
            generalized_eigenspaces(EXAMPLE, eigen_hints=[I_, -I_, Fraction(1), ONE])

    def test_float_hint_on_exact_operator_raises(self):
        with pytest.raises(ModeMismatchError):
            generalized_eigenspaces(EXAMPLE, eigen_hints=[Scalar.flt(0.0, 1.0), -I_])

    def test_float_mode_clusters_spectrum(self):
        T = operator_to_float(direct_sum(
            jordan_matrix(JordanSpec(I_, 2)), jordan_matrix(JordanSpec(ONE, 1))
        ))
        spaces = generalized_eigenspaces(T)
        assert sorted(sp.dimension for sp in spaces) == [1, 2]


def ref_float_decompose(T, tol=1e-8):
    """algebraic_decompose in float mode without shared work: each clustering
    attempt links by the pair loop and walks every kernel chain from
    scratch, every kernel of every step is boxed, the ambiguity warning
    reads the least distance of each cluster pair, and the cross-Gram is
    vec_inner per pair.  A chain walks R_k M from R_0 M = M: the rows of vh
    above the threshold, the rank, are the next R, the rows below it span
    ker M^(k+1), and the walk stops when the rank stops falling."""
    arr, n = to_numpy(T), T.dim
    eigs = np.linalg.eigvals(arr)
    radius = CLUSTER_TOL * max(1.0, float(np.abs(eigs).max()))
    for attempt in range(7):
        if attempt:
            radius *= 10.0
        clusters = ref_single_linkage(eigs, radius)
        spaces = []
        for members in clusters:
            with np.errstate(over="ignore", invalid="ignore"):
                z = complex(np.mean(members))
                M = arr - z * np.eye(n)
                rows, kernels = M, [[]]
                while len(rows):
                    if not np.isfinite(rows).all():
                        raise PreconditionError("float overflow")
                    _, sv, vh = np.linalg.svd(rows)
                    thr = max(tol, 1e-10) * max(1.0, float(np.abs(rows).max()))
                    rank = sum(1 for x in sv if x > thr)
                    if rank == len(rows):
                        break
                    kernels.append([tuple(Scalar.flt(x.real, x.imag) for x in vh[i].conj())
                                    for i in range(rank, n)])
                    rows = vh[:rank] @ M
            depth = max(len(kernels) - 1, 1)
            if len(kernels[-1]) != len(members):
                break
            spaces.append((Scalar.flt(z.real, z.imag), tuple(kernels[-1]), depth))
        else:
            warnings = [f"eigenvalue clustering escalated to radius {radius:.2e}"] if attempt else []
            with np.errstate(all="ignore"):
                gaps = [min(abs(a - b) for a in ci for b in cj)
                        for i, ci in enumerate(clusters) for cj in clusters[i + 1:]]
            if any(radius < g <= 10 * radius for g in gaps):
                warnings.append("ambiguous eigenvalue clusters within 10x the cluster radius")
            failures = [f"eigenvalue {z.re:g}{z.im:+g}i is not unimodular"
                        for z, _, _ in spaces if abs(z.modulus() - 1.0) > tol][:1]
            cross = [vec_inner(u, v) for i, (_, bi, _) in enumerate(spaces)
                     for _, bj, _ in spaces[i + 1:] for u in bi for v in bj]
            if not all(ip.modulus() <= tol for ip in cross):
                failures.append("generalized eigenspaces are not pairwise orthogonal")
            return (spaces, max((ip.modulus() for ip in cross), default=0.0), failures,
                    warnings)
    raise PreconditionError("never consistent")


def float_bits(x):
    """x with every float (Scalar parts included) as its hex string."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, Scalar):
        return (x.re.hex(), x.im.hex())
    if isinstance(x, (list, tuple)):
        return tuple(float_bits(y) for y in x)
    return x


def assert_matches_reference(dec, ref):
    """dec is ref_float_decompose's decomposition: the blocks bit for bit
    (numpy's eigenvalues and SVDs), the same failures and warnings, and the
    largest cross inner product within the rounding bound of the kernels,
    which add in any order.  A complex sum of n products is within sqrt(2)
    gamma_(n+2) sum_k |u_k| |v_k| of the exact one, gamma_n = n u / (1 - n
    u) and u = 2^-53 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., 3.1 and 3.6), plus 2^-1070 a term for underflow,
    and both computations are."""
    spaces, gram, failures, warnings = ref
    assert float_bits([(b.eigenvalue, b.basis, b.chain_depth) for b in dec.blocks]) == \
        float_bits(spaces)
    assert (list(dec.failures), list(dec.warnings)) == (failures, warnings)
    u = 2.0 ** -53
    slacks = [2 * (math.sqrt(2) * (n + 2) * u / (1 - (n + 2) * u)
                   * sum(a.modulus() * b.modulus() for a, b in zip(x, y)) + n * 2.0 ** -1070)
              for i, (_, bi, _) in enumerate(spaces) for _, bj, _ in spaces[i + 1:]
              for x in bi for y in bj for n in [len(x)]]
    assert abs(dec.pairwise_gram - gram) <= max(slacks, default=0.0)


def escalating_case(sizes, seed):
    """A seeded unitary conjugation of the Jordan blocks (z, k) of sizes."""
    T = operator_to_float(direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in sizes)))
    return conjugate_by_unitary(T, random_unitary(T.dim, np.random.default_rng(seed)))


def float_diag(*values):
    """The float diagonal operator of values."""
    return DenseOperator([[Scalar.flt(x if i == j else 0.0) for j in range(len(values))]
                          for i, x in enumerate(values)])


ESCALATING = [
    pytest.param([(ONE, 8)], 1, id="J8(1)"),
    pytest.param([(ONE, 8), (Scalar.exact(-1), 1)], 2, id="J8(1)+J1(-1)"),
    pytest.param([(I_, 6), (Scalar.exact(-1), 3)], 3, id="J6(i)+J3(-1)"),
    pytest.param([(ONE, 7), (I_, 2), (-I_, 1)], 4, id="J7(1)+J2(i)+J1(-i)"),
    pytest.param([(ONE, 8), (Scalar.exact(Fraction(21, 20)), 1)], 5, id="J8(1)+J1(1.05)"),
]


def ref_single_linkage(eigs, radius):
    """Single linkage by the pair loop on numpy complex scalars: pairs i < j
    joined where their distance is at most radius, clusters listed in the
    (real, imag) order of their first member.  The distances are those of
    _float_eigenspaces' array expression: numpy's scalar abs may round a
    distance one ulp away from its array abs, which a tie with the radius
    shows."""
    parent = list(range(len(eigs)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    with np.errstate(all="ignore"):
        dist = np.abs(eigs[:, None] - eigs[None, :])
        for i in range(len(eigs)):
            for j in range(i + 1, len(eigs)):
                if dist[i, j] <= radius:
                    parent[find(i)] = find(j)
    clusters = {}
    for i in sorted(range(len(eigs)), key=lambda i: (eigs[i].real, eigs[i].imag)):
        clusters.setdefault(find(i), []).append(eigs[i])
    return list(clusters.values())


# a few values, so that distances tie with the radius, the top of float
# range, where a distance is inf, and nan
cluster_parts = st.one_of(st.sampled_from([0.0, -0.0, 1e-6, 1.0, -1.0, 1.7e308, -1.7e308,
                                           math.nan]), st.floats(-2, 2))


class TestFloatClustering:
    @given(st.lists(st.builds(complex, cluster_parts, cluster_parts), min_size=1, max_size=12),
           st.sampled_from([0.0, 1e-6, 1e-5, 1.0, 2.0]))
    @settings(max_examples=200, deadline=None)
    def test_single_linkage_matches_the_pair_loop(self, values, radius):
        eigs = np.array(values, dtype=complex)
        with np.errstate(all="ignore"):
            close = np.abs(eigs[:, None] - eigs[None, :]) <= radius
        (got, roots), ref = _single_linkage(eigs, close), ref_single_linkage(eigs, radius)
        assert [[z.tobytes() for z in c] for c in got] == [[z.tobytes() for z in c] for c in ref]
        # roots[i] names eigs[i]'s cluster: grouped by it, eigs are the clusters
        groups = {}
        for z, r in zip(eigs, roots.tolist()):
            groups.setdefault(r, []).append(z.tobytes())
        assert sorted(map(sorted, groups.values())) == \
            sorted(sorted(z.tobytes() for z in c) for c in got)

    @pytest.mark.parametrize("gap_at", [None, 0, 5, 10])
    def test_single_linkage_follows_long_chains(self, gap_at):
        # 12 eigenvalues on a line, neighbours 0.9 radius apart, in shuffled
        # order: only neighbours link, so one cluster takes paths of 11 links,
        # which only the fourth squaring reaches; a gap of 1.1 radius after
        # eigenvalue gap_at of the line cuts it in two
        radius = CLUSTER_TOL
        steps = [0.9 * radius] * 11
        if gap_at is not None:
            steps[gap_at] = 1.1 * radius
        order = np.random.default_rng(0).permutation(12)
        eigs = (1.0 + np.cumsum([0.0] + steps) * (0.6 + 0.8j))[order]
        got, roots = _single_linkage(eigs, np.abs(eigs[:, None] - eigs[None, :]) <= radius)
        assert [len(c) for c in got] == ([12] if gap_at is None else [gap_at + 1, 11 - gap_at])
        assert [[z.tobytes() for z in c] for c in got] == \
            [[z.tobytes() for z in c] for c in ref_single_linkage(eigs, radius)]
        # roots[i] is the least index in eigs[i]'s cluster
        cluster = [next(k for k, c in enumerate(got) if z.tobytes() in {w.tobytes() for w in c})
                   for z in eigs]
        assert roots.tolist() == [cluster.index(cluster[i]) for i in range(12)]

    def test_conjugated_jordan_block_escalates(self):
        dec = algebraic_decompose(escalating_case([(ONE, 8)], 1))
        assert [(b.dimension, b.chain_depth) for b in dec.blocks] == [(8, 8)]
        assert dec.certified and dec.predicted_strict_order == 15
        assert any(w.startswith("eigenvalue clustering escalated to radius") for w in dec.warnings)

    @pytest.mark.parametrize("sizes,seed", ESCALATING)
    def test_same_bits_as_the_reference(self, sizes, seed):
        T = escalating_case(sizes, seed)
        try:
            ref = ref_float_decompose(T)
        except PreconditionError:
            with pytest.raises(PreconditionError, match="never became consistent"):
                algebraic_decompose(T)
            return
        assert_matches_reference(algebraic_decompose(T), ref)

    @pytest.mark.parametrize("sizes,seed", ESCALATING[:4])
    def test_blocks_lie_in_the_conjugated_jordan_blocks(self, sizes, seed):
        # whatever the algorithm: T = U J U*, so the block at z is U times
        # the coordinate span of J's block at z
        T = escalating_case(sizes, seed)
        U = random_unitary(T.dim, np.random.default_rng(seed))
        starts = np.cumsum([0] + [k for _, k in sizes])
        dec = algebraic_decompose(T)
        assert len(dec.blocks) == len(sizes)
        for b in dec.blocks:
            j = min(range(len(sizes)), key=lambda j: abs(
                complex(b.eigenvalue.re, b.eigenvalue.im)
                - complex(float(sizes[j][0].re), float(sizes[j][0].im))))
            assert (b.dimension, b.chain_depth) == (sizes[j][1], sizes[j][1])
            coords = U.conj().T @ np.array([[complex(x.re, x.im) for x in v] for v in b.basis]).T
            outside = np.delete(coords, range(starts[j], starts[j + 1]), axis=0)
            assert np.linalg.norm(outside, axis=0).max() <= 1e-12

    def test_benchmark_decompose_requests_match_the_reference(self):
        sys.path.insert(0, os.path.join(ROOT, "perfbench"))
        try:
            import workloads
        finally:
            sys.path.remove(os.path.join(ROOT, "perfbench"))
        reqs = [r for r in workloads.cycle_requests("float-cli", 1, 0) if r.argv[0] == "decompose"]
        assert len(reqs) == 9
        for req in reqs:
            T = parse_operator_spec(next(iter(req.files.values()))).operator
            assert_matches_reference(algebraic_decompose(T), ref_float_decompose(T))

    def test_each_cluster_mean_walks_its_chain_once(self, monkeypatch):
        # the -1 cluster has the same mean at every radius, so each attempt
        # walked its chain again; now no SVD input repeats within a call
        T = escalating_case([(ONE, 8), (Scalar.exact(-1), 1)], 2)
        svd, inputs = np.linalg.svd, []

        def counted(a, *args, **kwargs):
            inputs.append(a.tobytes())
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted)
        dec = algebraic_decompose(T)
        assert dec.warnings and dec.warnings[0].startswith("eigenvalue clustering escalated")
        assert len(inputs) == len(set(inputs))

    @pytest.mark.parametrize("case,svds,linkages", [
        pytest.param(lambda: escalating_case([(ONE, 8)], 1), 10, 2, id="J8(1)"),
        pytest.param(lambda: escalating_case([(ONE, 8), (Scalar.exact(-1), 1)], 2), 13, 2,
                     id="J8(1)+J1(-1)"),
        pytest.param(lambda: float_diag(1.0, 1.0 + 5e-7), 5, 2, id="diag(1,1+5e-7)"),
        pytest.param(lambda: float_diag(1.0, 1.0 + 5e-8), 5, 2, id="diag(1,1+5e-8)")])
    def test_failing_attempts_do_no_work_whose_outcome_is_known(self, monkeypatch, case,
                                                                 svds, linkages):
        # a walk stops once its kernel outgrows the cluster, and a radius that
        # links no new pair is not clustered again; walking every chain to its
        # end and clustering at every radius takes 12 and 16 SVDs and 5
        # linkages, for the same bits.  The diagonal cases fail at the first
        # radius, skip the six escalations, which link no new pair, and the
        # splits that unlink none, and split once
        T = case()
        calls = Counter()

        def counted(name, f):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return f(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(spectral, "_single_linkage",
                            counted("linkage", spectral._single_linkage))
        dec = algebraic_decompose(T)
        assert (calls["svd"], calls["linkage"]) == (svds, linkages)
        monkeypatch.undo()
        # the reference only escalates; the split bits are pinned below
        if "split" not in dec.warnings[0]:
            assert_matches_reference(dec, ref_float_decompose(T))

    def test_a_capped_walk_is_not_read_for_a_larger_cluster(self):
        # the walk of J_3(1) - I for a cluster of one stops at a kernel of two
        # rows; a cluster of three with the same mean, 1.0, walks to the end
        arr = to_numpy(operator_to_float(jordan_matrix(JordanSpec(ONE, 3))))
        chains = {}
        assert spectral._spaces_from_clusters(arr, [[1.0]], 1e-8, chains) is None
        (space,) = spectral._spaces_from_clusters(arr, [[0.5, 1.0, 1.5]], 1e-8, chains)
        assert (space.dimension, space.chain_depth) == (3, 3)

    @pytest.mark.parametrize("case", [
        pytest.param(lambda: DenseOperator([[Scalar.flt(0.6, 0.8)]]), id="1x1"),
        pytest.param(lambda: DenseOperator.zeros(3, FLOAT), id="zero-3x3"),
        # U (zI) U*: rounding scatters the one eigenvalue
        pytest.param(lambda: escalating_case([(Z35, 1)] * 4, 6), id="conjugated-zI"),
        pytest.param(lambda: parse_operator_spec({"mode": "float", "jordan_blocks": [
            {"z": 1, "size": 3}, {"z": 1, "size": 2}]}).operator, id="J3(1)+J2(1)"),
        pytest.param(lambda: escalating_case([(Scalar.exact(0), 4)], 7), id="conjugated-J4(0)"),
    ])
    def test_small_cases_have_the_reference_bits(self, case):
        T = case()
        assert_matches_reference(algebraic_decompose(T), ref_float_decompose(T))

    @pytest.mark.parametrize("big", ["1.05", "1.01"])
    def test_inseparable_clusters_are_a_precondition(self, big):
        # T - big I has a singular value of about (big - 1)^k <= 4e-11 from
        # the block at 1, below tol * max|entry|, so the kernel at big reads
        # one dimension too many: no radius separates the two clusters
        T = escalating_case([(ONE, 8 if big == "1.05" else 6),
                             (Scalar.exact(Fraction(big)), 1)], 0)
        with pytest.raises(PreconditionError,
                           match=r"never became consistent up to radius 1\.\d\de\+00"):
            algebraic_decompose(T)

    @pytest.mark.parametrize("gap,radius", [(5e-7, "1.00e-07"), (5e-8, "1.00e-08")])
    def test_eigenvalues_closer_than_the_first_radius_split(self, gap, radius):
        # no radius from 1e-6 up separates 1 from 1 + gap, whose mean has no
        # kernel; the radii below it do, and the block at 1 + gap is refused
        # as not unimodular, named by the digits that tell it from 1
        T = DenseOperator([[Scalar.flt(1.0), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0 + gap)]])
        dec = algebraic_decompose(T)
        assert [(b.eigenvalue.re, b.dimension) for b in dec.blocks] == [(1.0, 1), (1.0 + gap, 1)]
        assert dec.warnings == (f"eigenvalue clustering split to radius {radius}",
                                "ambiguous eigenvalue clusters within 10x the cluster radius")
        shown = {5e-7: "1.0000005", 5e-8: "1.00000005"}[gap]
        assert dec.failures == (f"eigenvalue {shown}+0.0i is not unimodular",)

    @pytest.mark.parametrize("gap,ambiguous", [(5e-6, True), (5e-5, False)])
    def test_ambiguity_warning_reads_ten_radii(self, gap, ambiguous):
        # diag(1, 1 + gap) splits at the first radius, 1e-6 (times max|z|);
        # a gap of 5e-6 lies within ten radii of it, 5e-5 does not
        T = DenseOperator([[Scalar.flt(1.0), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0 + gap)]])
        dec = algebraic_decompose(T)
        assert [b.dimension for b in dec.blocks] == [1, 1]
        assert dec.warnings == (
            ("ambiguous eigenvalue clusters within 10x the cluster radius",) if ambiguous else ())
        assert_matches_reference(dec, ref_float_decompose(T))


class TestAlgebraicDecompose:
    def test_orthogonal_block_sum_certified(self):
        T = direct_sum(jordan_matrix(JordanSpec(ONE, 2)),
                       jordan_matrix(JordanSpec(Scalar.exact(-1), 1)))
        dec = algebraic_decompose(T, eigen_hints=(ONE, Scalar.exact(-1)))
        assert dec.certified
        assert dec.predicted_strict_order == 3
        assert strict_order(T).m == 3

    def test_non_orthogonal_chains_refused(self):
        dec = algebraic_decompose(EXAMPLE, eigen_hints=EXAMPLE_HINTS)
        assert not dec.certified
        assert any("orthogonal" in f for f in dec.failures)

    @pytest.mark.parametrize("coupled", [False, True])
    def test_exact_orthogonality_makes_no_float(self, monkeypatch, coupled):
        # exact cross forms are sized by their integer parts: no hypot, no
        # float largest, and pairwise_gram is 0.0 whatever the verdict
        def no_float(*args):
            raise AssertionError("a float size in exact mode")

        monkeypatch.setattr(spectral, "_largest", no_float)
        monkeypatch.setattr(math, "hypot", no_float)
        T = EXAMPLE if coupled else direct_sum(jordan_matrix(JordanSpec(ONE, 2)),
                                               jordan_matrix(JordanSpec(I_, 1)))
        dec = algebraic_decompose(T, eigen_hints=EXAMPLE_HINTS if coupled else (ONE, I_))
        assert dec.certified is not coupled and dec.pairwise_gram == 0.0

    def test_off_circle_refused(self):
        T = DenseOperator.from_ints([[2]])
        dec = algebraic_decompose(T, eigen_hints=(Scalar.exact(2),))
        assert not dec.certified
        assert any("unimodular" in f for f in dec.failures)

    @pytest.mark.parametrize("z,shown", [
        (Scalar.exact(Fraction(3, 2), Fraction(1, 2)), "1.5+0.5i"),
        (Scalar.exact(Fraction(10**7 + 1, 10**7)), "10000001/10000000"),
        (Scalar.exact(0, Fraction(10**20 + 1, 10**20)),
         "0+100000000000000000001/100000000000000000000i"),
        (Scalar.flt(1.5, 0.5), "1.5+0.5i"), (Scalar.flt(1 + 1e-7), "1.0000001+0.0i")])
    def test_refused_eigenvalue_reads_off_the_circle(self, z, shown):
        # six digits name the eigenvalue unless they read as unimodular: then
        # a float one gets its round-trip digits and an exact one its value
        one, zero = Scalar.one(z.mode), Scalar.zero(z.mode)
        T = DenseOperator([[one, zero], [zero, z]])
        dec = algebraic_decompose(T, eigen_hints=(one, z) if z.mode == EXACT else None)
        assert dec.failures == (f"eigenvalue {shown} is not unimodular",)

    @pytest.mark.parametrize("order", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    def test_coupled_pair_is_seen_in_any_position(self, order):
        # 1 + EXAMPLE: the blocks at i and -i are not orthogonal, and the block
        # at 1 is orthogonal to both
        T = direct_sum(DenseOperator.from_ints([[1]]), EXAMPLE)
        hints = [(ONE, I_, -I_)[k] for k in order]
        dec = algebraic_decompose(T, eigen_hints=hints)
        assert dec.failures == ("generalized eigenspaces are not pairwise orthogonal",)
        cross = [vec_inner(u, v) for i, a in enumerate(dec.blocks) for b in dec.blocks[i + 1:]
                 for u in a.basis for v in b.basis]
        assert sum(not ip.is_zero() for ip in cross) == 1

    def test_certified_orders_are_odd(self):
        T = direct_sum(jordan_matrix(JordanSpec(I_, 3)),
                       jordan_matrix(JordanSpec(ONE, 2)))
        dec = algebraic_decompose(T, eigen_hints=(I_, ONE))
        assert dec.certified and dec.predicted_strict_order == 5
        assert dec.predicted_strict_order % 2 == 1


class TestUnimodularSpectrum:
    """The on-circle test of algebraic_decompose, read through its verdict."""

    def test_unitary(self):
        T = DenseOperator([[I_, Scalar.exact(0)], [Scalar.exact(0), ONE]])
        dec = algebraic_decompose(T, eigen_hints=(I_, ONE))
        assert dec.certified and dec.failures == ()
        assert all(b.eigenvalue.abs2() == ONE for b in dec.blocks)

    def test_contraction(self):
        half = Scalar.exact(Fraction(1, 2))
        dec = algebraic_decompose(DenseOperator([[half]]), eigen_hints=(half,))
        assert not dec.certified
        assert dec.failures == ("eigenvalue 0.5+0i is not unimodular",)

    def test_triangular_spectrum_float(self):
        T = operator_to_float(jordan_matrix(JordanSpec(I_, 3)))
        dec = algebraic_decompose(T)
        assert dec.certified and dec.predicted_strict_order == 5
        # the eigenvalues numpy returns for the one Jordan block form one
        # space that spans the whole of C^3
        assert [(b.dimension, b.chain_depth) for b in dec.blocks] == [(T.dim, 3)]


class TestPerturbation:
    def test_identity_plus_nilpotent(self):
        A = DenseOperator.identity(2, EXACT)
        N = DenseOperator.from_ints([[0, 1], [0, 0]])
        res = perturbation_analysis(A, N)
        assert res.m_a == 1 and res.nu == 2 and res.m_bound == 3
        assert res.bound_verified and res.strict
        assert strict_order(A + N).m == 3

    def test_zero_perturbation_degenerate(self):
        A = DenseOperator([[I_, Scalar.exact(0)], [Scalar.exact(0), -I_]])
        res = perturbation_analysis(A, DenseOperator.zeros(2, EXACT))
        assert res.nu == 1 and res.m_bound == res.m_a == 1
        assert res.bound_verified and res.strict

    def test_block_internal_perturbation_is_not_strict(self):
        # adding c*S to a Jordan block keeps the order at 2k-1 < bound
        A = jordan_matrix(JordanSpec(ONE, 2))
        N = DenseOperator.from_ints([[0, 1], [0, 0]])
        res = perturbation_analysis(A, N)
        assert res.m_a == 3 and res.m_bound == 5
        assert res.bound_verified and not res.strict
        assert strict_order(A + N).m == 3

    def test_noncommuting_rejected(self):
        A = jordan_matrix(JordanSpec(ONE, 2))
        N = DenseOperator.from_ints([[0, 0], [1, 0]])
        with pytest.raises(PreconditionError):
            perturbation_analysis(A, N)

    def test_non_nilpotent_rejected(self):
        A = DenseOperator.identity(2, EXACT)
        with pytest.raises(PreconditionError):
            perturbation_analysis(A, DenseOperator.identity(2, EXACT))

    @pytest.mark.parametrize("seed", range(6))
    def test_cross_coupled_pairs_couple_the_two_blocks(self, seed):
        # N = [[0, S^t], [0, 0]] on J_k(z) (+) J_k(z): ones at (i, k + i + t)
        pairs = [inst for inst in perturbation_corpus(seed) if inst.kind == "cross-coupled"]
        assert len(pairs) == 10
        for inst in pairs:
            A, N = inst.base, inst.nilpotent
            k = A.dim // 2
            support = {(i, j): s for i, row in enumerate(N.rows) for j, s in enumerate(row)
                       if not s.is_zero()}
            assert any(support == {(i, k + i + t): ONE for i in range(k - t)} for t in (0, 1))
            assert A @ N == N @ A
            assert nilpotency_index(N) is not None

    def test_strictness_reuses_the_nilpotency_walk(self, monkeypatch):
        # N^(nu-1) comes from the walk that finds nu, not from N.power again
        products, matmul = [], DenseOperator.__matmul__
        monkeypatch.setattr(DenseOperator, "__matmul__",
                            lambda a, b: products.append(None) or matmul(a, b))
        res = perturbation_analysis(DenseOperator.identity(5, EXACT),
                                    jordan_matrix(JordanSpec(Scalar.exact(0), 5)))
        assert (res.nu, res.m_bound, res.strict) == (5, 9, True)
        assert len(products) == 27


class TestOrthoTest:
    def test_worked_example_real_part_only(self):
        h1 = (ONE, Scalar.exact(0))
        h2 = (I_, ONE)
        res = ortho_test_generalized(EXAMPLE, h1, h2, I_, -I_)
        assert res.case == "opposite"
        assert res.orbit_polynomial
        assert res.re_inner_vanishes and not res.mixed_inner_vanishes
        assert res.re_only and res.agrees_with_theory

    def test_orthogonal_diagonal_generic_case(self):
        T = DenseOperator([[ONE, Scalar.exact(0)], [Scalar.exact(0), I_]])
        res = ortho_test_generalized(
            T, vec_from_ints([1, 0]), vec_from_ints([0, 1]), ONE, I_
        )
        assert res.case == "generic"
        assert res.orbit_polynomial and res.mixed_inner_vanishes
        assert res.agrees_with_theory

    def test_membership_precondition(self):
        T = DenseOperator.from_ints([[1, 0], [0, -1]])
        with pytest.raises(PreconditionError):
            ortho_test_generalized(
                T, vec_from_ints([1, 0]), vec_from_ints([1, 1]),
                ONE, Scalar.exact(-1),
            )

    def test_chance_vanishing_last_difference_is_not_polynomial(self):
        # a sheared, non-orthogonal pair: on the 20-sample window the orbit
        # of h1 + h2 passes as polynomial(degree=18), above the cap 2*dim - 2
        T = DenseOperator([
            [Scalar.exact(0, -1), Scalar.exact(0), Scalar.exact(0), Scalar.exact(1, -1)],
            [Scalar.exact(0), Scalar.exact(-1), Scalar.exact(1), Scalar.exact(0)],
            [Scalar.exact(0), Scalar.exact(0), Scalar.exact(-1), Scalar.exact(1)],
            [Scalar.exact(0), Scalar.exact(0), Scalar.exact(0), Scalar.exact(-1)],
        ])
        h1 = vec_from_ints([2, 0, 0, 0])
        h2 = (Scalar.exact(-1, 1), Scalar.exact(-2, -1), Scalar.exact(2, -1),
              Scalar.exact(1, -1))
        res = ortho_test_generalized(T, h1, h2, Scalar.exact(0, -1), Scalar.exact(-1))
        assert res.case == "generic"
        assert not res.orbit_polynomial and not res.mixed_inner_vanishes
        assert res.agrees_with_theory

    def test_nan_eigenvalue_is_not_unimodular(self):
        # abs(nan - 1) > tol is false: a nan z passed the check
        h1 = (Scalar.flt(1.0), Scalar.flt(0.0))
        h2 = (Scalar.flt(0.0, 1.0), Scalar.flt(1.0))
        with pytest.raises(PreconditionError, match="not unimodular"):
            ortho_test_generalized(operator_to_float(EXAMPLE), h1, h2,
                                   Scalar.flt(math.nan), Scalar.flt(0.0, -1.0))


def sheared_ortho_pair(seed):
    """A seeded exact ortho case (T, h1, h2, z1, z2): T = S J S^-1 for Jordan
    blocks J at distinct `UNIMODULAR_EXACT` values and S a product of two
    shears I + c E_ab (sometimes the identity), h1 and h2 moved by S from
    Gaussian-integer vectors on the first two blocks."""
    rng = random.Random(seed)
    zs = rng.sample(UNIMODULAR_EXACT, 3)
    sizes = [rng.randint(1, 3), rng.randint(1, 3), rng.randint(0, 1)]
    J = direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in zip(zs, sizes) if k))
    n = J.dim
    shears = []
    for _ in range(rng.randint(0, 2)):
        a, b = rng.sample(range(n), 2)
        shears.append((a, b, Scalar.exact(rng.randint(-2, 2), rng.randint(-1, 1))))

    def shear(a, b, c):
        return DenseOperator([[ONE if i == j else (c if (i, j) == (a, b) else Scalar.exact(0))
                               for j in range(n)] for i in range(n)])

    S = S_inv = DenseOperator.identity(n, EXACT)
    for a, b, c in shears:
        S, S_inv = S @ shear(a, b, c), shear(a, b, -c) @ S_inv
    hs = []
    for lo, k in ((0, sizes[0]), (sizes[0], sizes[1])):
        ints = [rng.randint(-2, 2) if lo <= j < lo + k else 0 for j in range(n)]
        ints[lo + k - 1] = rng.choice([-1, 1, 2])
        hs.append(S.apply(vec_from_ints(ints)))
    return (S @ J @ S_inv, *hs, *zs[:2])


class TestOrthoWindowCertifies:
    """The ortho window of 4 dim + 4 samples decides polynomiality for
    good: the orbit verdicts equal those on a window three times longer."""

    def test_default_window_equals_a_long_window(self):
        seen = set()
        for seed in range(16):
            T, h1, h2, z1, z2 = sheared_ortho_pair(seed)
            short = ortho_test_generalized(T, h1, h2, z1, z2)
            long = ortho_test_generalized(T, h1, h2, z1, z2, window_len=3 * (4 * T.dim + 4))
            assert short.orbit_polynomial == long.orbit_polynomial
            assert short.eps_orbits_polynomial == long.eps_orbits_polynomial
            seen.add(short.orbit_polynomial)
        assert seen == {True, False}


def rotation(n, a, b):
    """The exact unitary that turns coordinates a and b by (3/5, 4/5)."""
    c, s = Scalar.exact(Fraction(3, 5)), Scalar.exact(Fraction(4, 5))
    entries = {(a, a): c, (a, b): -s, (b, a): s, (b, b): c}
    return DenseOperator([[entries.get((i, j), ONE if i == j else Scalar.exact(0))
                           for j in range(n)] for i in range(n)])


def certified_ortho_case(seed):
    """A seeded exact ortho case (T, h1, h2, z1, z2) of strict order m: an
    orthogonal sum of Jordan blocks of sizes 1-4 at two or three distinct
    UNIMODULAR_EXACT values, h1 and h2 Gaussian-integer vectors of the first
    two blocks' generalized eigenspaces, all turned by an exact rotation
    (so den > 1).  Even seeds pair z with -z."""
    rng = random.Random(seed)
    if seed % 2 == 0:
        z = rng.choice([ONE, I_])
        zs = [z, -z] + rng.sample([w for w in UNIMODULAR_EXACT if w not in (z, -z)], 1)
    else:
        zs = rng.sample(UNIMODULAR_EXACT, rng.randint(2, 3))
    sizes = [rng.randint(1, 4) for _ in zs]
    J = direct_sum(*(jordan_matrix(JordanSpec(z, k)) for z, k in zip(zs, sizes)))
    R = rotation(J.dim, *rng.sample(range(J.dim), 2))
    hs = []
    for lo, k in ((0, sizes[0]), (sizes[0], sizes[1])):
        ints = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) if lo <= j < lo + k else 0
                for j in range(J.dim)]
        ints[lo + k - 1] = 1
        hs.append(R.apply(tuple(Scalar.exact(int(x.real), int(x.imag)) for x in ints)))
    return (R @ J @ R.adjoint(), *hs, *zs[:2])


class TestOrthoFromDefects:
    """Below a strict order m the ortho verdict is read from the forms
    <beta_k h1, h2>, k < m, with no orbit walk: on exact certified cases it
    is the window walk's verdict."""

    def test_defect_forms_give_the_window_verdict(self, monkeypatch):
        cases = [certified_ortho_case(seed) for seed in range(12)]
        with monkeypatch.context() as m:
            m.setattr(spectral, "_defect_forms", lambda *args: None)
            windowed = [ortho_test_generalized(*case) for case in cases]

        def no_walk(*args):
            raise AssertionError("an orbit was walked")

        monkeypatch.setattr(spectral, "orbit_sequence", no_walk)
        monkeypatch.setattr(spectral, "_orbit_windows", no_walk)
        got = [ortho_test_generalized(*case) for case in cases]
        assert got == windowed
        assert {res.case for res in got} == {"opposite", "generic"}
        assert all(res.mixed_inner_vanishes and res.agrees_with_theory for res in got)

    def test_short_window_walks_the_orbits(self, monkeypatch):
        # J_3(1) + J_1(-1) has strict order 5: a window of 5 < m + 1 samples
        # is walked, and too short to show the degree 4 orbit of h1 + h2 as
        # polynomial; one of 6 is not walked.  The walks are the orbits of
        # h1 + h2 and i h1 + h2: e = 1 is the orbit of h1 + h2
        T = direct_sum(jordan_matrix(JordanSpec(ONE, 3)), jordan_matrix(JordanSpec(-ONE, 1)))
        h1, h2 = vec_from_ints([1, 1, 1, 0]), vec_from_ints([0, 0, 0, 1])
        walked, real = [], spectral.orbit_sequence
        monkeypatch.setattr(spectral, "orbit_sequence",
                            lambda *args: walked.append(args[2]) or real(*args))
        assert not ortho_test_generalized(T, h1, h2, ONE, -ONE, window_len=5).orbit_polynomial
        assert walked == [5, 5]
        walked.clear()
        assert ortho_test_generalized(T, h1, h2, ONE, -ONE, window_len=6).orbit_polynomial
        assert walked == []


def membership_cases():
    """(T, h, z): every WALK_CASES hint against the generalized eigenvectors
    of T, the unit vectors, a sum across two eigenspaces and zero; and the
    exact ortho corpora's h1, h2 and h1 + h2 against z1 and z2."""
    for T, hints in WALK_CASES.values():
        spaces = generalized_eigenspaces(T, eigen_hints=hints)
        vectors = [v for sp in spaces for v in sp.basis]
        vectors += [basis_vector(T.dim, j, EXACT) for j in range(T.dim)]
        vectors += [vec_add(spaces[0].basis[0], spaces[-1].basis[-1]),
                    (Scalar.exact(0),) * T.dim]
        yield from ((T, h, z) for z in hints for h in vectors)
    for case in [*map(sheared_ortho_pair, range(16)), *map(certified_ortho_case, range(12))]:
        T, h1, h2, z1, z2 = case
        yield from ((T, h, z) for z in (z1, z2) for h in (h1, h2, vec_add(h1, h2)))


def test_exact_membership_is_the_orbit_walk(monkeypatch):
    """The exact membership check takes one `apply` step of T - zI and walks
    the others as integers; it agrees with the `orbit` walk of T - zI, which
    boxes every step."""
    cases = list(membership_cases())
    ref = [any(map(vec_is_zero, islice(orbit(_shifted(T, z), h), 1, T.dim + 1)))
           for T, h, z in cases]
    assert set(ref) == {True, False}
    applied, apply = [], DenseOperator.apply
    monkeypatch.setattr(DenseOperator, "apply",
                        lambda op, vec: applied.append(vec) or apply(op, vec))
    got = []
    for T, h, z in cases:
        try:
            spectral._membership_check(T, h, z, 1e-9)
            got.append(True)
        except PreconditionError:
            got.append(False)
    assert got == ref
    assert applied == [h for _, h, _ in cases]


@pytest.mark.parametrize("test_fn", [ortho_test_generalized, jordan_pair_equivalences])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
class TestPairPreconditions:
    """Both orthogonality tests share one precondition check."""

    def run(self, test_fn, mode, T, z1, z2, h2=(0, 1)):
        if mode == FLOAT:
            T, z1, z2 = operator_to_float(T), Scalar.flt(z1), Scalar.flt(z2)
        else:
            z1, z2 = Scalar.exact(z1), Scalar.exact(z2)
        test_fn(T, vec_from_ints([1, 0], mode), vec_from_ints(list(h2), mode), z1, z2)

    def test_non_unimodular_eigenvalue(self, test_fn, mode):
        T = DenseOperator.from_ints([[2, 0], [0, -1]])
        with pytest.raises(PreconditionError, match="not unimodular"):
            self.run(test_fn, mode, T, 2, -1)

    def test_equal_eigenvalues(self, test_fn, mode):
        T = DenseOperator.from_ints([[1, 0], [0, 1]])
        with pytest.raises(PreconditionError, match="distinct"):
            self.run(test_fn, mode, T, 1, 1)

    def test_membership(self, test_fn, mode):
        T = DenseOperator.from_ints([[1, 0], [0, -1]])
        with pytest.raises(PreconditionError, match="generalized eigenspace"):
            self.run(test_fn, mode, T, 1, -1, h2=(1, 1))


# (T, h1, h2, z1, z2, every condition holds, restricted order)
GENERIC_PAIR = direct_sum(jordan_matrix(JordanSpec(ONE, 2)), jordan_matrix(JordanSpec(I_, 2)))
IDENTITY_4 = DenseOperator.identity(4, EXACT)
SHEAR_02 = DenseOperator.from_ints([[int((r, c) == (0, 2)) for c in range(4)] for r in range(4)])
JORDAN_PAIR_CASES = {
    "orthogonal-pair": (
        direct_sum(jordan_matrix(JordanSpec(ONE, 2)),
                   jordan_matrix(JordanSpec(Scalar.exact(-1), 2))),
        vec_from_ints([0, 1, 0, 0]), vec_from_ints([0, 0, 0, 1]),
        ONE, Scalar.exact(-1), True, 3),
    "worked-example": (EXAMPLE, (ONE, Scalar.exact(0)), (I_, ONE), I_, -I_, False, None),
    # diag(1, -1) conjugated by the shear I + E01
    "sheared-coupling": (
        DenseOperator.from_ints([[1, -2], [0, -1]]),
        vec_from_ints([1, 0]), vec_from_ints([1, 1]),
        ONE, Scalar.exact(-1), False, None),
    # z1 = 1, z2 = i are not opposite: the generic case of each condition
    "generic-pair": (GENERIC_PAIR, vec_from_ints([0, 1, 0, 0]), vec_from_ints([0, 0, 0, 1]),
                     ONE, I_, True, 3),
    # the same pair conjugated by the shear S = I + E02, which maps e_1 and
    # e_3 to themselves
    "sheared-generic-pair": (
        (SHEAR_02 + IDENTITY_4) @ GENERIC_PAIR @ (IDENTITY_4 - SHEAR_02),
        vec_from_ints([0, 1, 0, 0]), vec_from_ints([0, 0, 0, 1]), ONE, I_, False, None),
}


def float_copy(T, vectors, scalars, seed=0):
    """u T u* for a seeded random unitary u, with u h for each vector h and
    each scalar in float."""
    u = random_unitary(T.dim, np.random.default_rng(seed))
    moved = [tuple(Scalar.flt(x.real, x.imag)
                   for x in u @ np.array([s.as_complex() for s in h])) for h in vectors]
    return (conjugate_by_unitary(operator_to_float(T), u), moved,
            [Scalar.flt(float(z.re), float(z.im)) for z in scalars])


class TestJordanPairEquivalences:
    def check(self, case, mode):
        T, h1, h2, z1, z2, holds, order = JORDAN_PAIR_CASES[case]
        if mode == FLOAT:
            T, (h1, h2), (z1, z2) = float_copy(T, (h1, h2), (z1, z2))
        rep = jordan_pair_equivalences(T, h1, h2, z1, z2)
        assert rep.all_agree and rep.conditions() == (holds,) * 5
        assert rep.restricted_order == order

    def test_orthogonal_pair_all_true(self):
        self.check("orthogonal-pair", EXACT)

    def test_worked_example_all_false(self):
        self.check("worked-example", EXACT)

    def test_sheared_coupling_all_false(self):
        self.check("sheared-coupling", EXACT)

    def test_generic_pair_all_true(self):
        self.check("generic-pair", EXACT)

    def test_sheared_generic_pair_all_false(self):
        self.check("sheared-generic-pair", EXACT)

    @pytest.mark.parametrize("case", list(JORDAN_PAIR_CASES))
    def test_float_conjugated_copy(self, case):
        self.check(case, FLOAT)

    @pytest.mark.parametrize("case", ["generic-pair", "worked-example"])
    def test_walks_each_candidate_once(self, case, monkeypatch):
        # conditions (ii)-(iv) read the orbits of u + v and i u + v, for u
        # and v in the cyclic bases of h1 and h2, and walk nothing else
        T, h1, h2, z1, z2, _, _ = JORDAN_PAIR_CASES[case]
        c1, c2 = cyclic_subspace(T, h1), cyclic_subspace(T, h2)
        walked, real = [], spectral.orbit_sequence
        monkeypatch.setattr(spectral, "orbit_sequence",
                            lambda T, v, n: walked.append(v) or real(T, v, n))
        jordan_pair_equivalences(T, h1, h2, z1, z2)
        want = [vec_add(g, v) for u in c1 for g in (u, vec_scale(I_, u)) for v in c2]
        assert Counter(walked) == Counter(want) and len(set(want)) == len(want)


def ortho_pair(seed, similar):
    """A seeded float ortho case (T, h1, h2, z1, z2): Jordan blocks of sizes
    1-5 at two or three distinct UNIMODULAR_EXACT values, with h1 and h2 of
    small integer coordinates in the first and the second block.  The blocks
    are moved by a random unitary, which keeps h1 and h2 orthogonal, or by
    the similarity S = I + 0.3 G (G complex Gaussian), which does not."""
    rng, np_rng = random.Random(seed), np.random.default_rng(seed)
    zs = rng.sample(UNIMODULAR_EXACT, rng.randint(2, 3))
    sizes = [rng.randint(1, 5) for _ in zs]
    J = to_numpy(operator_to_float(direct_sum(*(jordan_matrix(JordanSpec(z, k))
                                                for z, k in zip(zs, sizes)))))
    xs = []
    for lo, k in ((0, sizes[0]), (sizes[0], sizes[1])):
        x = np.zeros(len(J), complex)
        while not x.any():
            x[lo:lo + k] = [complex(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(k)]
        xs.append(x)
    if similar:
        S = np.eye(len(J)) + 0.3 * (np_rng.standard_normal(J.shape)
                                    + 1j * np_rng.standard_normal(J.shape))
        T = S @ J @ np.linalg.inv(S)
    else:
        S = random_unitary(len(J), np_rng)
        T = S @ J @ S.conj().T
    h1, h2 = (tuple(Scalar.flt(v.real, v.imag) for v in S @ x) for x in xs)
    return (from_numpy(T), h1, h2, *(Scalar.flt(float(z.re), float(z.im)) for z in zs[:2]))


class TestOrthoOrbitRelativeThreshold:
    """Float ortho tests sample n against tol (n + 1) ||T^n h1|| ||T^n h2||.
    A threshold of tol max(1, |h1| |h2|) max(1, |T|)^window, blind to how the
    orbits grow, got about half of these pairs wrong, both ways."""

    def test_orthogonal_pairs_vanish(self):
        wrong = [seed for seed in range(40)
                 if not ((res := ortho_test_generalized(*ortho_pair(seed, False)))
                         .mixed_inner_vanishes and res.agrees_with_theory)]
        assert wrong == []

    def test_similar_pairs_do_not_vanish(self):
        wrong = [seed for seed in range(40)
                 if ortho_test_generalized(*ortho_pair(seed, True)).mixed_inner_vanishes]
        assert wrong == []


# ---------------------------------------------------------------------------
# Local defect tests against their orbit-walk and difference-table forms
# ---------------------------------------------------------------------------

def polarization_candidates(vectors):
    """The candidates of polarization_pairs made from the vectors."""
    return [_polarization_vector(vectors.__getitem__, *c) for c in polarization_pairs(len(vectors))]


def ref_strictness_criterion(A, N, m_a, nu):
    """The first polarization candidate f0 with
    sum_l (-1)^l C(m_a-1, l) ||A^l N^(nu-1) f0||^2 != 0, from an orbit walk
    per candidate (exact mode); (strict, witness)."""
    P = N.power(nu - 1)
    for f0 in polarization_candidates([basis_vector(A.dim, j, EXACT) for j in range(A.dim)]):
        val = Scalar.exact(0)
        for l, v in enumerate(islice(orbit(A, P.apply(f0)), m_a)):
            val = val + vec_norm_sq(v) * ((-1) ** l * math.comb(m_a - 1, l))
        if not val.is_zero():
            return True, f0
    return False, None


def ref_restricted_strict_order(T, spanning):
    """The first m <= 2 len(spanning) + 1 at which row m of the difference
    table of ||T^n v||^2 starts at 0 for every polarization candidate v of
    the spanning set (exact mode), else None."""
    m_max = 2 * len(spanning) + 1
    tables = [difference_table(orbit_sequence(T, v, m_max + 1), m_max)
              for v in polarization_candidates(spanning)]
    return next((m for m in range(1, m_max + 1)
                 if all(t.row(m)[0].is_zero() for t in tables)), None)


_gaussian_int = st.builds(Scalar.exact, st.integers(-3, 3), st.integers(-3, 3))


@st.composite
def jordan_pair_spans(draw):
    """(T, spanning): J(z1, k1) (+) J(z2, k2), z1 != z2 unimodular, with the
    cyclic subspaces of a random vector in each block, optionally conjugated
    by a shear I + c E_ij that couples the blocks."""
    z1, z2 = draw(st.lists(st.sampled_from(UNIMODULAR_EXACT), min_size=2, max_size=2,
                           unique=True))
    k1, k2 = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    T = direct_sum(jordan_matrix(JordanSpec(z1, k1)), jordan_matrix(JordanSpec(z2, k2)))
    dim, zero = k1 + k2, Scalar.exact(0)
    h1 = tuple(draw(st.lists(_gaussian_int, min_size=k1, max_size=k1)
                    .filter(lambda v: any(not x.is_zero() for x in v)))) + (zero,) * k2
    h2 = (zero,) * k1 + tuple(draw(st.lists(_gaussian_int, min_size=k2, max_size=k2)
                                   .filter(lambda v: any(not x.is_zero() for x in v))))
    if draw(st.booleans()):
        i, j = draw(st.integers(0, k1 - 1)), draw(st.integers(k1, dim - 1))
        c = Scalar.exact(draw(st.sampled_from([-2, -1, 1, 2])))
        E = DenseOperator([[c if (r, col) == (i, j) else zero for col in range(dim)]
                           for r in range(dim)])
        ident = DenseOperator.identity(dim, EXACT)
        T = (ident + E) @ T @ (ident - E)
        h1, h2 = (ident + E).apply(h1), (ident + E).apply(h2)
    return T, cyclic_subspace(T, h1) + cyclic_subspace(T, h2)


class TestLocalDefectTests:
    """The defect-form criteria give the orbit-walk and difference-table
    answers in exact mode."""

    @given(st.integers(0, 10 ** 6))
    @settings(max_examples=12, deadline=None)
    def test_strictness_criterion_matches_the_orbit_walk(self, seed):
        # the identity behind the criterion holds at every order, not only
        # at the base's strict order m_a
        for inst in perturbation_corpus(seed, count=3):
            A, N = inst.base, inst.nilpotent
            m_a, nu = strict_order(A).m, nilpotency_index(N).index
            for m, d in enumerate(islice(_defects(A), m_a + 1), 1):
                assert (_strictness_criterion(d, N.power(nu - 1), 0.0)
                        == ref_strictness_criterion(A, N, m, nu))

    @given(jordan_pair_spans())
    @settings(max_examples=40, deadline=None)
    def test_restricted_order_matches_the_difference_tables(self, case):
        T, spanning = case
        assert (_restricted_strict_order(T, spanning, 0.0)
                == ref_restricted_strict_order(T, spanning))


class TestCyclicSubspace:
    def test_cyclic_vector_of_block(self):
        T = jordan_matrix(JordanSpec(ONE, 2))
        assert len(cyclic_subspace(T, vec_from_ints([0, 1]))) == 2

    def test_eigenvector_is_one_dimensional(self):
        T = jordan_matrix(JordanSpec(ONE, 2))
        assert len(cyclic_subspace(T, vec_from_ints([1, 0]))) == 1

    def test_vandermonde_independence(self):
        T = DenseOperator.from_ints([[1, 0], [0, -1]])
        assert len(cyclic_subspace(T, vec_from_ints([1, 1]))) == 2

    def test_zero_vector_rejected(self):
        with pytest.raises(PreconditionError):
            cyclic_subspace(DenseOperator.identity(2, EXACT), vec_from_ints([0, 0]))

    @pytest.mark.parametrize("d", [4, 8, 12])
    def test_float_squared_norms_are_read_once(self, d, monkeypatch):
        # one squared norm per probe and one per orthogonalized probe, 2d in
        # all; re-reading the kept ones in every step took 20, 72 and 156
        T = operator_to_float(jordan_matrix(JordanSpec(Z35, d)))
        calls, real = [], spectral.vec_norm_sq
        monkeypatch.setattr(spectral, "vec_norm_sq", lambda u: calls.append(None) or real(u))
        assert len(cyclic_subspace(T, basis_vector(d, d - 1, FLOAT))) == d
        assert len(calls) == 2 * d

    @pytest.mark.parametrize("big", [1e200])
    def test_float_threshold_overflow_raises(self, big):
        # ||Th||^2 = big^2 is inf, and an infinite threshold would call Th
        # dependent (the right basis length is 2)
        T = DenseOperator([[Scalar.flt(big), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0)]])
        with pytest.raises(PreconditionError, match="float overflow"):
            cyclic_subspace(T, (Scalar.flt(1.0), Scalar.flt(1.0)))

    def test_float_large_entry_is_independent(self):
        # ||Th||^2 = 1e200 + 1 and its threshold 1e192 are finite, and Th
        # has a part of squared norm 5e199 orthogonal to h
        T = DenseOperator([[Scalar.flt(1e100), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0)]])
        assert len(cyclic_subspace(T, (Scalar.flt(1.0), Scalar.flt(1.0)))) == 2

    @pytest.mark.parametrize("s", [1e-170, 1e-200])
    def test_float_underflowing_norms_keep_the_basis(self, s):
        # every ||T^j h||^2 underflows to 0.0; the tests run on h over its
        # largest entry, and the basis is the orbit of h itself
        T = DenseOperator.from_ints([[1, 0], [0, -1]], FLOAT)
        h = (Scalar.flt(s), Scalar.flt(s))
        assert cyclic_subspace(T, h) == [h, T.apply(h)]

    def test_float_basis_does_not_depend_on_the_scale_of_h(self):
        # the threshold scales with the largest ||T^j h||^2, so s h has the
        # basis of h at every scale s
        rng = np.random.default_rng(3)
        u = random_unitary(4, rng)
        block = conjugate_by_unitary(operator_to_float(jordan_matrix(JordanSpec(I_, 4))), u)
        cases = [(DenseOperator.from_ints([[1, 0], [0, -1]], FLOAT), np.array([1, 2e-4]), 2),
                 (block, u @ np.array([0, 0, 0, 1]), 4)]
        for T, h, length in cases:
            for s in (1e-5, 1e-3, 1.0, 1e3, 1e5):
                v = tuple(Scalar.flt(z.real, z.imag) for z in (s * h).astype(complex))
                assert len(cyclic_subspace(T, v)) == length
