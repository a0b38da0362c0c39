"""Jordan structure, decomposition, perturbation and orthogonality tests."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolab import (
    DenseOperator,
    EigenHintError,
    JordanSpec,
    PreconditionError,
    Scalar,
    algebraic_decompose,
    cyclic_subspace,
    direct_sum,
    generalized_eigenspaces,
    is_m_isometry,
    jordan_matrix,
    jordan_pair_equivalences,
    nilpotency_index,
    ortho_test_generalized,
    perturbation_analysis,
    strict_order,
    unimodular_spectrum_check,
    vec_from_ints,
    vec_scale,
)
from misolab.scalars import EXACT, FLOAT
from misolab.spectral import exact_nullspace, exact_rref
from misolab.suites import operator_to_float

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
            assert J.entry(r, r) == Scalar.exact(-1)
        assert J.entry(0, 1) == ONE and J.entry(1, 2) == ONE


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
        red, pivots = exact_rref(A)
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

    def test_purely_imaginary_pivot(self):
        # rows (i, 1) and (2i, 2): rank 1, kernel spanned by (i, 1)
        A = DenseOperator([[I_, ONE], [Scalar.exact(0, 2), Scalar.exact(2)]])
        assert exact_rref(A) == ([[ONE, -I_]], [0])
        assert exact_nullspace(A) == [(I_, ONE)]


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

    def test_float_mode_clusters_spectrum(self):
        T = operator_to_float(direct_sum(
            jordan_matrix(JordanSpec(I_, 2)), jordan_matrix(JordanSpec(ONE, 1))
        ))
        spaces = generalized_eigenspaces(T)
        assert sorted(sp.dimension for sp in spaces) == [1, 2]


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

    def test_off_circle_refused(self):
        T = DenseOperator.from_ints([[2]])
        dec = algebraic_decompose(T, eigen_hints=(Scalar.exact(2),))
        assert not dec.certified
        assert any("unimodular" in f for f in dec.failures)

    def test_certified_orders_are_odd(self):
        T = direct_sum(jordan_matrix(JordanSpec(I_, 3)),
                       jordan_matrix(JordanSpec(ONE, 2)))
        dec = algebraic_decompose(T, eigen_hints=(I_, ONE))
        assert dec.certified and dec.predicted_strict_order == 5
        assert dec.predicted_strict_order % 2 == 1


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

    def test_eps_pair_validation(self):
        h1 = (ONE, Scalar.exact(0))
        h2 = (I_, ONE)
        with pytest.raises(PreconditionError):
            ortho_test_generalized(EXAMPLE, h1, h2, I_, -I_,
                                   eps_pair=(Scalar.exact(2), I_))


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


class TestJordanPairEquivalences:
    def test_orthogonal_pair_all_true(self):
        T = direct_sum(jordan_matrix(JordanSpec(ONE, 2)),
                       jordan_matrix(JordanSpec(Scalar.exact(-1), 2)))
        h1 = vec_from_ints([0, 1, 0, 0])
        h2 = vec_from_ints([0, 0, 0, 1])
        rep = jordan_pair_equivalences(T, h1, h2, ONE, Scalar.exact(-1))
        assert rep.all_agree and all(rep.conditions())
        assert rep.restricted_order == 3

    def test_worked_example_all_false(self):
        rep = jordan_pair_equivalences(
            EXAMPLE, (ONE, Scalar.exact(0)), (I_, ONE), I_, -I_
        )
        assert rep.all_agree and not any(rep.conditions())
        assert rep.restricted_order is None

    def test_sheared_coupling_all_false(self):
        # conjugate diag(1, -1) by the shear I + E01
        T = DenseOperator.from_ints([[1, -2], [0, -1]])
        h1 = vec_from_ints([1, 0])
        h2 = vec_from_ints([1, 1])
        rep = jordan_pair_equivalences(T, h1, h2, ONE, Scalar.exact(-1))
        assert rep.all_agree and not any(rep.conditions())


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

    @pytest.mark.parametrize("big", [1e200, 1e100])
    def test_float_threshold_overflow_raises(self, big):
        # ||Th||^2 = big^2: at 1e200 it is inf, and an infinite threshold
        # would call Th dependent (the right basis length is 2); at 1e100
        # the threshold is finite but its square is not
        T = DenseOperator([[Scalar.flt(big), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0)]])
        with pytest.raises(PreconditionError, match="float overflow"):
            cyclic_subspace(T, (Scalar.flt(1.0), Scalar.flt(1.0)))


class TestSpectrumCheck:
    def test_unitary(self):
        T = DenseOperator([[I_, Scalar.exact(0)], [Scalar.exact(0), ONE]])
        res = unimodular_spectrum_check(T, eigen_hints=(I_, ONE))
        assert res.all_on_circle

    def test_contraction(self):
        T = DenseOperator([[Scalar.exact(Fraction(1, 2))]])
        res = unimodular_spectrum_check(T, eigen_hints=(Scalar.exact(Fraction(1, 2)),))
        assert not res.all_on_circle

    def test_triangular_spectrum_float(self):
        T = operator_to_float(jordan_matrix(JordanSpec(I_, 3)))
        res = unimodular_spectrum_check(T)
        assert res.all_on_circle
