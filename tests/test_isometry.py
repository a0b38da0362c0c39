"""Defect operators, strict orders and local characterizations."""

import random
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest

from misolab import (
    DenseOperator,
    FiniteVector,
    PreconditionError,
    Scalar,
    basis_vector,
    defect,
    defect_form,
    detect_degree,
    direct_sum,
    is_m_isometry,
    JordanSpec,
    ModeMismatchError,
    Polynomial,
    jordan_matrix,
    local_isometry_survey,
    newton_expansion_check,
    orbit,
    orbit_sequence,
    polarization_reconstruct,
    shift_from_polynomial,
    strict_order,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
)
from misolab import isometry
from misolab.scalars import EXACT, FLOAT
from misolab.suites import (UNIMODULAR_EXACT, conjugate_by_unitary, operator_to_float,
                            random_unitary)

J12 = DenseOperator.from_ints([[1, 1], [0, 1]])
EXAMPLE = DenseOperator([
    [Scalar.exact(0, 1), Scalar.exact(2)],
    [Scalar.exact(0), Scalar.exact(0, -1)],
])


class TestDefect:
    def test_identity_is_isometry(self):
        assert defect(DenseOperator.identity(2, EXACT), 1).matrix.is_zero()

    def test_jordan_block_defects(self):
        assert defect(J12, 2).matrix == DenseOperator.from_ints([[0, 0], [0, 2]])
        assert defect(J12, 3).matrix.is_zero()

    def test_order_zero_is_identity(self):
        assert defect(J12, 0).matrix == DenseOperator.identity(2, EXACT)

    def test_defect_is_hermitian(self):
        rng = random.Random(5)
        for _ in range(5):
            T = DenseOperator(
                [[Scalar.exact(rng.randint(-3, 3), rng.randint(-3, 3))
                  for _ in range(3)] for _ in range(3)]
            )
            for m in range(4):
                d = defect(T, m).matrix
                assert d.adjoint() == d


class TestIsMIsometry:
    def test_unitary(self):
        u = DenseOperator([
            [Scalar.exact(0, 1), Scalar.exact(0)],
            [Scalar.exact(0), Scalar.exact(-1)],
        ])
        assert is_m_isometry(u, 1)

    def test_jordan_block(self):
        assert not is_m_isometry(J12, 2)
        assert is_m_isometry(J12, 3)

    def test_non_orthogonal_chains_never_within_nine(self):
        for m in range(1, 10):
            assert not is_m_isometry(EXAMPLE, m)


class TestStrictOrder:
    def test_unitary_diag(self):
        v = strict_order(DenseOperator.from_ints([[1, 0], [0, -1]]))
        assert v.strict and v.m == 1

    def test_jordan_size_three(self):
        v = strict_order(jordan_matrix(JordanSpec(Scalar.exact(1), 3)))
        assert v.strict and v.m == 5

    def test_not_within_bound(self):
        v = strict_order(EXAMPLE, m_max=9)
        assert not v.strict and v.m == 9

    def test_witness_certifies_previous_defect(self):
        v = strict_order(J12)
        assert v.strict and v.m == 3
        val = vec_inner(defect(J12, 2).matrix.apply(v.witness), v.witness)
        assert not val.is_zero()

    def test_hereditary(self):
        # once the defect vanishes it vanishes for every larger order
        v = strict_order(J12)
        for extra in range(3):
            assert is_m_isometry(J12, v.m + extra)


class TestFloatGramOverflow:
    """Gram operators T*^k T^k beyond float range raise; they made the zero
    threshold infinite and strict_order report a wrong order."""

    @pytest.mark.parametrize("big,k", [(1e100, 2), (1e200, 1)])
    def test_strict_order_raises(self, big, k):
        T = DenseOperator([[Scalar.flt(big), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0)]])
        with pytest.raises(PreconditionError, match=f"float overflow.*k <= {k}"):
            strict_order(T)

    def test_defect_and_is_m_isometry_raise(self):
        T = DenseOperator([[Scalar.flt(1e100), Scalar.flt(0.0)],
                           [Scalar.flt(0.0), Scalar.flt(1.0)]])
        assert not defect(T, 1).matrix.is_zero(1e-8)
        with pytest.raises(PreconditionError, match="float overflow"):
            defect(T, 2)
        with pytest.raises(PreconditionError, match="float overflow"):
            is_m_isometry(T, 3)


class TestNewtonExpansion:
    def test_isometry(self):
        assert newton_expansion_check(DenseOperator.identity(3, EXACT), 1, 6)

    def test_jordan_blocks(self):
        assert newton_expansion_check(J12, 3, 6)
        ji = jordan_matrix(JordanSpec(Scalar.exact(0, 1), 2))
        assert newton_expansion_check(ji, 3, 6)

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            newton_expansion_check(EXAMPLE, 2, 4)

    def test_walks_the_defects_once(self, monkeypatch):
        # is_m_isometry's defect() walks the recurrence and the Gram operators
        # once each; the beta_k for k < m come from one more recurrence walk
        walks = {"_defects": 0, "_grams": 0}

        def counted(name):
            real = getattr(isometry, name)

            def walk(T):
                walks[name] += 1
                return real(T)
            return walk

        for name in walks:
            monkeypatch.setattr(isometry, name, counted(name))
        T = direct_sum(jordan_matrix(JordanSpec(Scalar.exact(1), 4)),
                       jordan_matrix(JordanSpec(Scalar.exact(-1), 4)))
        assert newton_expansion_check(T, 7, 10)
        assert walks["_defects"] <= 2 and walks["_grams"] <= 1


class TestDefectForm:
    def test_order_zero_is_inner_product(self):
        f = defect_form(J12, 0)
        u, v = vec_from_ints([1, 2]), vec_from_ints([0, 1])
        assert f(u, v) == vec_inner(u, v)

    def test_eigenvector_of_jordan_block(self):
        f = defect_form(J12, 1)
        e1 = vec_from_ints([1, 0])
        assert f(e1, e1).is_zero()

    def test_matches_defect_quadratic_form(self):
        rng = random.Random(3)
        for _ in range(5):
            T = DenseOperator(
                [[Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(3)] for _ in range(3)]
            )
            h = tuple(Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(3))
            for k in range(4):
                lhs = defect_form(T, k)(h, h)
                rhs = vec_inner(defect(T, k).matrix.apply(h), h)
                assert lhs == rhs

    def test_works_on_sequence_space_without_adjoint(self):
        from misolab import shift_from_polynomial, Polynomial

        W = shift_from_polynomial(Polynomial.from_ints([1, 1], mode=FLOAT), 16)
        f = defect_form(W, 2)
        e0 = FiniteVector.basis(0, FLOAT)
        assert abs(float(f(e0, e0).re)) < 1e-12


class TestPolarization:
    def test_norm_form(self):
        quad = lambda v: vec_norm_sq(v)
        h = vec_from_ints([1, 0])
        h0 = vec_from_ints([0, 1])
        assert polarization_reconstruct(quad, h, h0) == Scalar.exact(1)

    def test_independent_of_base_point(self):
        beta = defect(J12, 2).matrix
        quad = lambda v: vec_inner(beta.apply(v), v)
        h = vec_from_ints([2, 3])
        a = polarization_reconstruct(quad, h, vec_from_ints([1, 0]))
        b = polarization_reconstruct(quad, h, vec_from_ints([5, -2]))
        assert a == b == quad(h)

    def test_zero_form(self):
        quad = lambda v: Scalar.exact(0)
        assert polarization_reconstruct(
            quad, vec_from_ints([1, 1]), vec_from_ints([0, 1])
        ).is_zero()


class TestSurvey:
    def test_cyclic_vector_attains_max_degree(self):
        res = local_isometry_survey(J12, [vec_from_ints([0, 1])])
        v = res.per_vector[0]
        assert v.polynomial and v.degree == 2
        assert res.global_verdict.strict and res.global_verdict.m == 3

    def test_geometric_orbit_reported(self):
        T = DenseOperator.from_ints([[2]], mode=EXACT)
        res = local_isometry_survey(T, [vec_from_ints([1])])
        assert not res.per_vector[0].polynomial
        assert res.consistent_with is None

    def test_empty_list_rejected(self):
        with pytest.raises(PreconditionError):
            local_isometry_survey(J12, [])

    def test_weighted_shift(self):
        # ||W^n e_j||^2 = (n+j+1)^2 / (j+1)^2: degree 2 on every basis vector
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1]), 32)
        res = local_isometry_survey(W, [FiniteVector.basis(j, EXACT) for j in range(3)])
        assert [v.describe() for v in res.per_vector] == ["polynomial(degree=2)"] * 3
        assert res.global_verdict is None
        assert res.order_lower_bound == 3 and res.consistent_with == 3

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_consistent_with_never_exceeds_the_dense_bound(self, mode):
        # J_2(1+i) + J_4(3/5+4/5 i) on C^6: the orbits of e_0 and e_1 grow like
        # 2^n, and in float mode the 28-sample window still passes degree 16,
        # above the 2 * 6 - 2 of any m-isometry; consistent_with and
        # order_lower_bound said 17 while the global verdict was
        # not-within-bound(13)
        T = direct_sum(jordan_matrix(JordanSpec(Scalar.exact(1, 1), 2)),
                       jordan_matrix(JordanSpec(Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 4)))
        if mode == FLOAT:
            T = operator_to_float(T)
        res = local_isometry_survey(T, [basis_vector(6, j, mode) for j in range(6)])
        assert not res.global_verdict.strict and res.global_verdict.m == 13
        # e_2 .. e_5 give degrees 0, 2, 4, 6; degree 16 counts for neither field
        assert res.order_lower_bound == 7 and res.consistent_with is None
        if mode == FLOAT:
            # per_vector stays the window's verdict
            assert res.per_vector[0].describe() == "polynomial(degree=16)"

    def test_float_basis_degrees_of_conjugated_jordan_blocks(self):
        # every basis vector of a unitary conjugation of J_k(z) has an orbit
        # norm of degree 2k - 2.  Read from defects made by the binomial sum,
        # 192 of these 1,650 degrees were wrong, at sizes 6, 8, 9 and 10
        wrong = []
        for seed in range(6):
            rng = np.random.default_rng(seed)
            for z in UNIMODULAR_EXACT:
                for k in range(1, 11):
                    T = conjugate_by_unitary(operator_to_float(jordan_matrix(JordanSpec(z, k))),
                                             random_unitary(k, rng))
                    res = local_isometry_survey(T, [basis_vector(k, j, FLOAT) for j in range(k)])
                    wrong += [(seed, z, k, j) for j, v in enumerate(res.per_vector)
                              if v.describe() != f"polynomial(degree={2 * k - 2})"]
        assert wrong == []


class TestOrbitWalk:
    def test_shift_walk_matches_running_weight_products(self):
        # squared weights (n+2)^2/(n+1)^2 are rational squares, so the exact
        # walk can step with W.apply
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1]), 32)
        for j in range(4):
            walked = orbit_sequence(W, FiniteVector.basis(j, EXACT), 12)
            assert walked.values == W.basis_orbit(j, 12).values

    def test_walk_matches_matrix_powers(self):
        h = (Scalar.exact(1, 2), Scalar.exact(Fraction(-1, 3)))
        walked = list(islice(orbit(EXAMPLE, h), 5))
        assert walked == [EXAMPLE.power(n).apply(h) for n in range(5)]

    @pytest.mark.parametrize("h", [
        (Scalar.flt(1.0), Scalar.flt(0.0)),
        (Scalar.exact(1), Scalar.flt(0.0)),
    ], ids=["float", "mixed"])
    def test_exact_walk_rejects_other_modes(self, h):
        with pytest.raises(ModeMismatchError):
            list(islice(orbit(J12, h), 3))
        with pytest.raises(ModeMismatchError):
            orbit_sequence(J12, h)


class TestSpanningSetImpliesDefectVanishing:
    def test_polynomial_orbits_on_polarized_spanning_set(self):
        # if the basis vectors, their pairwise sums and i-scaled sums all
        # have orbit degree <= m-1, the defect of order m vanishes
        rng = random.Random(9)
        from misolab import basis_vector, vec_add, vec_scale

        T = jordan_matrix(JordanSpec(Scalar.exact(0, -1), 2))
        dim, m = 2, 3
        vectors = [basis_vector(dim, j, EXACT) for j in range(dim)]
        i_unit = Scalar.i_unit(EXACT)
        vectors.append(vec_add(vectors[0], vectors[1]))
        vectors.append(vec_add(vectors[0], vec_scale(i_unit, vectors[1])))
        for h in vectors:
            verdict = detect_degree(orbit_sequence(T, h, window_len=10))
            assert verdict.polynomial
            assert verdict.zero_sequence or verdict.degree <= m - 1
        assert is_m_isometry(T, m)
