"""Defect operators, strict orders and local characterizations."""

import math
import random
from fractions import Fraction
from itertools import islice, product

import numpy as np
import pytest

from misolab import (
    DenseOperator,
    DimensionMismatchError,
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
    orbit,
    orbit_sequence,
    polarization_reconstruct,
    shift_from_polynomial,
    strict_order,
    vec_add,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
    vec_scale,
)
from misolab import isometry
from misolab.matrices import _eigen_range, _log_abs_det
from misolab.polynomials import falling_factorial_poly
from misolab.scalars import EXACT, FLOAT, negligible
from misolab.suites import (UNIMODULAR_EXACT, conjugate_by_unitary, decomposition_corpus,
                            operator_to_float, perturbation_corpus, random_unitary)

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

    def test_exact_defects_beyond_float_range_stay_in_integers(self):
        # J_2(10^200): every defect entry is past float range, and the exact
        # cross-check against the binomial sum never turns one into a float
        z = 10 ** 200
        T = jordan_matrix(JordanSpec(Scalar.exact(z), 2))
        for m in range(1, 5):
            assert not defect(T, m).matrix.is_zero()
        assert defect(T, 1).matrix.rows[0][0] == Scalar.exact(1 - z * z)
        assert not is_m_isometry(T, 3)
        assert strict_order(T).describe() == "not-within-bound(5)"

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


def off_circle_family(k, z, seed, count=7):
    """J_k(z) (+) (1/2), conjugated by count seeded unitaries: no m-isometry."""
    T = direct_sum(jordan_matrix(JordanSpec(z, k)),
                   DenseOperator([[Scalar.exact(Fraction(1, 2))]]))
    rng = np.random.default_rng(seed)
    return [conjugate_by_unitary(operator_to_float(T), random_unitary(T.dim, rng))
            for _ in range(count)]


class TestTheoremVetoes:
    """A float beta_m that passes the zero test ends the walk only at an odd
    m <= 2 dim - 1 with beta_{m-1} positive semidefinite within the
    eigenvalue ratio isometry._PSD_TOL (Agler and Stankus, 1995), and with
    |log |det T|| negligible within tol * dim (Agler, Helton and Stankus,
    1998)."""

    # J_k(z) (+) (1/2) for z = 1, -1, i, -i: the beta_m of the Jordan block
    # vanish from m = 2k - 1 on, and the off-circle block's (3/4)^m drops
    # below the walk's scale.  At k = 9, without the vetoes 38 of these 56
    # read strict-order(18) to strict-order(21), 18, 20 and 21 impossible on
    # C^10, and 19 with an indefinite beta_18; at k = 12 and 16 all 56 read
    # strict-order(2k - 1), which only the determinant refuses: log 2 each
    @pytest.mark.parametrize("k", [9, 12, 16])
    @pytest.mark.parametrize("z", UNIMODULAR_EXACT[:4], ids=["1", "-1", "i", "-i"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_off_circle_sums_claim_no_order(self, z, seed, k):
        for T in off_circle_family(k, z, seed):
            assert not strict_order(T).strict

    @pytest.mark.parametrize("z", UNIMODULAR_EXACT, ids=["1", "-1", "i", "-i", "3/5+4/5i"])
    def test_conjugated_jordan_blocks_keep_their_order(self, z):
        for k in (7, 8, 9, 12, 16):
            T = conjugate_by_unitary(operator_to_float(jordan_matrix(JordanSpec(z, k))),
                                     random_unitary(k, np.random.default_rng(k)))
            assert strict_order(T).describe() == f"strict-order({2 * k - 1})"

    def test_exact_strict_orders_meet_no_veto(self):
        # the theorems hold of every exact strict order on the corpora, so
        # the vetoes, which exact mode does not test, would never fire there
        ops = [jordan_matrix(JordanSpec(z, k)) for z in UNIMODULAR_EXACT for k in (1, 2, 3, 4)]
        ops += [inst.operator for inst in decomposition_corpus(0)]
        ops += [op for inst in perturbation_corpus(0)
                for op in (inst.base, inst.base + inst.nilpotent)]
        strict = 0
        for T in ops:
            v = strict_order(T)
            if not v.strict:
                continue
            strict += 1
            assert v.m % 2 == 1 and v.m <= 2 * T.dim - 1
            if v.m >= 2:
                low, top = _eigen_range(operator_to_float(v.defects[-1].matrix))
                assert low >= -isometry._PSD_TOL * top
                assert negligible(abs(_log_abs_det(operator_to_float(T))), FLOAT,
                                  isometry.DEFAULT_DEFECT_TOL, lambda: T.dim, "log |det T|")
        assert strict >= 60


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
        assert defect(T, 1).matrix.max_abs() > 1e-8
        with pytest.raises(PreconditionError, match="float overflow"):
            defect(T, 2)
        with pytest.raises(PreconditionError, match="float overflow"):
            is_m_isometry(T, 3)


def newton_expansion_holds(T, m, n_max):
    """T*^n T^n = sum_{k<m} (n)_k (-1)^k / k! beta_k(T) exactly for n <= n_max,
    with beta_k from defect() and (n)_k from falling_factorial_poly."""
    betas = [defect(T, k).matrix for k in range(m)]
    Tn = DenseOperator.identity(T.dim, T.mode)
    for n in range(n_max + 1):
        rhs = DenseOperator.zeros(T.dim, T.mode)
        for k, beta in enumerate(betas):
            coeff = (falling_factorial_poly(k, T.mode)(n) * Scalar.from_int((-1) ** k, T.mode)
                     / Scalar.from_int(math.factorial(k), T.mode))
            rhs = rhs + beta.scale(coeff)
        if not Tn.adjoint() @ Tn == rhs:
            return False
        Tn = Tn @ T
    return True


class TestNewtonExpansion:
    def test_isometry(self):
        assert newton_expansion_holds(DenseOperator.identity(3, EXACT), 1, 6)

    def test_jordan_blocks(self):
        assert newton_expansion_holds(J12, 3, 6)
        ji = jordan_matrix(JordanSpec(Scalar.exact(0, 1), 2))
        assert newton_expansion_holds(ji, 3, 6)

    def test_fails_off_the_m_isometries(self):
        # for n < m the m-term expansion is the binomial inversion of the
        # defects and holds for every T; at n = m it misses (-1)^m beta_m
        assert not is_m_isometry(EXAMPLE, 2)
        assert newton_expansion_holds(EXAMPLE, 2, 1)
        assert not newton_expansion_holds(EXAMPLE, 2, 2)

    def test_walks_the_defects_once(self, monkeypatch):
        # is_m_isometry's defect() walks the recurrence and the Gram
        # operators once each
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
        assert is_m_isometry(T, 7)
        assert walks == {"_defects": 1, "_grams": 1}


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
        e0 = basis_vector(1, 0, FLOAT)
        assert abs(float(f(e0, e0).re)) < 1e-12


    def test_float_form_is_the_defect_form_within_rounding(self):
        # the float form sums walked samples, the defect is the recurrence
        # walk's beta_k: both are within rounding of sum_j C(k, j) <T^j f, T^j g>,
        # whose error is at most a few eps times sum_j C(k, j) ||T^j||^2 ||f|| ||g||
        rng = random.Random(17)
        np_rng = np.random.default_rng(17)
        ops = [conjugate_by_unitary(operator_to_float(jordan_matrix(JordanSpec(z, 3))),
                                    random_unitary(3, np_rng)) for z in UNIMODULAR_EXACT[:3]]
        ops.append(DenseOperator([[Scalar.flt(rng.uniform(-1, 1), rng.uniform(-1, 1))
                                   for _ in range(3)] for _ in range(3)]))
        for T in ops:
            a = np.array([[s.as_complex() for s in r] for r in T.rows])
            for _ in range(3):
                f, g = (tuple(Scalar.flt(rng.uniform(-2, 2), rng.uniform(-2, 2))
                              for _ in range(3)) for _ in range(2))
                size = math.sqrt(vec_norm_sq(f).re * vec_norm_sq(g).re)
                for k in range(5):
                    got = defect_form(T, k)(f, g)
                    want = vec_inner(defect(T, k).matrix.apply(f), g)
                    bound = 1e-12 * size * sum(
                        math.comb(k, j) * np.linalg.norm(np.linalg.matrix_power(a, j), 2) ** 2
                        for j in range(k + 1))
                    assert abs(got.as_complex() - want.as_complex()) <= bound

    def test_exact_form_is_the_defect_form_off_the_diagonal(self):
        rng = random.Random(4)
        for _ in range(4):
            T = DenseOperator([[Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2))
                                for _ in range(3)] for _ in range(3)])
            f, g = (tuple(Scalar.exact(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                          for _ in range(3)) for _ in range(2))
            for k in range(4):
                assert defect_form(T, k)(f, g) == vec_inner(defect(T, k).matrix.apply(f), g)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_shift_form_of_order_zero_is_the_inner_product(self, mode):
        # a window of one sample raised WindowTooShortError
        W = shift_from_polynomial(Polynomial.from_ints([1, 1], mode=mode), 16)
        zero = Scalar.zero(mode)
        f = (Scalar.from_int(2, mode), zero, zero, Scalar.i_unit(mode)) + (zero,) * 4
        g = (zero,) * 3 + (Scalar.from_int(5, mode),) + (zero,) * 3 + (Scalar.one(mode),)
        assert defect_form(W, 0)(f, g) == vec_inner(f, g)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_every_order_checks_its_vectors(self, mode, k):
        # at k = 0 no orbit step ran apply: 3-vectors, and vectors of the
        # other mode, gave a value on a 2 x 2 operator
        form = defect_form(DenseOperator.from_ints([[1, 1], [0, 1]], mode), k)
        other = FLOAT if mode == EXACT else EXACT
        with pytest.raises(DimensionMismatchError):
            form(vec_from_ints([1, 2, 3], mode), vec_from_ints([0, 1, 1], mode))
        with pytest.raises(DimensionMismatchError):
            form(vec_from_ints([1, 2], mode), vec_from_ints([0, 1, 1], mode))
        with pytest.raises(ModeMismatchError):
            form(vec_from_ints([1, 2], other), vec_from_ints([0, 1], other))
        with pytest.raises(ModeMismatchError):
            form(vec_from_ints([1, 2], mode), vec_from_ints([0, 1], other))


class TestVectorKinds:
    """A dense operator and a weighted shift take tuples of Scalars of their
    own mode, a dense operator's of its dim and a shift's nonempty; any other
    vector raises a MisolabError."""

    CALLS = {
        "apply": lambda op, v: op.apply(v),
        "orbit_sequence": lambda op, v: orbit_sequence(op, v, 4),
        "defect_form": lambda op, v: defect_form(op, 1)(v, v),
        "survey": lambda op, v: local_isometry_survey(op, [v]),
    }

    OPS = {
        "dense": lambda mode: DenseOperator.from_ints([[1, 1], [0, 1]], mode),
        "shift": lambda mode: shift_from_polynomial(Polynomial.from_ints([1, 1], mode=mode), 16),
    }
    BAD = {"int-list": [1, 2], "float-tuple": (1.0, 2.0),
           "scalar-and-int": (Scalar.exact(1), 2), "none": None, "empty": ()}

    # a dense operator refuses the empty tuple by its length, as a
    # DimensionMismatchError
    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    @pytest.mark.parametrize("kind, bad", [(kind, bad) for kind, bad in product(OPS, BAD)
                                           if kind == "shift" or bad != "empty"])
    def test_operators_refuse_entries_that_are_not_scalars(self, call, mode, kind, bad):
        # a dense operator raised a bare AttributeError ('int' object has no
        # attribute 'mode'), or for None a bare TypeError.  An empty tuple has
        # no mode to compare
        with pytest.raises(PreconditionError):
            self.CALLS[call](self.OPS[kind](mode), self.BAD[bad])

    @pytest.mark.parametrize("call", CALLS)
    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_shift_refuses_the_other_mode_as_a_dense_operator_does(self, call, mode):
        # a shift raised PreconditionError here
        other = FLOAT if mode == EXACT else EXACT
        W = shift_from_polynomial(Polynomial.from_ints([1, 1], mode=mode), 16)
        with pytest.raises(ModeMismatchError):
            self.CALLS[call](W, basis_vector(1, 0, other))
        with pytest.raises(ModeMismatchError):
            self.CALLS[call](DenseOperator.from_ints([[1, 1], [0, 1]], mode),
                             vec_from_ints([1, 0], other))

    def test_survey_raises_the_first_failing_vectors_error(self):
        T = DenseOperator.from_ints([[1, 1], [0, 1]])
        with pytest.raises(DimensionMismatchError):
            local_isometry_survey(T, [vec_from_ints([1, 0, 0]), [1, 0]])
        with pytest.raises(PreconditionError):
            local_isometry_survey(T, [[1, 0], vec_from_ints([1, 0, 0])])


def ref_polarization_reconstruct(quad, h, h0):
    """The three-sample loop sum_j (-1)^j C(2, j) quad(h0 + j h) / 2, each
    j h a Scalar multiple, that polarization_reconstruct ran before it read
    h0, h0 + h and h0 + (h + h); kept as the reference it must equal bit for
    bit."""
    mode = h[0].mode
    acc = None
    for j in range(3):
        c = (-1) ** j * math.comb(2, j)
        term = quad(vec_add(h0, vec_scale(Scalar.from_int(j, mode), h))) * c
        acc = term if acc is None else acc + term
    return acc / Scalar.from_int(2, mode)


def bits(s):
    """A Scalar's mode and parts, signed zeros told apart."""
    return s.mode, repr(s.re), repr(s.im)


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

    def test_defect_forms_on_finite_vectors(self):
        # the generator (n + 1)^2 gives squared weights ((n + 2)/(n + 1))^2,
        # rational squares, so exact apply runs on finitely supported vectors
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1]))
        h = vec_from_ints([1, 2, 0, 0])
        h0 = basis_vector(4, 3, EXACT)
        values = []
        for k in range(1, 5):
            form = defect_form(W, k)
            values.append(polarization_reconstruct(lambda v: form(v, v), h, h0))
            assert values[-1] == form(h, h)
        assert values == [Scalar.exact(x) for x in (-8, 4, 0, 0)]

    def test_shift_vectors_of_unequal_length_are_refused(self):
        # a shift's form reads the two vectors as zero past their ends, but
        # polarization adds them with vec_add, which needs equal lengths
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1]))
        form = defect_form(W, 2)
        h, h0 = vec_from_ints([1, 2]), basis_vector(4, 3, EXACT)
        assert form(h, h0) == form(h + (Scalar.exact(0),) * 2, h0)
        with pytest.raises(DimensionMismatchError):
            polarization_reconstruct(lambda v: form(v, v), h, h0)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_matches_the_three_sample_loop_on_tuples(self, mode):
        rng = random.Random(23)

        def entry():
            if mode == EXACT:
                return Scalar.exact(Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                                    Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            return Scalar.flt(*(rng.choice([0.0, rng.gauss(0, 1), rng.uniform(-1e3, 1e3)])
                                for _ in range(2)))

        for _ in range(60):
            n = rng.randint(1, 4)
            B = DenseOperator([[entry() for _ in range(n)] for _ in range(n)])
            h, h0 = (tuple(entry() for _ in range(n)) for _ in range(2))
            quads = [lambda v: vec_inner(B.apply(v), v), vec_norm_sq,
                     lambda v, form=defect_form(B, rng.randint(0, 3)): form(v, v)]
            for quad in quads:
                assert bits(polarization_reconstruct(quad, h, h0)) == bits(
                    ref_polarization_reconstruct(quad, h, h0))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_matches_the_three_sample_loop_on_finite_vectors(self, mode):
        rng = random.Random(29)
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1], mode=mode), 24)

        def vector():
            entries = {i: Scalar.from_int(rng.randint(-4, 4), mode)
                       * Scalar.from_int(rng.randint(1, 3), mode)
                       / Scalar.from_int(rng.randint(1, 3), mode)
                       for i in rng.sample(range(8), rng.randint(1, 4))}
            return tuple(entries.get(i, Scalar.zero(mode)) for i in range(8))

        for _ in range(40):
            h, h0 = vector(), vector()
            for quad in (vec_norm_sq,
                         lambda v, form=defect_form(W, rng.randint(0, 4)): form(v, v)):
                assert bits(polarization_reconstruct(quad, h, h0)) == bits(
                    ref_polarization_reconstruct(quad, h, h0))

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
        res = local_isometry_survey(W, [basis_vector(3, j, EXACT) for j in range(3)])
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
            e_j = basis_vector(j + 1, j, EXACT)
            walked = tuple(vec_norm_sq(v) for v in islice(orbit(W, e_j), 12))
            assert walked == orbit_sequence(W, e_j, 12).values == W.basis_orbit(j, 12).values

    def test_irrational_shift_weights_are_never_rooted(self):
        # the generator 1 + n has squared weights (n + 2)/(n + 1), whose
        # square roots are irrational: ||W^n e_j||^2 = (n + j + 1)/(j + 1)
        # is read from them, and each window walk raised on W.apply
        W = shift_from_polynomial(Polynomial.from_ints([1, 1]), 32)
        e = [basis_vector(3, j, EXACT) for j in range(3)]
        assert orbit_sequence(W, e[0], 8).values == W.basis_orbit(0, 8).values
        res = local_isometry_survey(W, e)
        assert [v.describe() for v in res.per_vector] == ["polynomial(degree=1)"] * 3
        assert res.consistent_with == 2
        assert defect_form(W, 1)(e[0], e[0]) == -1
        assert defect_form(W, 2)(e[0], e[0]) == 0

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
