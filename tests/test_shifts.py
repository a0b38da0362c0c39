"""Weighted-shift construction and verification."""

from fractions import Fraction

import pytest

from misolab import (
    DenseOperator,
    JordanSpec,
    ModeMismatchError,
    Polynomial,
    PreconditionError,
    Scalar,
    basis_vector,
    build_shift_spec,
    detect_degree,
    jordan_matrix,
    localization_shift,
    newton_coefficients_nonnegative,
    orbit_sequence,
    shift_from_polynomial,
    shift_is_m_isometry,
    strict_order,
    vec_from_ints,
    vec_norm_sq,
    vec_scale,
    WeightedShiftOperator,
)
from misolab import suites
from misolab.scalars import EXACT, FLOAT
from misolab.suites import SHIFT_GENERATORS


class TestShiftFromPolynomial:
    def test_linear_generator(self):
        W = shift_from_polynomial(Polynomial.from_ints([1, 1]), 32)
        # squared weights (n+2)/(n+1); orbit of e_0 is n+1
        for n in range(10):
            assert W.weight_sq(n) == Scalar.exact(Fraction(n + 2, n + 1))
            assert W.orbit_norm_sq(0, n) == Scalar.exact(n + 1)
        assert shift_is_m_isometry(W, 2)
        assert not shift_is_m_isometry(W, 1)

    def test_constant_generator_is_plain_shift(self):
        W = shift_from_polynomial(Polynomial.from_ints([1]), 16)
        assert all(W.weight_sq(n) == Scalar.exact(1) for n in range(10))
        assert shift_is_m_isometry(W, 1)

    def test_squared_linear_generator(self):
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1]), 32)
        for n in range(10):
            assert W.orbit_norm_sq(0, n) == Scalar.exact((n + 1) ** 2)
        assert shift_is_m_isometry(W, 3)
        assert not shift_is_m_isometry(W, 2)

    def test_nonpositive_generator_rejected(self):
        with pytest.raises(PreconditionError):
            shift_from_polynomial(Polynomial.from_ints([0, 1]), 8)  # p(0) = 0

    def test_orbit_norm_factorization(self):
        p = Polynomial.from_ints([1, 0, 1])
        W = shift_from_polynomial(p, 32)
        for j in range(6):
            for n in range(12):
                assert W.orbit_norm_sq(j, n) == p(n + j) / p(j)


class TestPositivityCertification:
    def test_newton_condition_certifies(self):
        assert newton_coefficients_nonnegative(Polynomial.from_ints([1, 1]))
        assert newton_coefficients_nonnegative(Polynomial.from_ints([3, 2]))

    def test_oscillating_positive_not_certified(self):
        # x^2 - 3x + 3 > 0 on all integers but has a negative Newton coefficient
        p = Polynomial.from_ints([3, -3, 1])
        assert not newton_coefficients_nonnegative(p)
        spec = build_shift_spec(p, 24)
        assert not spec.positivity_certified

    def test_spec_records_certificate(self):
        spec = build_shift_spec(Polynomial.from_ints([1, 2, 1]), 24)
        assert spec.positivity_certified


class TestLocalizationShift:
    def test_unitary_gives_unit_weights(self):
        u = DenseOperator([
            [Scalar.exact(0, 1), Scalar.exact(0)],
            [Scalar.exact(0), Scalar.exact(-1)],
        ])
        W = localization_shift(u, vec_from_ints([1, 1]), prefix_len=12)
        assert all(W.weight_sq(n) == Scalar.exact(1) for n in range(10))

    def test_jordan_block_weights(self):
        T = jordan_matrix(JordanSpec(Scalar.exact(1), 2))
        W = localization_shift(T, vec_from_ints([0, 1]), prefix_len=12)
        for n in range(10):
            want = Scalar.exact(Fraction((n + 1) ** 2 + 1, n ** 2 + 1))
            assert W.weight_sq(n) == want

    def test_matches_operator_strict_order(self):
        T = jordan_matrix(JordanSpec(Scalar.exact(0, 1), 3))
        m = strict_order(T).m
        h = vec_from_ints([1, 2, 1])
        W = localization_shift(T, h, prefix_len=24)
        assert shift_is_m_isometry(W, m)
        deg = detect_degree(W.basis_orbit(0, 12)).degree
        assert not shift_is_m_isometry(W, deg)

    def test_zero_vector_rejected(self):
        T = DenseOperator.identity(2, EXACT)
        with pytest.raises(PreconditionError):
            localization_shift(T, vec_from_ints([0, 0]))

    def test_non_injective_orbit_rejected(self):
        N = DenseOperator.from_ints([[0, 1], [0, 0]])
        with pytest.raises(PreconditionError):
            localization_shift(N, vec_from_ints([0, 1]), prefix_len=8)


class TestShiftApplication:
    def test_basis_vector_chains_upward(self):
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1], mode=FLOAT), 24)
        v = basis_vector(1, 0, FLOAT)
        for n in range(1, 8):
            v = W.apply(v)
            assert [i for i, c in enumerate(v) if not c.is_zero()] == [n]
            norm = float(vec_norm_sq(v).re)
            assert abs(norm - (n + 1) ** 2) < 1e-9 * (n + 1) ** 2

    def test_exact_apply_needs_rational_square(self):
        # squared weight 2/1 has an irrational root: exact application refuses
        W = shift_from_polynomial(Polynomial.from_ints([1, 1]), 16)
        with pytest.raises(PreconditionError):
            W.apply(basis_vector(1, 0, EXACT))

    def test_orthogonal_sum_formula(self):
        p = Polynomial.from_ints([1, 1], mode=FLOAT)
        W = shift_from_polynomial(p, 32)
        v = coeffs = (Scalar.flt(2.0), Scalar.flt(0.0, 1.0), Scalar.flt(-1.0))
        for n in range(10):
            want = sum(
                float((c.abs2() * W.orbit_norm_sq(j, n)).re)
                for j, c in enumerate(coeffs)
            )
            got = float(vec_norm_sq(v).re)
            assert abs(got - want) <= 1e-9 * max(1.0, want)
            v = W.apply(v)

    def test_weights_never_vanish(self):
        for ints in ((1,), (1, 1), (1, 2, 1), (1, 0, 1), (3, 2)):
            W = shift_from_polynomial(Polynomial.from_ints(ints), 24)
            assert all(not W.weight_sq(n).is_zero() for n in range(20))


class TestShiftVectors:
    """A shift acts on a tuple of Scalars, zero past its end; a zero entry
    reads no weight."""

    def test_zero_entries_read_no_weight(self):
        # the generator 1 + n has irrational weights sqrt((n + 2)/(n + 1))
        W = shift_from_polynomial(Polynomial.from_ints([1, 1]), 16)
        zero = Scalar.zero(EXACT)
        assert W.apply((zero,) * 3) == (zero,) * 4
        for j in range(4):
            assert (orbit_sequence(W, basis_vector(j + 1, j, EXACT), 8).values
                    == W.basis_orbit(j, 8).values)

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_apply_reads_no_weight_past_the_prefix_on_zeros(self, mode):
        W = shift_from_polynomial(Polynomial.from_ints([1, 2, 1], mode=mode), 16)
        e0 = basis_vector(W.prefix_len + 3, 0, mode)
        assert W.apply(e0) == vec_scale(W.weight(0), basis_vector(W.prefix_len + 4, 1, mode))
        with pytest.raises(PreconditionError, match="beyond verified prefix"):
            W.apply(basis_vector(W.prefix_len + 1, W.prefix_len, mode))

    @pytest.mark.parametrize("mode", [EXACT, FLOAT])
    def test_orbit_inners_read_the_common_prefix(self, mode):
        W = shift_from_polynomial(Polynomial.from_ints([1, 1], mode=mode), 16)
        far = vec_from_ints([1, 2] + [0] * W.prefix_len + [3], mode)
        near = vec_from_ints([4, 5], mode)
        assert W._orbit_inners(far, near, 6) == W._orbit_inners(far[:2], near, 6)
        assert W._orbit_inners(near, far, 6) == W._orbit_inners(near, far[:2], 6)
        with pytest.raises(PreconditionError, match="beyond verified prefix"):
            W._orbit_inners(far, far, 6)


class TestShiftOrbitNorms:
    @pytest.mark.parametrize("ints", SHIFT_GENERATORS)
    def test_basis_orbit_is_the_product_of_squared_weights(self, ints):
        W = shift_from_polynomial(Polynomial.from_ints(ints), 32)
        for j in range(7):
            assert list(W.basis_orbit(j, 25 - j).values) == [W.orbit_norm_sq(j, n)
                                                             for n in range(25 - j)]

    def test_localization_basis_orbit_is_the_product_of_squared_weights(self):
        T = jordan_matrix(JordanSpec(Scalar.exact(Fraction(3, 5), Fraction(4, 5)), 3))
        W = localization_shift(T, vec_from_ints([1, 2, 3]))
        assert any(W.weight_sq(n).re.denominator > 1 for n in range(W.prefix_len))
        window = W.prefix_len - 6
        for j in range(7):
            assert list(W.basis_orbit(j, window).values) == [W.orbit_norm_sq(j, n)
                                                             for n in range(window)]

    @pytest.mark.parametrize("weights_sq", [
        [Scalar.flt(-1.0), Scalar.flt(1.0)], [Scalar.exact(-4), Scalar.exact(1)],
        [Scalar.flt(1.0), Scalar.flt(2.0, 1.0)], [Scalar.exact(1), Scalar.exact(1, 1)]],
        ids=["float", "exact", "float-complex", "exact-complex"])
    def test_squared_weights_are_real_and_nonnegative(self, weights_sq):
        # a float -1.0 raised a bare ValueError (math domain error) from
        # weight(0), an exact -4 only there, as an irrational weight
        with pytest.raises(PreconditionError, match="real and nonnegative"):
            WeightedShiftOperator(weights_sq, weights_sq[0].mode)

    @pytest.mark.parametrize("weights_sq, mode", [
        ([Scalar.flt(2.0), Scalar.flt(3.0), Scalar.flt(0.5)], EXACT),
        ([Scalar.exact(2), Scalar.flt(3.0)], FLOAT),
        ([Scalar.exact(2), Scalar.exact(3)], "exactly")],
        ids=["float-as-exact", "mixed", "unknown-mode"])
    def test_squared_weights_are_scalars_of_the_mode(self, weights_sq, mode):
        # float weights in an exact shift gave the exact window 1, 2, 6
        with pytest.raises(ModeMismatchError):
            WeightedShiftOperator(weights_sq, mode)

    @pytest.mark.parametrize("weights_sq", [
        [2, 3], [Scalar.exact(2), 3], [Scalar.exact(2), None]],
        ids=["ints", "scalar-and-int", "none"])
    def test_squared_weights_that_are_not_scalars_are_refused(self, weights_sq):
        # the rule of a vector entry that is not a Scalar
        with pytest.raises(PreconditionError, match="must be Scalars"):
            WeightedShiftOperator(weights_sq, EXACT)


class TestShiftSuiteFailures:
    """The suite's shift law, on shifts one squared weight of which is wrong:
    the generator (1, 2, 1)'s weight 3 is doubled, so the orbit norm of e_j
    is wrong from n = 4 - j on, for j <= 3, and the shift is no 3-isometry."""

    GENERATOR, WEIGHT = (1, 2, 1), 3

    def one_wrong_weight(self, monkeypatch, mode):
        built = suites.shift_from_polynomial

        def shift(p, prefix_len):
            W = built(p, prefix_len=prefix_len)
            if p == Polynomial.from_ints(self.GENERATOR, mode=mode):
                w = list(W.weights_sq)
                w[self.WEIGHT] = w[self.WEIGHT] * 2
                W = WeightedShiftOperator(w, mode)
            return W

        monkeypatch.setattr(suites, "shift_from_polynomial", shift)

    def want_failures(self, prefix):
        tag = f"{prefix}generator {self.GENERATOR}"
        return [f"{tag}: not flagged as a 3-isometry"] + [
            f"{tag}: orbit norm mismatch at j={j}, n={n}"
            for j in range(self.WEIGHT + 1) for n in range(self.WEIGHT + 1 - j, 25 - j)]

    def test_exact_suite_lists_every_wrong_orbit_norm(self, monkeypatch):
        self.one_wrong_weight(monkeypatch, EXACT)
        res = suites.suite_shift_factory()
        assert res.checks == 780
        assert list(res.failures) == self.want_failures("")

    def test_float_checks_list_every_wrong_orbit_norm(self, monkeypatch):
        self.one_wrong_weight(monkeypatch, FLOAT)
        rec = suites._Recorder("shift-law")
        suites._shift_checks(rec, FLOAT)
        assert rec.checks == 780
        assert rec.failures == self.want_failures("float ")
