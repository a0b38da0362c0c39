"""Core arithmetic: dual-mode scalars, matrices, vectors, polynomials."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolab import (
    DenseOperator,
    ModeMismatchError,
    Polynomial,
    PreconditionError,
    Scalar,
    basis_vector,
    vec_add,
    vec_from_ints,
    vec_inner,
    vec_norm_sq,
    vec_scale,
)
from misolab.scalars import EXACT, FLOAT, negligible

exact_scalars = st.builds(
    lambda a, b, c, d: Scalar.exact(Fraction(a, c), Fraction(b, d)),
    st.integers(-9, 9), st.integers(-9, 9), st.integers(1, 4), st.integers(1, 4),
)


class TestScalar:
    def test_exact_arithmetic_is_rational(self):
        a = Scalar.exact(Fraction(1, 3), 2)
        b = Scalar.exact(Fraction(2, 3), -1)
        s = a + b
        assert s.re == 1 and s.im == 1
        p = a * b
        assert p.re == Fraction(1, 3) * Fraction(2, 3) + 2
        assert p.im == -Fraction(1, 3) + Fraction(4, 3)

    def test_division_and_conjugate(self):
        a = Scalar.exact(3, 4)
        assert (a / a) == Scalar.exact(1)
        assert a.conj().im == -4
        assert a.abs2() == Scalar.exact(25)

    def test_float_division_by_tiny_divisor(self):
        # |d|^2 underflows to 0.0 for |d| < 1e-154; d itself is nonzero
        d = Scalar.flt(3e-200, -4e-200)
        q = Scalar.flt(6e-200, 8e-200) / d
        assert abs(q.as_complex() - (6 + 8j) / (3 - 4j)) < 1e-15
        with pytest.raises(ZeroDivisionError):
            Scalar.flt(1.0) / Scalar.flt(0.0)

    def test_float_division_by_huge_divisor(self):
        # |d|^2 overflows to inf for |d| > 1.4e154; d itself is finite
        assert Scalar.flt(3e300) / Scalar.flt(1e300) == Scalar.flt(3.0)
        q = Scalar.flt(6e300, 8e300) / Scalar.flt(3e300, -4e300)
        assert abs(q.as_complex() - (6 + 8j) / (3 - 4j)) < 1e-15
        # an infinite divisor keeps the plain formula's nan
        assert math.isnan((Scalar.flt(1.0) / Scalar.flt(math.inf)).re)

    def test_mode_mixing_raises(self):
        with pytest.raises(ModeMismatchError):
            Scalar.exact(1) + Scalar.flt(1.0)

    def test_zero_tests(self):
        assert Scalar.exact(0, 0).is_zero()
        # exact ignores tol
        assert not negligible(Scalar.exact(Fraction(1, 10**9)), EXACT, 1.0, lambda: 1.0, "x")
        assert negligible(Scalar.flt(1e-12), FLOAT, 1e-9, lambda: 1.0, "x")
        assert not negligible(Scalar.flt(1e-6), FLOAT, 1e-9, lambda: 1.0, "x")
        # is_zero is the exact test in both modes
        assert Scalar.flt(0.0, -0.0).is_zero() and not Scalar.flt(5e-324).is_zero()

    @given(exact_scalars, exact_scalars)
    @settings(max_examples=40)
    def test_multiplication_commutes_exactly(self, a, b):
        assert a * b == b * a


def no_magnitude():
    raise AssertionError("exact mode called magnitude")


float_sizes = st.floats(0.0, 1e300)


class TestNegligible:
    def test_exact_mode_calls_no_magnitude(self):
        zero_op, one_op = DenseOperator.zeros(2, EXACT), DenseOperator.identity(2, EXACT)
        for value, zero in [(0, True), (Fraction(0), True), (3, False), (Scalar.exact(0), True),
                            (Scalar.exact(0, 1), False), (zero_op, True), (one_op, False)]:
            assert negligible(value, EXACT, 0.5, no_magnitude, "x") is zero

    def test_exact_sizes_never_go_through_float(self):
        # float() of the first is 0.0, of the second an OverflowError
        assert not negligible(Fraction(1, 10**400), EXACT, 1e-9, no_magnitude, "x")
        assert not negligible(Fraction(10**400), EXACT, 1e-9, no_magnitude, "x")
        assert not negligible(Scalar.exact(0, Fraction(1, 10**400)), EXACT, 1e-9, no_magnitude, "x")

    def test_a_size_at_the_threshold_is_zero(self):
        assert negligible(0.5, FLOAT, 0.25, lambda: 2.0, "x")
        assert not negligible(math.nextafter(0.5, 1.0), FLOAT, 0.25, lambda: 2.0, "x")
        assert negligible(0.0, FLOAT, 0.0, lambda: 1.0, "x")

    def test_nan_is_never_zero(self):
        nan_op = DenseOperator([[Scalar.flt(math.nan), Scalar.flt(0.0)],
                                [Scalar.flt(0.0), Scalar.flt(0.0)]])
        for value in (math.nan, Scalar.flt(0.0, math.nan), nan_op):
            assert not negligible(value, FLOAT, 0.5, lambda: 1e300, "x")

    @pytest.mark.parametrize("magnitude", [lambda: math.inf, lambda: 1e300 * 1e300,
                                           lambda: 10**400, lambda: math.nan])
    def test_threshold_beyond_float_range_raises(self, magnitude):
        with pytest.raises(PreconditionError,
                           match="float overflow: the zero threshold of beta_7 leaves float range"):
            negligible(0.0, FLOAT, 1e-8, magnitude, "beta_7")

    @given(st.lists(st.tuples(float_sizes, float_sizes), min_size=4, max_size=4),
           st.floats(0.0, 1.0), float_sizes)
    @settings(max_examples=100, deadline=None)
    def test_scalars_and_operators_decide_by_their_size(self, parts, tol, magnitude):
        entries = [Scalar.flt(re, im) for re, im in parts]
        op = DenseOperator([entries[:2], entries[2:]])
        thr = tol * magnitude
        for s in entries:
            decision = negligible(s, FLOAT, tol, lambda: magnitude, "x")
            assert decision == negligible(s.modulus(), FLOAT, tol, lambda: magnitude, "x")
            assert decision == (s.modulus() <= thr)
        decision = negligible(op, FLOAT, tol, lambda: magnitude, "x")
        assert decision == negligible(op.max_abs(), FLOAT, tol, lambda: magnitude, "x")
        assert decision == (op.max_abs() <= thr)


class TestDenseOperator:
    def test_matmul_examples(self):
        a = DenseOperator.from_ints([[1, 1], [0, 1]])
        ident = DenseOperator.identity(2, EXACT)
        assert ident @ a == a
        assert a @ a == DenseOperator.from_ints([[1, 2], [0, 1]])
        two = DenseOperator.from_ints([[2, 0], [0, 2]])
        half = two.scale(Scalar.exact(Fraction(1, 4)))
        assert two @ half == ident

    def test_adjoint_examples(self):
        t = DenseOperator([
            [Scalar.exact(0, 1), Scalar.exact(2)],
            [Scalar.exact(0), Scalar.exact(0, -1)],
        ])
        assert t.adjoint() == DenseOperator([
            [Scalar.exact(0, -1), Scalar.exact(0)],
            [Scalar.exact(2), Scalar.exact(0, 1)],
        ])
        herm = DenseOperator([
            [Scalar.exact(1), Scalar.exact(0, 1)],
            [Scalar.exact(0, -1), Scalar.exact(2)],
        ])
        assert herm.adjoint() == herm
        assert t.adjoint().adjoint() == t

    @given(st.integers(0, 10**6))
    @settings(max_examples=20)
    def test_product_adjoint_reverses(self, seed):
        import random

        rng = random.Random(seed)
        mk = lambda: DenseOperator(
            [[Scalar.exact(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(3)]
             for _ in range(3)]
        )
        a, b = mk(), mk()
        assert (a @ b).adjoint() == b.adjoint() @ a.adjoint()


class TestInner:
    def test_worked_example_pair(self):
        h1 = (Scalar.exact(1), Scalar.exact(0))
        h2 = (Scalar.exact(0, 1), Scalar.exact(1))
        assert vec_inner(h1, h2) == Scalar.exact(0, -1)

    def test_pythagorean(self):
        u = vec_from_ints([3, 4])
        assert vec_norm_sq(u) == Scalar.exact(25)

    def test_disjoint_support(self):
        e2 = basis_vector(6, 2, EXACT)
        e5 = basis_vector(6, 5, EXACT)
        assert vec_inner(e2, e5).is_zero()

    @given(st.lists(exact_scalars, min_size=2, max_size=4),
           st.lists(exact_scalars, min_size=2, max_size=4))
    @settings(max_examples=40)
    def test_polarization_identity(self, us, vs):
        n = min(len(us), len(vs))
        u, v = tuple(us[:n]), tuple(vs[:n])
        i_unit = Scalar.i_unit(EXACT)
        quarter = Scalar.exact(Fraction(1, 4))
        acc = Scalar.exact(0)
        ik = Scalar.exact(1)
        for _ in range(4):
            w = vec_add(u, vec_scale(ik, v))
            acc = acc + ik * vec_norm_sq(w)
            ik = ik * i_unit
        assert quarter * acc == vec_inner(u, v)


class TestPolynomial:
    def test_eval(self):
        p = Polynomial.from_ints([1, 0, 1])
        assert p(3) == Scalar.exact(10)

    def test_zero_degree_sentinel(self):
        assert Polynomial([], mode=EXACT).degree is None
        assert Polynomial.from_ints([5]).degree == 0
