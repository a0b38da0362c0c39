"""Forward-difference calculus and Newton interpolation."""

import math
import random
from contextlib import nullcontext
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from misolab import (
    DegreeVerdict,
    DenseOperator,
    InternalCheckError,
    ModeMismatchError,
    NotPolynomialError,
    OrbitSequence,
    Polynomial,
    PreconditionError,
    Scalar,
    WindowTooShortError,
    detect_degree,
    difference_table,
    newton_reconstruct,
    orbit_sequence,
)
from misolab import diffcalc
from misolab.matrices import _int_form, _scalar, np, vec_max_abs
from misolab.polynomials import falling_factorial_poly
from misolab.scalars import EXACT, FLOAT, negligible, zero_threshold


def seq(values):
    return OrbitSequence.from_reals(values, EXACT)


class TestDifferenceTable:
    def test_constant_sequence(self):
        t = difference_table(seq([1, 1, 1, 1]), 1)
        assert all(v.is_zero() for v in t.row(1))

    def test_squares_oracle(self):
        # second differences of n^2 are the constant 2; third vanish
        t = difference_table(seq([n * n for n in range(5)]), 3)
        assert [v.re for v in t.row(2)] == [2, 2, 2]
        assert all(v.is_zero() for v in t.row(3))

    def test_constant_three(self):
        # the squared orbit norms of the non-orthogonal chain pair sum
        t = difference_table(seq([3, 3, 3, 3]), 1)
        assert all(v.is_zero() for v in t.row(1))

    def test_depth_too_large(self):
        with pytest.raises(WindowTooShortError):
            difference_table(seq([1, 2]), 2)


class TestFallingFactorial:
    def test_examples(self):
        assert falling_factorial_poly(2, EXACT)(5) == Scalar.exact(20)
        assert falling_factorial_poly(5, EXACT)(3) == Scalar.exact(0)
        assert falling_factorial_poly(0, EXACT)(7) == Scalar.exact(1)

    def test_matches_binomial_times_factorial(self):
        for k in range(21):
            p = falling_factorial_poly(k, EXACT)
            assert p.degree == k
            for n in range(21):
                assert p(n) == Scalar.exact(math.comb(n, k) * math.factorial(k))


class TestDetectDegree:
    def test_linear(self):
        v = detect_degree(seq([n + 1 for n in range(8)]))
        assert v.polynomial and v.degree == 1

    def test_geometric_is_not_polynomial(self):
        v = detect_degree(seq([2 ** n for n in range(10)]))
        assert not v.polynomial

    def test_constant(self):
        v = detect_degree(seq([5, 5, 5, 5]))
        assert v.polynomial and v.degree == 0 and not v.zero_sequence

    def test_zero_sequence_is_distinguished(self):
        v = detect_degree(seq([0, 0, 0, 0]))
        assert v.polynomial and v.zero_sequence and v.degree is None

    def test_float_tolerance(self):
        vals = [float(n * n) + 1e-12 * n for n in range(8)]
        v = detect_degree(OrbitSequence.from_reals(vals, FLOAT), tol=1e-9)
        assert v.polynomial and v.degree == 2

    def test_infinite_float_threshold_raises(self):
        # tol * max|gamma| is inf: every row would count as vanishing, and
        # the geometric window would be called the zero sequence
        gamma = OrbitSequence.from_reals([1e10 * 2.0 ** n for n in range(6)], FLOAT)
        with pytest.raises(PreconditionError, match="float overflow"):
            detect_degree(gamma, tol=1e300)

    # finite windows whose second differences (the first) or binomial sums
    # (the other two) leave float range: an overflow, not a failed check
    @pytest.mark.parametrize("window", [
        [1e308 * (n % 2) for n in range(6)],
        [1e308, 1.1e308] * 3,
        [1.7e308, 1.6e308] * 3,
    ])
    def test_float_difference_row_overflow_raises(self, window):
        with pytest.raises(PreconditionError, match="float overflow: difference row 2"):
            detect_degree(OrbitSequence.from_reals(window, FLOAT))


class TestNewtonReconstruct:
    def test_squares(self):
        p = newton_reconstruct(seq([n * n for n in range(6)]))
        assert p == Polynomial.from_ints([0, 0, 1])

    def test_constant(self):
        p = newton_reconstruct(seq([7, 7, 7]))
        assert p == Polynomial.from_ints([7])

    def test_linear_shift_orbit(self):
        p = newton_reconstruct(seq([n + 1 for n in range(6)]))
        assert p == Polynomial.from_ints([1, 1])

    def test_rejects_non_polynomial(self):
        with pytest.raises(NotPolynomialError):
            newton_reconstruct(seq([2 ** n for n in range(8)]))

    @given(st.lists(
        st.fractions(min_value=-9, max_value=9, max_denominator=4),
        min_size=1, max_size=9))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_on_random_polynomials(self, coeffs):
        p = Polynomial([Scalar.exact(c) for c in coeffs], mode=EXACT)
        deg = p.degree if p.degree is not None else 0
        gamma = OrbitSequence([p(n) for n in range(deg + 4)])
        assert newton_reconstruct(gamma) == p


class TestOrbitHooks:
    def test_shift_identity_of_difference_rows(self):
        # (Delta^m gamma_{T,h})_n equals (Delta^m gamma_{T, T^n h})_0
        rng = random.Random(11)
        for _ in range(5):
            T = DenseOperator(
                [[Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2))
                  for _ in range(3)] for _ in range(3)]
            )
            h = tuple(Scalar.exact(rng.randint(-2, 2), rng.randint(-2, 2))
                      for _ in range(3))
            gamma = orbit_sequence(T, h, window_len=10)
            table = difference_table(gamma, 4)
            for n in range(1, 5):
                shifted = h
                for _ in range(n):
                    shifted = T.apply(shifted)
                gamma_n = orbit_sequence(T, shifted, window_len=10 - n)
                table_n = difference_table(gamma_n, 4)
                for m in range(5):
                    assert table.row(m)[n] == table_n.row(m)[0]

    def test_growth_sanity_of_polynomial_orbits(self):
        # |p(n)|^(1/n) is within 1% of 1 at n = 10**4 for polynomial orbits
        p = Polynomial.from_ints([1, 0, 1], mode=FLOAT)
        n = 10 ** 4
        val = float(p(n).re)
        assert 0.99 <= val ** (1.0 / n) <= 1.01


class TestOrbitSequenceInvariants:
    def test_window_minimum(self):
        with pytest.raises(WindowTooShortError):
            OrbitSequence([Scalar.exact(1)])

    def test_rejects_complex_samples(self):
        with pytest.raises(ValueError):
            OrbitSequence([Scalar.exact(0, 1), Scalar.exact(1)])

    # a library error, so that the CLI maps it to exit 3
    def test_complex_sample_is_a_precondition_error(self):
        for mode in (EXACT, FLOAT):
            with pytest.raises(PreconditionError, match="must be real"):
                OrbitSequence([Scalar.one(mode), Scalar.i_unit(mode)])

    def test_mixed_modes_raise_mode_mismatch(self):
        with pytest.raises(ModeMismatchError):
            OrbitSequence([Scalar.exact(1), Scalar.flt(1.0), Scalar.exact(2)])


# ---------------------------------------------------------------------------
# The eager table the lazy one replaced, kept as the reference: it makes,
# cross-checks and boxes every row to the requested depth before any row is
# read.
# ---------------------------------------------------------------------------


def ref_difference_rows(gamma, depth):
    if gamma.mode == EXACT:
        den, reals, _ = _int_form(gamma.values)
        scale, to_scalar = 0.0, lambda x: _scalar(x, 0, den, EXACT)
    else:
        reals = [v.re for v in gamma.values]
        scale, to_scalar = max(1.0, gamma.max_abs()), lambda x: Scalar(FLOAT, x, 0.0)
    rows = [reals]
    for k in range(depth):
        prev = rows[-1]
        rows.append([prev[n + 1] - prev[n] for n in range(len(prev) - 1)])
    for m, row in enumerate(rows):
        sign_m = 1 if m % 2 == 0 else -1
        coeffs = [sign_m * (-1) ** k * math.comb(m, k) for k in range(m + 1)]
        slack = 1e-12 * scale * math.comb(m, m // 2) * (m + 1)
        for n, entry in enumerate(row):
            acc = 0
            for k, c in enumerate(coeffs):
                acc = acc + c * reals[n + k]
            if not abs(acc - entry) <= slack:
                raise InternalCheckError(f"row {m} entry {n} disagrees with binomial form")
    return (gamma.values, *(tuple(map(to_scalar, r)) for r in rows[1:]))


def ref_residual(values, mode):
    """The largest |value| in float mode, 0.0 in exact mode."""
    return 0.0 if mode == EXACT else vec_max_abs(values)


def ref_detect_degree(gamma, tol=diffcalc.DEFAULT_FLOAT_TOL):
    rows = ref_difference_rows(gamma, gamma.window_len - 1)
    scale = tol * max(1.0, gamma.max_abs()) if gamma.mode == FLOAT else 0.0

    def row_is_zero(depth):
        thr = scale * math.comb(depth, depth // 2)
        return all(v.is_zero() if v.mode == EXACT else v.modulus() <= thr for v in rows[depth])

    if row_is_zero(0):
        return DegreeVerdict(polynomial=True, degree=None, zero_sequence=True,
                             residual=ref_residual(gamma.values, gamma.mode))
    for d in range(gamma.window_len - 1):
        if row_is_zero(d + 1):
            return DegreeVerdict(polynomial=True, degree=d,
                                 residual=ref_residual(rows[d + 1], gamma.mode))
    return DegreeVerdict(polynomial=False, degree=None,
                         residual=ref_residual(rows[-1], gamma.mode))


def ref_newton_reconstruct(gamma, tol=diffcalc.DEFAULT_FLOAT_TOL):
    verdict = ref_detect_degree(gamma, tol)
    if not verdict.polynomial:
        raise NotPolynomialError("not polynomial within the window")
    if verdict.zero_sequence:
        return Polynomial.zero(gamma.mode)
    rows = ref_difference_rows(gamma, verdict.degree)
    p = Polynomial.zero(gamma.mode)
    for k in range(verdict.degree + 1):
        coeff = rows[k][0] / Scalar.from_int(math.factorial(k), gamma.mode)
        p = p + falling_factorial_poly(k, gamma.mode).scale(coeff)
    return p


def bits(s):
    """A Scalar's parts, float parts by float.hex so that signed zeros and
    last bits count."""
    if s.mode == EXACT:
        return (EXACT, s.re, s.im)
    return (FLOAT, float.hex(s.re), float.hex(s.im))


def poly_values(coeffs, length, offset=0):
    return [offset + sum(c * n ** j for j, c in enumerate(coeffs)) for n in range(length)]


# short windows, and those of the survey on dims 6 and 12 (default_window_len)
lengths = st.one_of(st.integers(3, 14), st.sampled_from([28, 52]))
# Large, coprime and mixed denominators, plus exact zeros.
fractions = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-10 ** 25, 10 ** 25),
              st.one_of(st.sampled_from([1, 2, 3, 7, 2 ** 61 - 1, 10 ** 20 + 39]),
                        st.integers(1, 10 ** 30))),
)
exact_values = st.one_of(
    st.builds(poly_values, st.lists(fractions, min_size=1, max_size=6), lengths),
    st.lists(fractions, min_size=3, max_size=14),                        # not polynomial
    lengths.map(lambda n: [0] * n),
    # a huge common offset: the differences cancel it exactly
    st.builds(poly_values, st.lists(fractions, min_size=1, max_size=4), lengths,
              st.just(Fraction(10 ** 40 + 1, 3))),
)
small_floats = st.floats(-1e3, 1e3, allow_nan=False)
float_values = st.one_of(
    st.builds(poly_values, st.lists(small_floats, min_size=1, max_size=6), lengths),
    st.lists(st.floats(-1e150, 1e150, allow_nan=False), min_size=3, max_size=14),
    lengths.map(lambda n: [0.0] * n),
    st.builds(lambda n, z: [z] * n, lengths, st.sampled_from([-0.0, 5e-324, 1e-300])),
    # a large offset that the float differences cancel with rounding
    st.builds(poly_values, st.lists(small_floats, min_size=1, max_size=4), lengths,
              st.sampled_from([1e8, 1e15, 3.0e16])),
    st.builds(lambda n, r: [r ** k for k in range(n)], lengths, st.floats(0.5, 2.0)),
)
windows = st.one_of(
    exact_values.map(lambda v: OrbitSequence.from_reals(v, EXACT)),
    float_values.map(lambda v: OrbitSequence.from_reals(v, FLOAT)),
)


class TestLazyTableMatchesEager:
    @given(windows)
    @settings(max_examples=150, deadline=None)
    def test_degree_verdict(self, gamma):
        got, want = detect_degree(gamma), ref_detect_degree(gamma)
        assert (got.polynomial, got.degree, got.zero_sequence, float.hex(got.residual)) == \
            (want.polynomial, want.degree, want.zero_sequence, float.hex(want.residual))

    @given(windows, st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_in_any_read_order(self, gamma, data):
        depth = data.draw(st.integers(0, gamma.window_len - 1))
        order = data.draw(st.permutations(range(depth + 1)))
        table, ref = difference_table(gamma, depth), ref_difference_rows(gamma, depth)
        for k in order:
            assert [bits(s) for s in table.row(k)] == [bits(s) for s in ref[k]]
        with pytest.raises(IndexError):
            table.row(depth + 1)

    @given(windows)
    @settings(max_examples=150, deadline=None)
    def test_newton_reconstruct(self, gamma):
        try:
            want = ref_newton_reconstruct(gamma)
        except NotPolynomialError:
            with pytest.raises(NotPolynomialError):
                newton_reconstruct(gamma)
            return
        got = newton_reconstruct(gamma)
        assert got.mode == want.mode
        assert [bits(c) for c in got.coeffs] == [bits(c) for c in want.coeffs]


# ---------------------------------------------------------------------------
# The row-by-row detect_degree that the block tables replaced, kept as the
# reference: each row is made from the last one, cross-checked with one
# np.correlate, then tested by negligible, one row at a time.
# ---------------------------------------------------------------------------


def rowwise_check(vals, m, row, scale):
    what = f"the binomial check of difference row {m}"
    coeffs = [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]
    if not scale:
        sums = [sum(map(mul, coeffs, vals[n:n + m + 1])) for n in range(len(row))]
        bad = None if sums == list(row) else next(
            n for n, (acc, entry) in enumerate(zip(sums, row)) if acc != entry)
    else:
        slack = zero_threshold(FLOAT, 1e-12 * scale, lambda: math.comb(m, m // 2), what)
        slack = zero_threshold(FLOAT, slack, lambda: m + 1, what)
        sums = np.correlate(vals[:len(row) + m], np.array(coeffs, dtype=float))
        gaps = abs(sums - row)
        bad = None if gaps.max() <= slack else int((gaps <= slack).argmin())
    if bad is None:
        return
    if scale and not (math.isfinite(sums[bad]) and math.isfinite(row[bad])):
        raise PreconditionError(f"float overflow: difference row {m} or {what} "
                                "leaves float range")
    raise InternalCheckError(f"difference table row {m} entry {bad} disagrees with binomial form")


def rowwise_detect_degree(gamma, tol=diffcalc.DEFAULT_FLOAT_TOL):
    if gamma.window_len < 3:
        raise WindowTooShortError("degree detection needs at least 3 samples")
    if gamma.mode == EXACT:
        _, reals, _ = _int_form(gamma.values)
        scale = 0.0
    else:
        reals = np.array([v.re for v in gamma.values])
        scale = max(1.0, gamma.max_abs())
    window = zero_threshold(gamma.mode, tol, lambda: scale, "the window")
    rows = [reals]
    for k in range(gamma.window_len):
        if k:
            prev = rows[-1]
            with np.errstate(all="ignore") if scale else nullcontext():
                row = (np.subtract(prev[1:], prev[:-1]) if scale
                       else [b - a for a, b in zip(prev, prev[1:])])
                rowwise_check(reals, k, row, scale)
            rows.append(row)
        if gamma.mode == FLOAT:
            largest = residual = float(np.abs(rows[k]).max())
        else:
            largest, residual = max(map(abs, rows[k])), 0.0
        if negligible(largest, gamma.mode, window, lambda: math.comb(k, k // 2),
                      f"difference row {k}"):
            return DegreeVerdict(polynomial=True, degree=k - 1 if k else None,
                                 zero_sequence=k == 0, residual=residual)
    return DegreeVerdict(polynomial=False, degree=None, residual=residual)


def outcome(detect, gamma, tol):
    """The verdict's fields, float residual by its bits, or the error's type and message."""
    try:
        v = detect(gamma, tol)
    except (PreconditionError, InternalCheckError) as exc:
        return type(exc), str(exc)
    return v.polynomial, v.degree, v.zero_sequence, float.hex(v.residual)


# windows near float max: their rows, binomial sums and row thresholds leave
# float range at rows that a tolerance moves against each other
huge = st.builds(lambda x, e: x * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(296, 307))
huge_windows = st.one_of(
    st.lists(huge, min_size=3, max_size=40),
    # one sign: the order of adding decides where a binomial sum overflows
    st.lists(st.builds(lambda x, e: x * 10.0 ** e, st.floats(0.5, 1.5), st.integers(296, 307)),
             min_size=3, max_size=60),
    st.builds(poly_values, st.lists(huge, min_size=1, max_size=5), st.integers(3, 30)),
    st.builds(lambda n, r, x: [x * r ** k for k in range(n)], st.integers(3, 40),
              st.floats(-2.0, 2.0), huge),
).filter(lambda v: all(map(math.isfinite, v))).map(lambda v: OrbitSequence.from_reals(v, FLOAT))
tols = st.sampled_from([diffcalc.DEFAULT_FLOAT_TOL, 1e-3, 1.0, 1e3, 1e8])


class TestBlocksMatchTheRowwiseWalk:
    @given(windows, tols)
    @settings(max_examples=200, deadline=None)
    def test_same_outcome(self, gamma, tol):
        assert outcome(detect_degree, gamma, tol) == outcome(rowwise_detect_degree, gamma, tol)

    @given(huge_windows, tols)
    @settings(max_examples=300, deadline=None)
    def test_same_outcome_near_float_max(self, gamma, tol):
        assert outcome(detect_degree, gamma, tol) == outcome(rowwise_detect_degree, gamma, tol)


class TestRowsAreMadeOnFirstRead:
    def test_detect_degree_stops_at_the_first_vanishing_row(self, monkeypatch):
        checked = []
        check = diffcalc._check_binomial_form

        # one call checks the rows not checked yet, first .. first + len(rows) - 1
        def recording(vals, first, rows, scale):
            checked.extend(range(first, first + len(rows)))
            check(vals, first, rows, scale)

        monkeypatch.setattr(diffcalc, "_check_binomial_form", recording)
        gamma = seq([3 * n + 1 for n in range(20)])
        assert detect_degree(gamma).degree == 1
        # row 0 is the window itself; rows 1 and 2 are made and checked
        assert checked == [1, 2]
        table = difference_table(gamma, 19)
        table.row(4)
        table.row(2)
        table.row(4)
        assert checked == [1, 2, 1, 2, 3, 4]

    def test_float_detect_degree_stops_at_the_first_vanishing_row(self, monkeypatch):
        checked = []
        check = diffcalc._check_binomial_form

        # one call checks the rows not checked yet, first .. first + len(rows) - 1
        def recording(vals, first, rows, scale):
            checked.extend(range(first, first + len(rows)))
            check(vals, first, rows, scale)

        monkeypatch.setattr(diffcalc, "_check_binomial_form", recording)
        gamma = OrbitSequence.from_reals([0.5 * n ** 3 - n + 0.25 for n in range(28)], FLOAT)
        assert detect_degree(gamma).degree == 3
        assert checked == [1, 2, 3, 4]


@pytest.mark.parametrize("values,m", [([1e308, -1e308, 1e308], 1),
                                      ([(-1) ** n * 1e301 for n in range(28)], 25)])
def test_float_rows_beyond_float_range_raise(values, m):
    gamma = OrbitSequence.from_reals(values, FLOAT)
    with pytest.raises(PreconditionError) as exc:
        detect_degree(gamma)
    assert str(exc.value) == (f"float overflow: difference row {m} or the binomial check "
                              f"of difference row {m} leaves float range")
