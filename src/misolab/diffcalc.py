"""Forward-difference calculus on orbit sequences.

Everything here works on a finite window of a sequence.  Degree verdicts
are therefore window-relative, and certify nothing beyond the window in
either mode.  The orbit degrees of an m-isometry are read from its defect
operators instead (isometry.local_isometry_survey): in exact mode they are
certificates, and on a window of at least m + 1 samples they equal the
verdicts made here; in float mode they are zero tests on <beta_j h, h>.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from functools import cache, reduce
from operator import add, mul
from typing import NamedTuple, Optional

from .errors import (
    InternalCheckError,
    NotPolynomialError,
    PreconditionError,
    WindowTooShortError,
)
from .matrices import _int_form, _scalar, np
from .polynomials import Polynomial, falling_factorial_poly
from .scalars import EXACT, FLOAT, Scalar, negligible, same_mode, zero_threshold

DEFAULT_FLOAT_TOL = 1e-9


def default_window_len(dim):
    """Window length for a dense operator of the given dimension.

    Algebraic strict orders are bounded by 2*dim - 1 and orbit degrees by
    order - 1; doubling plus slack lets the table certify every feasible
    degree.
    """
    return 2 * (2 * dim + 1) + 2


class OrbitSequence:
    """A finite window of real scalar samples gamma_0 .. gamma_N."""

    __slots__ = ("values", "mode")

    def __init__(self, values):
        values = tuple(values)
        if len(values) < 2:
            raise WindowTooShortError("orbit window must hold at least 2 samples")
        mode = same_mode(*values)
        for n, v in enumerate(values):
            if mode == FLOAT and not (math.isfinite(v.re) and math.isfinite(v.im)):
                raise PreconditionError(
                    f"orbit sample {n} is not finite: float overflow at step n={n}")
            if not v.is_real():
                raise PreconditionError("orbit samples must be real")
        self.values = values
        self.mode = mode

    @property
    def window_len(self):
        return len(self.values)

    @staticmethod
    def from_reals(reals, mode):
        if mode == EXACT:
            return OrbitSequence([Scalar.exact(r) for r in reals])
        return OrbitSequence([Scalar.flt(r) for r in reals])

    def max_abs(self):
        return max(v.modulus() for v in self.values)


class DifferenceTable:
    """Iterated forward differences (Delta^k gamma)_n of a window, k <= depth.

    Row k is made from row k - 1 when a caller first reads it, and is
    cross-checked against the alternating binomial-sum form as it is made.
    Rows are kept as plain real numbers: in exact mode lists of integers
    over the window's common denominator, in float mode float64 arrays of
    the real parts, each difference the IEEE b - a of Python floats.
    """

    def __init__(self, gamma, depth):
        if depth >= gamma.window_len:
            raise WindowTooShortError(
                f"depth {depth} too large for window of {gamma.window_len} samples"
            )
        self._gamma, self.depth = gamma, depth
        if gamma.mode == EXACT:
            self._den, reals, _ = _int_form(gamma.values)
        else:
            self._den, reals = 1, np.array([v.re for v in gamma.values])
        self._plain = [reals]
        # the binomial check's slack scale; 0.0 for ints, which compare exactly
        self._scale = max(1.0, gamma.max_abs()) if gamma.mode == FLOAT else 0.0

    def row(self, k):
        """Row k as Scalars; row 0 is the window itself."""
        if k == 0:
            return self._gamma.values
        if self._gamma.mode == FLOAT:
            return tuple(Scalar(FLOAT, x, 0.0) for x in self._plain_row(k).tolist())
        return tuple(_scalar(x, 0, self._den, EXACT) for x in self._plain_row(k))

    def _plain_row(self, k):
        if not 0 <= k <= self.depth:
            raise IndexError(f"difference row {k} outside 0..{self.depth}")
        rows, scale = self._plain, self._scale
        # float rows and their checks overflow to inf and nan as Python floats
        # do, with no RuntimeWarning; exact rows never load numpy
        with np.errstate(all="ignore") if scale else nullcontext():
            while len(rows) <= k:
                prev = rows[-1]
                row = (np.subtract(prev[1:], prev[:-1]) if scale
                       else [b - a for a, b in zip(prev, prev[1:])])
                _check_binomial_form(rows[0], len(rows), row, scale)
                rows.append(row)
        return rows[k]


class DegreeVerdict(NamedTuple):
    polynomial: bool
    degree: Optional[int]     # None when not polynomial, or for the zero sequence
    zero_sequence: bool = False
    residual: float = 0.0     # max |Delta^(d+1)| over the window (float diagnostics)

    def describe(self):
        if not self.polynomial:
            return "not-polynomial-within-window"
        if self.zero_sequence:
            return "zero-sequence"
        return f"polynomial(degree={self.degree})"


def difference_table(gamma, depth):
    """The window's DifferenceTable to the given depth; rows are made on first read."""
    return DifferenceTable(gamma, depth)


def _binomial_coeffs(m):
    """(-1)^(m-k) C(m, k) for k = 0..m, as ints."""
    return [(-1) ** (m - k) * math.comb(m, k) for k in range(m + 1)]


@cache
def _float_binomial_coeffs(m):
    """_binomial_coeffs(m) as a float array, kept: a check reads it only for
    m below about 1030, where its slack is within float range, so the arrays
    kept take at most about 4 MB."""
    return np.array(_binomial_coeffs(m), dtype=float)


def _check_binomial_form(vals, m, row, scale):
    """row[n] = (Delta^m vals)_n must equal sum_k (-1)^(m-k) C(m,k) vals[n+k].

    The entries are ints or floats; float entries may differ by a slack
    that grows with the largest binomial coefficient, and scale is 0.0 for
    ints, which are compared exactly.  Float sums are one np.correlate of
    vals with the coefficients, run under the caller's np.errstate.  A float
    entry or binomial sum beyond float range makes the two disagree; that is
    an overflow, not a failed check, and raises PreconditionError."""
    what = f"the binomial check of difference row {m}"
    if not scale:
        coeffs = _binomial_coeffs(m)
        sums = [reduce(add, map(mul, coeffs, vals[n:n + m + 1]), 0) for n in range(len(row))]
        bad = None if sums == list(row) else next(
            n for n, (acc, entry) in enumerate(zip(sums, row)) if acc != entry)
    else:
        slack = zero_threshold(FLOAT, 1e-12 * scale, lambda: math.comb(m, m // 2), what)
        slack = zero_threshold(FLOAT, slack, lambda: m + 1, what)
        sums = np.correlate(vals[:len(row) + m], _float_binomial_coeffs(m))
        gaps = abs(sums - row)      # a nan gap is never within the slack
        bad = None if gaps.max() <= slack else int((gaps <= slack).argmin())
    if bad is None:
        return
    if scale and not (math.isfinite(sums[bad]) and math.isfinite(row[bad])):
        raise PreconditionError(f"float overflow: difference row {m} or {what} "
                                "leaves float range")
    raise InternalCheckError(f"difference table row {m} entry {bad} disagrees with binomial form")


def detect_degree(gamma, tol=DEFAULT_FLOAT_TOL):
    """Smallest d with Delta^(d+1) vanishing over the window.

    Returns the zero-sequence verdict when the samples themselves vanish,
    and NotPolynomialWithinWindow when no d <= window_len - 2 works.
    """
    return _detect_degree(gamma, tol)[0]


def _detect_degree(gamma, tol):
    """detect_degree's verdict and its table, made up to the first vanishing row."""
    if gamma.window_len < 3:
        raise WindowTooShortError("degree detection needs at least 3 samples")
    table = difference_table(gamma, gamma.window_len - 1)
    # the window scale is the binomial check's, max(1, max |sample|)
    scale = zero_threshold(gamma.mode, tol, lambda: table._scale, "the window")
    for k in range(gamma.window_len):
        # |x| is the modulus of a real entry, math.hypot(x, 0.0); the binomial
        # factor compensates the cancellation amplification of k-fold
        # differencing; ints are compared with 0, no float made
        if gamma.mode == FLOAT:
            largest = residual = float(np.abs(table._plain_row(k)).max())
        else:
            largest, residual = max(map(abs, table._plain_row(k))), 0.0
        if negligible(largest, gamma.mode, scale, lambda: math.comb(k, k // 2),
                      f"difference row {k}"):
            return DegreeVerdict(polynomial=True, degree=k - 1 if k else None,
                                 zero_sequence=k == 0, residual=residual), table
    return DegreeVerdict(polynomial=False, degree=None, residual=residual), table


def newton_reconstruct(gamma, tol=DEFAULT_FLOAT_TOL):
    """Newton interpolation: p(n) = sum_k (Delta^k gamma)_0 / k! * (n)_k.

    Requires a polynomial degree verdict; reproduces every sample in the
    window (exactly in exact mode) and has the detected degree.
    """
    verdict, table = _detect_degree(gamma, tol)
    if not verdict.polynomial:
        raise NotPolynomialError(
            "sequence is not polynomial within its window; cannot reconstruct"
        )
    p = Polynomial.zero(gamma.mode)
    for k in range(0 if verdict.zero_sequence else verdict.degree + 1):
        coeff = table.row(k)[0] / Scalar.from_int(math.factorial(k), gamma.mode)
        p = p + falling_factorial_poly(k, gamma.mode).scale(coeff)
    return p
