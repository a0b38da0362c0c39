"""Forward-difference calculus on orbit sequences.

Everything here works on a finite window of a sequence.  Degree verdicts
are therefore window-relative: in float mode the library never claims
polynomiality for all n from finite data; in exact mode callers turn the
finite verdict into a certificate through the defect operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import (
    InternalCheckError,
    NotPolynomialError,
    PreconditionError,
    WindowTooShortError,
)
from .matrices import _int_form, _scalar, float_max_abs
from .polynomials import Polynomial, falling_factorial_poly
from .scalars import EXACT, FLOAT, Scalar

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
        modes = {v.mode for v in values}
        if len(modes) != 1:
            raise WindowTooShortError("orbit samples must share one mode")
        mode = modes.pop()
        for n, v in enumerate(values):
            if mode == FLOAT and not (math.isfinite(v.re) and math.isfinite(v.im)):
                raise PreconditionError(
                    f"orbit sample {n} is not finite: float overflow at step n={n}")
            if not v.is_real():
                raise ValueError("orbit samples must be real")
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


@dataclass(frozen=True)
class DifferenceTable:
    rows: tuple          # rows[k][n] = (Delta^k gamma)_n
    depth: int

    def row(self, k):
        return self.rows[k]


@dataclass(frozen=True)
class DegreeVerdict:
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
    """Iterated forward differences, cross-checked against the binomial sum.

    Both the subtraction recurrence and the alternating binomial-sum form
    are computed for every entry; a mismatch raises, since the two must
    agree identically (exactly in exact mode).  Both run on plain real
    numbers: in exact mode integers over the window's common denominator,
    in float mode the real parts of the samples.
    """
    if depth >= gamma.window_len:
        raise WindowTooShortError(
            f"depth {depth} too large for window of {gamma.window_len} samples"
        )
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
    _check_binomial_form(rows, scale)
    return DifferenceTable(rows=(gamma.values, *(tuple(map(to_scalar, r)) for r in rows[1:])),
                           depth=depth)


def _check_binomial_form(rows, scale):
    """rows[m][n] must equal sum_k (-1)^(m-k) C(m,k) rows[0][n+k].

    The entries are ints or floats; float entries may differ by a slack
    that grows with the largest binomial coefficient, and scale is 0.0 for
    ints, which are compared exactly."""
    vals = rows[0]
    for m, row in enumerate(rows):
        sign_m = 1 if m % 2 == 0 else -1
        coeffs = [sign_m * (-1) ** k * math.comb(m, k) for k in range(m + 1)]
        slack = 1e-12 * scale * math.comb(m, m // 2) * (m + 1)
        for n, entry in enumerate(row):
            acc = 0
            for k, c in enumerate(coeffs):
                acc = acc + c * vals[n + k]
            if not abs(acc - entry) <= slack:
                raise InternalCheckError(
                    f"difference table row {m} entry {n} disagrees with binomial form"
                )


def detect_degree(gamma, tol=DEFAULT_FLOAT_TOL):
    """Smallest d with Delta^(d+1) vanishing over the window.

    Returns the zero-sequence verdict when the samples themselves vanish,
    and NotPolynomialWithinWindow when no d <= window_len - 2 works.
    """
    if gamma.window_len < 3:
        raise WindowTooShortError("degree detection needs at least 3 samples")
    table = difference_table(gamma, gamma.window_len - 1)
    scale = tol * max(1.0, gamma.max_abs()) if gamma.mode == FLOAT else 0.0

    def row_is_zero(depth):
        # the binomial factor compensates the cancellation amplification
        # of depth-fold differencing
        thr = scale * math.comb(depth, depth // 2)
        return all(v.is_zero(thr) for v in table.row(depth))

    if row_is_zero(0):
        return DegreeVerdict(polynomial=True, degree=None, zero_sequence=True,
                             residual=float_max_abs(gamma.values, gamma.mode))
    for d in range(gamma.window_len - 1):
        if row_is_zero(d + 1):
            return DegreeVerdict(polynomial=True, degree=d,
                                 residual=float_max_abs(table.row(d + 1), gamma.mode))
    return DegreeVerdict(polynomial=False, degree=None,
                         residual=float_max_abs(table.row(gamma.window_len - 1),
                                                 gamma.mode))


def newton_reconstruct(gamma, tol=DEFAULT_FLOAT_TOL):
    """Newton interpolation: p(n) = sum_k (Delta^k gamma)_0 / k! * (n)_k.

    Requires a polynomial degree verdict; reproduces every sample in the
    window (exactly in exact mode) and has the detected degree.
    """
    verdict = detect_degree(gamma, tol)
    if not verdict.polynomial:
        raise NotPolynomialError(
            "sequence is not polynomial within its window; cannot reconstruct"
        )
    if verdict.zero_sequence:
        return Polynomial.zero(gamma.mode)
    d = verdict.degree
    table = difference_table(gamma, d)
    p = Polynomial.zero(gamma.mode)
    for k in range(d + 1):
        coeff = table.row(k)[0] / Scalar.from_int(math.factorial(k), gamma.mode)
        p = p + falling_factorial_poly(k, gamma.mode).scale(coeff)
    return p
