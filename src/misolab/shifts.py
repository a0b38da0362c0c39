"""Unilateral weighted shifts and their construction.

Exact mode stores squared weights (rationals) and never takes square
roots: every m-isometry test here, and every orbit inner product
<W^n f, W^n g>, uses only squared orbit norms, so no irrationals arise.
Applying the shift to a vector, a tuple of Scalars read as a finitely
supported sequence that is zero past its end, needs the weights of its
nonzero entries: it is available in float mode, or in exact mode when each
of those squared weights happens to be a rational square.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import NamedTuple

from .diffcalc import DEFAULT_FLOAT_TOL, OrbitSequence, default_window_len, detect_degree
from .errors import ModeMismatchError, PreconditionError
from .isometry import orbit_sequence
from .matrices import _check_vector, _over_lcm, _scalar, np
from .polynomials import Polynomial
from .scalars import EXACT, FLOAT, Scalar


class WeightedShiftOperator:
    """W e_n = lambda_n e_{n+1}, with |lambda_n|^2 = weights_sq[n] on the
    verified prefix n < prefix_len."""

    __slots__ = ("mode", "weights_sq")

    def __init__(self, weights_sq, mode):
        weights_sq = tuple(weights_sq)
        if len(weights_sq) < 2:
            raise PreconditionError("shift prefix must cover at least 2 weights")
        for w in weights_sq:  # one pass; an exact sign is its numerator's
            if not isinstance(w, Scalar):
                raise PreconditionError("squared weights must be Scalars")
            if w.mode != mode:
                raise ModeMismatchError(f"squared weights must be of mode {mode!r}")
            if w.im or (w.re.numerator if mode == EXACT else w.re) < 0:
                raise PreconditionError("squared weights must be real and nonnegative")
        self.mode = mode
        self.weights_sq = weights_sq

    @property
    def prefix_len(self):
        return len(self.weights_sq)

    def _prefix(self, j, count):
        """The squared weights j .. j + count - 1, all inside the prefix."""
        if j < 0:
            raise PreconditionError("weight index must be nonnegative")
        if j + count > self.prefix_len:
            raise PreconditionError(
                f"weight index {j + count - 1} beyond verified prefix {self.prefix_len}"
            )
        return self.weights_sq[j:j + count]

    def weight_sq(self, n):
        return self._prefix(n, 1)[0]

    def weight(self, n):
        """lambda_n with the positive-root sign convention."""
        w2 = self.weight_sq(n)
        if self.mode == FLOAT:
            return Scalar.flt(math.sqrt(w2.re))
        root = _rational_sqrt(w2.re)
        if root is None:
            raise PreconditionError(
                "exact shift weight is irrational; use squared norms instead"
            )
        return Scalar.exact(root)

    def _check_vec(self, v):
        _check_vector(v, self.mode)

    def apply(self, v):
        """W v, one entry longer than v; a zero entry reads no weight."""
        self._check_vec(v)
        return (Scalar.zero(self.mode),
                *(c if c.is_zero() else self.weight(i) * c for i, c in enumerate(v)))

    def orbit_norm_sq(self, j, n):
        """||W^n e_j||^2 as a telescoping product of squared weights."""
        return math.prod(self._prefix(j, n), start=Scalar.one(self.mode))

    def basis_orbit(self, j, window_len):
        """The window ||W^n e_j||^2, n < window_len, born in its kernel form:
        _norms_sq's floats as one float64 array, or its ints over their lcm."""
        norms = self._norms_sq(j, window_len)
        if self.mode == FLOAT:
            return OrbitSequence._of_form(FLOAT, 1, np.array(norms, dtype=float))
        return OrbitSequence._of_form(EXACT, *_over_lcm(norms, [])[:2])

    def _norms_sq(self, j, count):
        """||W^n e_j||^2 for n < count: running products of the squared
        weights, as floats, or as exact (num, den) int pairs in lowest terms,
        with no Fraction made."""
        weights = self._prefix(j, count - 1)
        if self.mode == FLOAT:
            return list(accumulate((w.re for w in weights), mul, initial=1.0))
        out = [(1, 1)]
        for w in weights:
            (num, den), (a, b) = out[-1], w.re.as_integer_ratio()
            g = math.gcd(num * a, den * b)
            out.append((num * a // g, den * b // g))
        return out

    def _orbit_inners(self, f, g, count):
        """<W^n f, W^n g> for n < count, from the squared weights: the W^n e_i
        have disjoint supports, so it is sum_i f_i conj(g_i) ||W^n e_i||^2
        over the indices i where both are nonzero, in order.  f and g get
        apply's checks."""
        self._check_vec(f)
        self._check_vec(g)
        terms = [(c * d.conj(), self._norms_sq(i, count)) for i, (c, d) in enumerate(zip(f, g))
                 if not (c.is_zero() or d.is_zero())]
        if self.mode == EXACT:
            terms = [(c, [_scalar(num, 0, den, EXACT) for num, den in w]) for c, w in terms]
        return [sum((c * w[n] for c, w in terms), Scalar.zero(self.mode))
                for n in range(count)]


def _rational_sqrt(q):
    q = Fraction(q)
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


class ShiftSpec(NamedTuple):
    generator: Polynomial
    prefix_len: int
    positivity_certified: bool   # True when the Newton-basis sufficient condition holds


def newton_coefficients_nonnegative(p):
    """Sufficient condition for p(n) > 0 on all nonnegative integers:
    p(0) > 0 and all iterated forward differences of p at 0 are >= 0."""
    if p.is_zero():
        return False
    vals = [p(n) for n in range(p.degree + 2)]
    if not (vals[0].is_real() and vals[0].re > 0):
        return False
    while len(vals) > 1:
        vals = [b - a for a, b in zip(vals, vals[1:])]
        if any((not v.is_real()) or v.re < 0 for v in vals):
            return False
    return True


def shift_from_polynomial(p, prefix_len=32):
    """Shift with squared weights p(n+1)/p(n) from a positive generator.

    Positivity of p is verified on the prefix; the Newton-coefficient
    sufficient condition, when it holds, certifies positivity for all n
    (recorded on the returned spec via build_shift_spec).
    """
    if not p.has_real_coeffs():
        raise PreconditionError("shift generator must have real coefficients")
    if p.is_zero():
        raise PreconditionError("shift generator must be nonzero")
    values = [p(n) for n in range(prefix_len + 2)]
    for n, val in enumerate(values):
        if not (val.is_real() and val.re > 0):
            raise PreconditionError(f"generator is not positive at n={n}")
    return WeightedShiftOperator((b / a for a, b in zip(values, values[1:])), p.mode)


def build_shift_spec(p, prefix_len=32):
    shift_from_polynomial(p, prefix_len)  # runs the positivity prefix check
    return ShiftSpec(
        generator=p,
        prefix_len=prefix_len,
        positivity_certified=newton_coefficients_nonnegative(p),
    )


def localization_shift(T, h, prefix_len=None):
    """The shift W_{T,h} with squared weights ||T^{n+1}h||^2 / ||T^n h||^2.

    A vanishing orbit norm signals non-injectivity and is rejected
    (m-isometries are injective)."""
    if prefix_len is None:
        prefix_len = default_window_len(T.dim) + 4
    norms = orbit_sequence(T, h, prefix_len + 1).values
    for n, ns in enumerate(norms):
        if ns.is_zero():
            if n == 0:
                raise PreconditionError("localization shift needs a nonzero vector")
            raise PreconditionError(
                f"orbit norm vanishes at n={n}; operator not injective on the orbit"
            )
    return WeightedShiftOperator((b / a for a, b in zip(norms, norms[1:])), T.mode)


def shift_is_m_isometry(W, m, tol=DEFAULT_FLOAT_TOL):
    """True iff Delta^m annihilates the orbit of e_j for j = 0, 1, 2.

    The orthogonal-basis reduction makes this equivalent to the definition
    restricted to vectors supported on 0..2.  m = 0 is allowed
    as the degenerate query (only the zero orbit passes it)."""
    if m < 0:
        raise PreconditionError("need m >= 0")
    window_len = min(2 * m + 6, W.prefix_len - 2)
    if window_len < m + 2:
        raise PreconditionError("shift prefix too short for the requested order")
    for j in range(3):
        gamma = W.basis_orbit(j, window_len)
        verdict = detect_degree(gamma, tol)
        if not verdict.polynomial:
            return False
        if not verdict.zero_sequence and verdict.degree > m - 1:
            return False
    return True
