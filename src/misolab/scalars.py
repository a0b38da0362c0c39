"""Dual-mode complex scalars.

Exact mode stores a pair of arbitrary-precision rationals (Gaussian
rationals), so sums, products, conjugates and divisions carry no rounding
and zero tests are decidable.  Float mode stores a pair of 64-bit binary
floats.  Every zero decision downstream, in either mode, is negligible's:
exact values are tested == 0, float sizes against zero_threshold.  Mixing
the two modes in one expression raises, it is never a silent promotion.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import ModeMismatchError, PreconditionError, SpecFileError

EXACT = "exact"
FLOAT = "float"

_ZERO = Fraction(0)


def _frac(num, den=1):
    """Fraction(num, den), den nonzero; a zero num gives the shared (immutable) _ZERO."""
    if not num:
        return _ZERO
    return Fraction(num) if den == 1 else Fraction(num, den)


class Scalar:
    __slots__ = ("mode", "re", "im")

    def __init__(self, mode, re, im):
        self.mode = mode
        self.re = re
        self.im = im

    # -- construction -------------------------------------------------

    @staticmethod
    def exact(re, im=0):
        return Scalar(EXACT, _frac(re), _frac(im))

    @staticmethod
    def flt(re, im=0.0):
        return Scalar(FLOAT, float(re), float(im))

    @staticmethod
    def zero(mode):
        return Scalar.exact(0) if mode == EXACT else Scalar.flt(0.0)

    @staticmethod
    def one(mode):
        return Scalar.exact(1) if mode == EXACT else Scalar.flt(1.0)

    @staticmethod
    def i_unit(mode):
        return Scalar.exact(0, 1) if mode == EXACT else Scalar.flt(0.0, 1.0)

    @staticmethod
    def from_int(n, mode):
        return Scalar.exact(n) if mode == EXACT else Scalar.flt(float(n))

    # -- coercion helpers ---------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.mode != self.mode:
                raise ModeMismatchError(
                    f"cannot mix {self.mode} and {other.mode} scalars"
                )
            return other
        if isinstance(other, int) or (self.mode == EXACT and isinstance(other, Fraction)):
            return Scalar.from_int(other, self.mode) if isinstance(other, int) else Scalar.exact(other)
        if self.mode == FLOAT and isinstance(other, float):
            return Scalar.flt(other)
        return None

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.mode, self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.mode, self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Scalar(self.mode, o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.mode == EXACT:
            # (x + iy)/bd times (u + iv)/fh: one Gaussian-integer product, then
            # one Fraction per part
            (a, b), (c, d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
            (e, f), (g, h) = o.re.as_integer_ratio(), o.im.as_integer_ratio()
            x, y, u, v, den = a * d, c * b, e * h, g * f, b * d * f * h
            return Scalar(EXACT, _frac(x * u - y * v, den), _frac(x * v + y * u, den))
        return Scalar(FLOAT, self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.mode == EXACT:
            # (x + iy)/bd over (u + iv)/fh is (x + iy)(u - iv) fh / ((u^2 + v^2) bd):
            # one Gaussian-integer quotient, then one Fraction per part
            (a, b), (c, d) = self.re.as_integer_ratio(), self.im.as_integer_ratio()
            (e, f), (g, h) = o.re.as_integer_ratio(), o.im.as_integer_ratio()
            x, y, u, v = a * d, c * b, e * h, g * f
            k, den = f * h, (u * u + v * v) * b * d
            if den == 0:
                raise ZeroDivisionError("division by zero scalar")
            return Scalar(EXACT, _frac((x * u + y * v) * k, den),
                          _frac((y * u - x * v) * k, den))
        d = o.re * o.re + o.im * o.im
        if d == 0 or d == math.inf:
            s = max(abs(o.re), abs(o.im))
            if 0 < s < math.inf:
                # |o|^2 under- or overflowed: divide by o scaled to about 1 first
                return (Scalar(FLOAT, self.re / s, self.im / s)
                        / Scalar(FLOAT, o.re / s, o.im / s))
            if d == 0:
                raise ZeroDivisionError("division by zero scalar")
        return Scalar(FLOAT, (self.re * o.re + self.im * o.im) / d,
                      (self.im * o.re - self.re * o.im) / d)

    def __neg__(self):
        return Scalar(self.mode, -self.re, -self.im)

    def conj(self):
        return Scalar(self.mode, self.re, -self.im)

    def abs2(self):
        """|z|^2 as a real scalar of the same mode."""
        return Scalar(self.mode, self.re * self.re + self.im * self.im,
                      self.re * 0 if self.mode == EXACT else 0.0)

    def modulus(self):
        """|z| as a Python float (for diagnostics and float-mode tests)."""
        return math.hypot(float(self.re), float(self.im))

    # -- predicates ---------------------------------------------------

    def is_zero(self):
        """Exactly zero, in either mode; a tolerance is negligible's."""
        return self.re == 0 and self.im == 0

    def is_real(self):
        return self.im == 0

    def as_complex(self):
        return complex(float(self.re), float(self.im))

    # -- comparisons, hashing, display --------------------------------

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            o = self._coerce(other) if isinstance(other, (int, float, Fraction)) else None
            if o is None:
                return NotImplemented
            other = o
        return (self.mode == other.mode and self.re == other.re
                and self.im == other.im)

    def __hash__(self):
        return hash((self.mode, self.re, self.im))

    def __repr__(self):
        return f"Scalar({self.mode}, {self.re!r}, {self.im!r})"


def same_mode(*scalars):
    """Return the common mode of the given scalars, raising on a mix."""
    modes = {s.mode for s in scalars}
    if len(modes) != 1:
        raise ModeMismatchError(f"mixed scalar modes: {sorted(modes)}")
    return modes.pop()


def zero_threshold(mode, tol, magnitude, what):
    """0 in exact mode, which decides zeros exactly and never calls magnitude;
    in float mode tol * magnitude(), the size of the terms whose sum is tested.
    A threshold beyond float range would call every value zero: it raises."""
    if mode == EXACT:
        return 0
    try:
        thr = tol * magnitude()
    except OverflowError:
        thr = math.inf
    if not math.isfinite(thr):
        raise PreconditionError(f"float overflow: the zero threshold of {what} "
                                "leaves float range")
    return thr


def negligible(value, mode, tol, magnitude, what):
    """Whether value, a size (int, Fraction, float), Scalar or operator, is
    zero: the one zero decision of every test.  Exact mode tests a size == 0
    and the rest by is_zero(), making no float and never calling magnitude.
    Float mode tests size <= zero_threshold(FLOAT, tol, magnitude, what), the
    size of a Scalar its modulus() and of an operator its max_abs(); a nan
    is never zero."""
    if mode == EXACT:
        return value == 0 if isinstance(value, (int, Fraction)) else value.is_zero()
    thr = zero_threshold(FLOAT, tol, magnitude, what)
    if not isinstance(value, (int, float)):
        value = value.modulus() if isinstance(value, Scalar) else value.max_abs()
    return bool(value <= thr)


def format_rational(s):
    """Render an exact Scalar in the spec-file grammar."""
    if s.mode != EXACT:
        raise SpecFileError("format_rational requires an exact scalar")
    out = _frac_str(s.re)
    if s.im != 0:
        sign = "+" if s.im > 0 else "-"
        out += f"{sign}{_frac_str(abs(s.im))}i"
    return out


def _frac_str(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"
