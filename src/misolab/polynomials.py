"""Polynomials with dual-mode complex coefficients.

The degree of the zero polynomial is a distinguished sentinel (None), not
-1, so nobody can silently do arithmetic with it.
"""

from __future__ import annotations

from .errors import ModeMismatchError
from .matrices import _parts, _scalar, _scalar_parts
from .scalars import EXACT, FLOAT, Scalar


class Polynomial:
    __slots__ = ("coeffs", "mode", "_form")

    def __init__(self, coeffs, mode=None):
        coeffs = list(coeffs)
        for c in coeffs:
            if mode is None:
                mode = c.mode
            elif c.mode != mode:
                raise ModeMismatchError("polynomial coefficient mode mismatch")
        if mode is None:
            raise ValueError("cannot infer mode of the zero polynomial; pass mode=")
        # canonical form: trailing coefficient nonzero (exact zeros stripped;
        # float coefficients are kept as given unless exactly 0.0)
        self.coeffs = tuple(_trimmed(coeffs))
        self.mode = mode
        # the kernel form (matrices._parts), taken once, at construction
        den, form = _parts(self.coeffs, mode)
        self._form = den, (form if mode == EXACT else form.tolist())

    @staticmethod
    def from_ints(ints, mode=EXACT):
        return Polynomial([Scalar.from_int(c, mode) for c in ints], mode=mode)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def __call__(self, x):
        """Evaluate at a Scalar (or int, coerced to this polynomial's mode) by
        Horner on the coefficients' kernel form: on Gaussian integers,
        (re + i im) / (den e^k) the sum after k steps for x over e, or on
        complex, one value at a time, which rounds as the Scalar loop does."""
        den, form = self._form
        e, (p, q) = _scalar_parts(x, self.mode)
        if self.mode == FLOAT:
            acc, w = 0j, complex(p, q)
            for c in reversed(form):
                acc = acc * w + c
            return Scalar(FLOAT, acc.real, acc.imag)
        re, im, ek = 0, 0, 1
        for a, b in zip(reversed(form[0]), reversed(form[1])):
            ek *= e
            re, im = re * p - im * q + a * ek, re * q + im * p + b * ek
        return _scalar(re, im, den * ek, EXACT)

    def has_real_coeffs(self):
        return all(a.is_real() for a in self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def _trimmed(coeffs):
    """The list coeffs, its trailing zero coefficients popped."""
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs
