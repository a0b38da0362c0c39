"""Polynomials with dual-mode complex coefficients.

The degree of the zero polynomial is a distinguished sentinel (None), not
-1, so nobody can silently do arithmetic with it.
"""

from __future__ import annotations

from .errors import ModeMismatchError
from .matrices import _parts, _scalar, _scalar_parts
from .scalars import EXACT, FLOAT, Scalar


class Polynomial:
    __slots__ = ("coeffs", "mode", "_parts_cache")

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
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.coeffs = tuple(coeffs)
        self.mode = mode
        self._parts_cache = None

    @staticmethod
    def zero(mode):
        return Polynomial([], mode=mode)

    @staticmethod
    def from_ints(ints, mode=EXACT):
        return Polynomial([Scalar.from_int(c, mode) for c in ints], mode=mode)

    @property
    def degree(self):
        """Degree, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, k):
        return self.coeffs[k] if k < len(self.coeffs) else Scalar.zero(self.mode)

    def __call__(self, x):
        """Evaluate at a Scalar (or int, coerced to this polynomial's mode) by
        Horner on the coefficients' kernel form (matrices._parts), taken once:
        on Gaussian integers, (re + i im) / (den e^k) the sum after k steps for
        x over e, or on complex, one value at a time, which rounds as the
        Scalar loop does."""
        if self._parts_cache is None:
            den, form = _parts(self.coeffs, self.mode)
            self._parts_cache = den, (form if self.mode == EXACT else form.tolist())
        den, form = self._parts_cache
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

    def __add__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) + other.coefficient(k) for k in range(n)],
            mode=self.mode,
        )

    def __sub__(self, other):
        self._check(other)
        n = max(len(self.coeffs), len(other.coeffs))
        return Polynomial(
            [self.coefficient(k) - other.coefficient(k) for k in range(n)],
            mode=self.mode,
        )

    def __mul__(self, other):
        self._check(other)
        if self.is_zero() or other.is_zero():
            return Polynomial.zero(self.mode)
        out = [Scalar.zero(self.mode)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Polynomial(out, mode=self.mode)

    def scale(self, c):
        return Polynomial([c * a for a in self.coeffs], mode=self.mode)

    def has_real_coeffs(self):
        return all(a.is_real() for a in self.coeffs)

    def _check(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError("polynomial mode mismatch")

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.mode == other.mode and self.coeffs == other.coeffs

    def __repr__(self):
        return f"Polynomial({list(self.coeffs)!r})"


def falling_factorial_poly(k, mode):
    """The polynomial x(x-1)...(x-k+1); the constant 1 for k = 0."""
    p = Polynomial([Scalar.one(mode)], mode=mode)
    x = Polynomial([Scalar.zero(mode), Scalar.one(mode)], mode=mode)
    for j in range(k):
        p = p * (x - Polynomial([Scalar.from_int(j, mode)], mode=mode))
    return p
