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
from functools import cache, lru_cache
from itertools import zip_longest
from operator import mul
from typing import NamedTuple, Optional

from .errors import (
    InternalCheckError,
    NotPolynomialError,
    PreconditionError,
    WindowTooShortError,
)
from .matrices import _int_form, _scalar, np
from .polynomials import Polynomial, _trimmed
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
    """A finite window of real samples gamma_0 .. gamma_N, held in its kernel
    form (den, reals) from construction: a float64 array over 1 in float
    mode, ints over the lcm of the samples' denominators in exact mode.  A
    window walked on the kernel form (_of_form) boxes its Scalars on the
    first read of values, as DenseOperator.rows does."""

    __slots__ = ("mode", "_values", "_form")

    def __init__(self, values):
        values = tuple(values)
        if len(values) < 2:
            raise WindowTooShortError("orbit window must hold at least 2 samples")
        mode = same_mode(*values)
        for n, v in enumerate(values):
            if mode == FLOAT and not (math.isfinite(v.re) and math.isfinite(v.im)):
                _not_finite(n)
            if not v.is_real():
                raise PreconditionError("orbit samples must be real")
        self.mode, self._values = mode, values
        self._form = (_int_form(values)[:2] if mode == EXACT else
                      (1, np.array([v.re for v in values], dtype=float)))

    @staticmethod
    def _of_form(mode, den, reals):
        """The window of its kernel form, with no Scalar made: a float64
        array over 1, checked finite, or ints over a common den."""
        if len(reals) < 2:
            raise WindowTooShortError("orbit window must hold at least 2 samples")
        if mode == FLOAT:
            finite = np.isfinite(reals)
            if not finite.all():
                _not_finite(int(finite.argmin()))
        gamma = object.__new__(OrbitSequence)
        gamma.mode, gamma._values, gamma._form = mode, None, (den, reals)
        return gamma

    @property
    def values(self):
        if self._values is None:
            den, reals = self._form
            self._values = (tuple(Scalar(FLOAT, x, 0.0) for x in reals.tolist())
                            if self.mode == FLOAT else
                            tuple(_scalar(x, 0, den, EXACT) for x in reals))
        return self._values

    @property
    def window_len(self):
        return len(self._form[1])

    def max_abs(self):
        """The largest |sample|; inf for an exact sample past float range."""
        den, reals = self._form
        if self.mode == FLOAT:
            return float(np.abs(reals).max())
        try:
            return max(map(abs, reals)) / den
        except OverflowError:
            return math.inf


def _not_finite(n):
    raise PreconditionError(f"orbit sample {n} is not finite: float overflow at step n={n}")


class DifferenceTable:
    """Iterated forward differences (Delta^k gamma)_n of a window, k <= depth.

    Rows are made in blocks, from the last row made: rows 1 .. 7, then 8 ..
    15, 16 .. 31 and so on, each block from the second on as long as all
    the rows before it, up to depth, when a caller first reads one of its
    rows.  So a table holds at most about twice the rows read, never depth
    rows up front.  Each row is cross-checked against the alternating
    binomial-sum form when it is first read, the rows not yet checked in
    one _check_binomial_form call.  Rows are plain real numbers: in exact
    mode lists of integers over the window's common denominator; in float
    mode each block is one float64 array W - 1 wide, row k of it zero past
    its W - k entries, and each difference is the IEEE b - a of Python
    floats.
    """

    def __init__(self, gamma, depth):
        if depth >= gamma.window_len:
            raise WindowTooShortError(
                f"depth {depth} too large for window of {gamma.window_len} samples"
            )
        self._gamma, self.depth = gamma, depth
        self._den, self._window = gamma._form
        # (first row, rows) per block; row 0 is the window, and it is not checked
        self._blocks = [(0, [self._window] if gamma.mode == EXACT else self._window[None])]
        self._checked = 0
        # the binomial check's slack scale; 0.0 for ints, which compare exactly
        self._scale = max(1.0, gamma.max_abs()) if gamma.mode == FLOAT else 0.0

    def row(self, k):
        """Row k as Scalars; row 0 is the window itself."""
        if not 0 <= k <= self.depth:
            raise IndexError(f"difference row {k} outside 0..{self.depth}")
        if k == 0:
            return self._gamma.values
        self._check_to(k)
        (row,) = self._rows(k, k)
        if self._gamma.mode == FLOAT:
            return tuple(Scalar(FLOAT, x, 0.0) for x in row[:self._gamma.window_len - k].tolist())
        return tuple(_scalar(x, 0, self._den, EXACT) for x in row)

    def _walk(self):
        """The blocks in order, each made when the walk reaches it."""
        j = 0
        while j < len(self._blocks) or self._grow():
            yield self._blocks[j]
            j += 1

    def _grow(self):
        """Make the next block from the last row made; False past depth.  A
        float block is made under np.errstate: its rows overflow to inf and
        nan as Python floats do, with no RuntimeWarning."""
        first, rows = self._blocks[-1]
        made = first + len(rows)
        if made > self.depth:
            return False
        end, width = min(max(2 * made, 8), self.depth + 1), self._gamma.window_len - made
        if self._gamma.mode == EXACT:
            block, prev = [], rows[-1]
            for _ in range(made, end):
                prev = [b - a for a, b in zip(prev, prev[1:])]
                block.append(prev)
        else:
            block, prev = np.zeros((end - made, self._gamma.window_len - 1)), rows[-1, :width + 1]
            with np.errstate(all="ignore"):
                for out in block:
                    prev = np.subtract(prev[1:], prev[:-1], out[:width])
                    width -= 1
        self._blocks.append((made, block))
        return True

    def _rows(self, lo, hi):
        """Rows lo .. hi, 1 <= lo <= hi, made as needed: one float array W - 1
        wide, or a list of int lists."""
        while self._blocks[-1][0] + len(self._blocks[-1][1]) <= hi:
            self._grow()
        parts = [rows[max(lo - first, 0):hi - first + 1] for first, rows in self._blocks[1:]
                 if first <= hi and lo < first + len(rows)]
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts) if self._gamma.mode == FLOAT else sum(parts, [])

    def _check_to(self, k):
        """Cross-check rows 1 .. k, those not checked yet, in one call."""
        if k > self._checked:
            _check_binomial_form(self._window, self._checked + 1,
                                 self._rows(self._checked + 1, k), self._scale)
            self._checked = k


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


@lru_cache(maxsize=128)
def _binomial_coeffs(m):
    """(-1)^(m-k) C(m, k) for k = 0..m, a tuple of ints; the 128 rows asked
    for last are kept, so a long window does not keep every row it read."""
    return tuple((-1) ** (m - k) * math.comb(m, k) for k in range(m + 1))


@cache
def _signed_binomials(k):
    """The (k + 1) x (k + 1) float array whose row m is _binomial_coeffs(m),
    zero past column m, each entry rounded once; a row beyond float range
    is inf.  Checks ask only for k = 2^j - 1, and a slack is within float
    range only for m below about 1030, so the arrays kept take at most
    about 45 MB, and that only after a check of row 1024 or later; below
    row 64 they take 44 KB."""
    out = np.zeros((k + 1, k + 1))
    for m in range(k + 1):
        try:
            out[m, :m + 1] = _binomial_coeffs(m)
        except OverflowError:
            out[m:] = math.inf
            break
    return out


def _check_binomial_form(vals, first, rows, scale):
    """rows[i][n] = (Delta^m vals)_n, m = first + i and n < len(vals) - m,
    must equal sum_k (-1)^(m-k) C(m,k) vals[n+k].

    The entries are ints or floats; float entries may differ by a slack
    that grows with the largest binomial coefficient, and scale is 0.0 for
    ints, which are compared exactly; a float scale is at least max
    |vals|.  Float rows are the rows of a 2-D array at least len(vals) -
    first wide, read only to each row's length, and their sums are one
    product of _signed_binomials' rows with the window's Hankel view, in
    whatever order BLAS adds: each is within gamma_(m+2) sum_k |c_k
    vals[n+k]| <= gamma_(m+2) 2^m scale of the exact sum, far inside the
    slack.  Where 2^m scale nears float range, so that the order of adding
    decides an overflow, each row's sums are one np.correlate, a row at a
    time, as the row-by-row walk made them.  Rows are checked in order, the
    slack of each before its sums: the first that fails raises.  A float
    entry or binomial sum beyond float range makes the two disagree; that
    is an overflow, not a failed check, and raises PreconditionError."""
    if not scale:
        for m, row in enumerate(rows, first):
            coeffs = _binomial_coeffs(m)
            sums = [sum(map(mul, coeffs, vals[n:n + m + 1])) for n in range(len(row))]
            if sums != row:
                bad = next(n for n, (acc, entry) in enumerate(zip(sums, row)) if acc != entry)
                raise InternalCheckError(
                    f"difference table row {m} entry {bad} disagrees with binomial form")
        return
    slacks, late = [], None
    try:
        for m in range(first, first + len(rows)):
            what = f"the binomial check of difference row {m}"
            slack = zero_threshold(FLOAT, 1e-12 * scale, lambda: math.comb(m, m // 2), what)
            slacks.append(zero_threshold(FLOAT, slack, lambda: m + 1, what))
    except PreconditionError as exc:
        late = exc
    if slacks:
        last, width = first + len(slacks) - 1, len(vals) - first
        rows = np.asarray(rows, dtype=float)[:len(slacks), :width]
        coeffs = _signed_binomials((1 << last.bit_length()) - 1)[first:last + 1, :last + 1]
        padded = np.concatenate((vals, np.zeros(last - first)))
        with np.errstate(all="ignore"):
            if math.frexp(scale)[1] + last < 1022:
                # every |partial sum| is below 2^last max|vals| < 2^1021, so no
                # order of adding, fused or not, leaves float range;
                # hankel[k, n] = vals[n + k]
                sums = coeffs @ np.ndarray((last + 1, width), float, padded, 0,
                                           padded.strides * 2)
            else:
                sums = np.zeros(rows.shape)
                for i, row in enumerate(coeffs):
                    sums[i, :width - i] = np.correlate(padded[:len(vals)], row[:first + i + 1])
            gaps = abs(sums - rows)
        # row i holds i entries fewer than row 0, and what lies past its end
        # is not read; a nan gap is never within the slack
        gaps[np.arange(len(rows))[:, None] + np.arange(width) >= width] = 0.0
        ok = gaps <= np.array(slacks)[:, None]
        if not ok.all():
            i, n = divmod(int(ok.argmin()), width)
            m = first + i
            if not (math.isfinite(sums[i, n]) and math.isfinite(rows[i, n])):
                raise PreconditionError(f"float overflow: difference row {m} or the binomial "
                                        f"check of difference row {m} leaves float range")
            raise InternalCheckError(
                f"difference table row {m} entry {n} disagrees with binomial form")
    if late is not None:
        raise late


def detect_degree(gamma, tol=DEFAULT_FLOAT_TOL):
    """Smallest d with Delta^(d+1) vanishing over the window.

    Returns the zero-sequence verdict when the samples themselves vanish,
    and NotPolynomialWithinWindow when no d <= window_len - 2 works.
    """
    return _detect_degree(gamma, tol)[0]


def _detect_degree(gamma, tol):
    """detect_degree's verdict and its table, made up to the block of the
    first vanishing row.  Each block's row sizes are read at once and the
    zero tests run row by row; then the rows up to the first vanishing one
    (or the one whose threshold left float range) are cross-checked in one
    call, before the verdict or that error, so the errors come in the order
    of a row-by-row walk."""
    if gamma.window_len < 3:
        raise WindowTooShortError("degree detection needs at least 3 samples")
    table = difference_table(gamma, gamma.window_len - 1)
    # the window scale is the binomial check's, max(1, max |sample|)
    scale = zero_threshold(gamma.mode, tol, lambda: table._scale, "the window")
    for first, rows in table._walk():
        # |x| is the modulus of a real entry, math.hypot(x, 0.0); ints are
        # compared with 0, no float made
        if gamma.mode == FLOAT:
            sizes = np.abs(rows).max(axis=1).tolist()
        else:
            sizes = [max(map(abs, row)) for row in rows]
        late, found = None, False
        try:
            # the binomial factor compensates the cancellation amplification of
            # k-fold differencing
            for k, largest in enumerate(sizes, first):
                if negligible(largest, gamma.mode, scale, lambda: math.comb(k, k // 2),
                              f"difference row {k}"):
                    found = True
                    break
        except PreconditionError as exc:
            late = exc
        if found or late is not None:
            break
    table._check_to(k)
    if late is not None:
        raise late
    residual = largest if gamma.mode == FLOAT else 0.0
    if found:
        return DegreeVerdict(polynomial=True, degree=k - 1 if k else None,
                             zero_sequence=k == 0, residual=residual), table
    return DegreeVerdict(polynomial=False, degree=None, residual=residual), table


def newton_reconstruct(gamma, tol=DEFAULT_FLOAT_TOL):
    """Newton interpolation: p(n) = sum_k (Delta^k gamma)_0 / k! * (n)_k.

    Requires a polynomial degree verdict; reproduces every sample in the
    window (exactly in exact mode) and has the detected degree.  The sum is
    made on coefficient lists, with (n)_(k+1) = (n)_k (n - k): each
    coefficient is the Scalar products and sums of schoolbook polynomial
    arithmetic in their order, trailing zeros dropped after each term and
    sum, so float coefficients keep the bits of that arithmetic.  One
    Polynomial is made, the result.
    """
    verdict, table = _detect_degree(gamma, tol)
    if not verdict.polynomial:
        raise NotPolynomialError(
            "sequence is not polynomial within its window; cannot reconstruct"
        )
    mode = gamma.mode
    zero, one = Scalar.zero(mode), Scalar.one(mode)
    last = -1 if verdict.zero_sequence else verdict.degree
    total, falling = [], [one]
    for k in range(last + 1):
        coeff = table.row(k)[0] / Scalar.from_int(math.factorial(k), mode)
        term = _trimmed([coeff * a for a in falling])
        total = _trimmed([a + b for a, b in zip_longest(total, term, fillvalue=zero)])
        if k < last:
            # (n)_k (n - k); its last coefficient is 0 + 1 * 1, never trimmed
            out, minus_k = [zero] * (len(falling) + 1), Scalar.from_int(-k, mode)
            for j, f in enumerate(falling):
                out[j] = out[j] + f * minus_k
                out[j + 1] = out[j + 1] + f * one
            falling = out
    return Polynomial(total, mode=mode)
