"""Dense square operators and vectors, tuples of dual-mode scalars."""

from __future__ import annotations

import importlib.util
import math
import sys
from fractions import Fraction
from functools import cache, partialmethod, reduce
from itertools import chain, islice
from operator import add, mul, sub

from .errors import DimensionMismatchError, ModeMismatchError, PreconditionError
from .scalars import EXACT, FLOAT, Scalar, _frac, same_mode


def _lazy_numpy():
    """numpy, or a module that imports numpy on its first attribute read:
    only float code reads one, so a process that runs exact code alone never
    pays numpy's import.  An imported numpy is used as it is; a missing one
    fails here, as `import numpy` would."""
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


# every module takes numpy from here, so that none imports it at start-up
np = _lazy_numpy()


class DenseOperator:
    """Immutable square matrix with all entries in one arithmetic mode."""

    __slots__ = ("dim", "mode", "_rows", "_form", "_max_abs")

    def __init__(self, rows):
        rows = _square(tuple(tuple(r) for r in rows))
        dim = len(rows)
        modes = {s.mode for r in rows for s in r}
        if len(modes) != 1:
            raise ModeMismatchError("all matrix entries must share one mode")
        self._rows = rows
        self.dim = dim
        self.mode = mode = modes.pop()
        self._max_abs = None
        # the kernel form (den, form), taken apart once: exact rows are (re,
        # im) pairs of int lists; float parts are one dim x dim complex array
        den, form = _parts([s for r in rows for s in r], mode)
        self._form = den, (_rows_of(*form, dim) if mode == EXACT else form.reshape(dim, dim))

    @staticmethod
    def _from_parts(mode, den, form):
        """The operator of the kernel form (den, form), den any common one;
        it boxes its rows on first read.  Kernels (@, +, -, adjoint, scale) make these."""
        op = object.__new__(DenseOperator)
        op.dim = len(form)
        op.mode, op._rows, op._form, op._max_abs = mode, None, (den, form), None
        return op

    @property
    def rows(self):
        if self._rows is None:
            (den, form), mode = self._form, self.mode
            if mode == FLOAT:
                rows = map(_fbox, form.tolist())
            else:
                rows = ((_scalar(*z, den, mode) for z in zip(*r)) for r in form)
            self._rows = tuple(map(tuple, rows))
        return self._rows

    # -- constructors -------------------------------------------------

    # the constructors make the kernel form (_from_parts), no Scalar

    @staticmethod
    def identity(dim, mode):
        return DenseOperator.from_ints([[int(i == j) for j in range(dim)] for i in range(dim)],
                                       mode)

    @staticmethod
    def zeros(dim, mode):
        return DenseOperator.from_ints([[0] * dim] * dim, mode)

    @staticmethod
    def from_ints(rows, mode=EXACT):
        rows = _square([list(r) for r in rows])
        if mode == EXACT:
            return DenseOperator._from_parts(EXACT, 1, [(r, [0] * len(r)) for r in rows])
        return DenseOperator._from_parts(FLOAT, 1, np.array(rows, dtype=float).astype(complex))

    # -- algebra ------------------------------------------------------

    def _check(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError("operator mode mismatch")
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimension mismatch")

    def __matmul__(self, other):
        self._check(other)
        (da, a_rows), (db, b_rows) = self._form, other._form
        if self.mode == FLOAT:
            with np.errstate(all="ignore"):
                return DenseOperator._from_parts(FLOAT, 1, a_rows @ b_rows)
        return DenseOperator._from_parts(EXACT, *_reduced(
            _scatter(a_rows, _nonzeros(b_rows)), da * db))

    def _combine(self, other, op):
        """self op other on the parts, op being add or sub."""
        self._check(other)
        (da, a_rows), (db, b_rows) = self._form, other._form
        if self.mode == FLOAT:
            with np.errstate(all="ignore"):
                return DenseOperator._from_parts(FLOAT, 1, op(a_rows, b_rows))
        den = math.lcm(da, db)
        ka, kb = den // da, den // db
        return DenseOperator._from_parts(EXACT, *_reduced(
            [tuple([op(x * ka, u * kb) for x, u in zip(pa, pb)] for pa, pb in zip(a, b))
             for a, b in zip(a_rows, b_rows)], den))

    __add__ = partialmethod(_combine, op=add)
    __sub__ = partialmethod(_combine, op=sub)

    def __neg__(self):
        den, rows = self._form
        if self.mode == FLOAT:
            return DenseOperator._from_parts(FLOAT, 1, -rows)
        return DenseOperator._from_parts(EXACT, den, [([-x for x in re], [-y for y in im])
                                                      for re, im in rows])

    def scale(self, c):
        """c times the operator, c as Scalar arithmetic takes it; in float
        mode each entry is c * z, the Scalar product, bit for bit."""
        mode = self.mode
        den, rows = self._form
        dc, (p, q) = _scalar_parts(c, mode)
        if mode == FLOAT:
            x, y = rows.real, rows.imag
            with np.errstate(all="ignore"):
                return DenseOperator._from_parts(FLOAT, 1, _complex(x * p - y * q, x * q + y * p))
        return DenseOperator._from_parts(EXACT, *_reduced(
            [([x * p - y * q for x, y in zip(*r)], [x * q + y * p for x, y in zip(*r)])
             for r in rows], den * dc))

    def adjoint(self):
        """Conjugate transpose."""
        den, rows = self._form
        if self.mode == FLOAT:
            return DenseOperator._from_parts(FLOAT, 1, rows.T.conj())
        return DenseOperator._from_parts(EXACT, den, [_conj(c) for c in _columns(rows)])

    def power(self, k):
        if k < 0:
            raise ValueError("negative operator power")
        out = self if k else DenseOperator.identity(self.dim, self.mode)
        for _ in range(k - 1):
            out = out @ self
        return out

    def apply(self, vec):
        self._check_vec(vec)
        mode = self.mode
        da, a_rows = self._form
        dv, v = _parts(vec, mode)
        if mode == FLOAT:
            with np.errstate(all="ignore"):
                return tuple(_fbox((a_rows @ v).tolist()))
        (re, im), = _scatter([v], _nonzeros(_columns(a_rows)))
        return tuple(_scalar(*z, da * dv, EXACT) for z in zip(re, im))

    def _check_vec(self, vec):
        _check_vector(vec, self.mode, self.dim)

    def _orbit_inners(self, u, v, count):
        """<T^k u, T^k v> for k < count, from _orbit_windows' walk, with its
        checks; a weighted shift answers the same call."""
        return _orbit_windows(self, [(u, v)], count)[0]

    # -- queries ------------------------------------------------------

    def max_abs(self):
        """The largest entry modulus, nan if any is and inf for an exact
        entry past float range: one reduction, made on first use and kept (a
        kept float form is made read-only)."""
        if self._max_abs is None:
            den, rows = self._form
            if self.mode == EXACT:
                # int / int is float(Fraction), whatever den is
                try:
                    self._max_abs = max(math.hypot(x / den, y / den)
                                        for re, im in rows for x, y in zip(re, im))
                except OverflowError:
                    self._max_abs = math.inf
            else:
                # np.max keeps a nan wherever it sits
                self._max_abs = float(np.abs(rows).max())
                rows.flags.writeable = False
        return self._max_abs

    def is_zero(self):
        """Exactly zero, in either mode; a tolerance is scalars.negligible's."""
        rows = self._form[1]
        if self.mode == EXACT:
            return not any(any(part) for r in rows for part in r)
        return not rows.any()

    def __eq__(self, other):
        if not isinstance(other, DenseOperator):
            return NotImplemented
        return self.mode == other.mode and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"DenseOperator(dim={self.dim}, mode={self.mode})"


# ---------------------------------------------------------------------------
# Kernels, one per operation for both modes.  They run on the kernel form of
# the scalars (_parts); operator results keep it (rows box on first read),
# apply and vec_inner box each entry, _orbit_windows boxes _orbit_samples'
# samples, orbit-norm windows keep theirs (_orbit_norms), and the form
# readers (_polarization_values, _forms) box nothing.
# Exact mode runs on Gaussian integers over one common denominator, so its
# results are the canonical fractions the Scalar loops give; its products (@,
# apply, orbit steps) add only nonzero terms (_scatter), the defect walk reads
# only beta's nonzeros (_sparse_scatter), and _forms only the terms on the
# vectors' supports, as integer sums do not depend on order.
# Float mode runs on complex128 arrays with plain numpy
# operations: +, - and negation are the Scalar loop's bits, and so is scale,
# made from real products as the Scalar product makes them; products and
# inner products (@, np.vdot, sums) add in whatever order numpy or BLAS
# picks, fused multiply-adds included, so each sum of n products is within
# gamma_(n+2) sum |x_k y_k| of the exact one, gamma_n = n u / (1 - n u) for
# u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, 3.1
# and 3.6), and its last bits may differ across numpy and BLAS builds.
# Moduli are np.abs.  The float kernels run under np.errstate(all="ignore"):
# inf and nan come out as from Python floats, with no RuntimeWarning.
# An operator keeps its max_abs, so a float defect step reduces |beta| once
# for its scale, finiteness check, zero test and residual alike; no kernel
# writes a form in place, and a float form with a kept max_abs is read-only.
# ---------------------------------------------------------------------------

def _int_form(scalars):
    """(den, re_nums, im_nums) with scalars[k] = (re_nums[k] + i im_nums[k]) / den,
    den the lcm of the denominators of all real and imaginary parts."""
    return _over_lcm([s.re.as_integer_ratio() for s in scalars],
                     [s.im.as_integer_ratio() for s in scalars])


def _over_lcm(re, im):
    """_int_form of the numbers re[k] + i im[k], given as (num, den) pairs in
    lowest terms."""
    den = math.lcm(*{d for _, d in re}, *{d for _, d in im})
    return den, [n * (den // d) for n, d in re], [n * (den // d) for n, d in im]


def _rows_of(re, im, n):
    """The exact rows, (re, im) int list pairs, of n x n parts in row-major order."""
    return [(re[i * n:(i + 1) * n], im[i * n:(i + 1) * n]) for i in range(n)]


def _entry_operator(parts, n, mode):
    """The n x n operator of its entries' parts in row-major order, made in
    the kernel form: in exact mode ((a, b), (c, d)) for a/b + i c/d, each
    fraction in lowest terms, in float mode (re, im) floats, bit for bit."""
    if mode == EXACT:
        den, re, im = _over_lcm([z[0] for z in parts], [z[1] for z in parts])
        return DenseOperator._from_parts(EXACT, den, _rows_of(re, im, n))
    return DenseOperator._from_parts(
        FLOAT, 1, np.array(parts, dtype=float).view(complex).reshape(n, n))


def _square(rows):
    """rows, checked to be a nonempty square grid."""
    if not len(rows) or any(len(r) != len(rows) for r in rows):
        raise DimensionMismatchError("operator matrix must be square and nonempty")
    return rows


def _parts(scalars, mode):
    """(den, form) of scalars of the given mode: in exact mode the (re, im)
    int lists of _int_form over its den, in float mode the complex128 array
    of the scalars, over 1.  The mode is never inferred, since
    float.as_integer_ratio would turn a float list exact without a word."""
    if mode == EXACT:
        den, re, im = _int_form(scalars)
        return den, (re, im)
    return 1, np.array([complex(s.re, s.im) for s in scalars], dtype=complex)


def _scalar_parts(c, mode):
    """(den, (re, im)) of the one scalar c: ints over den in exact mode,
    floats over 1 in float mode.  c is a Scalar of the mode, or an int (a
    Fraction in exact mode, a float in float mode) taken as Scalar
    arithmetic takes it, but without making a Scalar of it."""
    if isinstance(c, Scalar):
        if c.mode != mode:
            raise ModeMismatchError(f"cannot mix {mode} and {c.mode} scalars")
        if mode == FLOAT:
            return 1, (c.re, c.im)
        den, (re,), (im,) = _int_form([c])
        return den, (re, im)
    if mode == EXACT and isinstance(c, (int, Fraction)):
        num, den = c.as_integer_ratio()
        return den, (num, 0)
    if mode == FLOAT and isinstance(c, (int, float)):
        return 1, (float(c), 0.0)
    raise TypeError(f"not a {mode} scalar: {c!r}")


def _scalar(re, im, den, mode):
    """The Scalar (re + i im) / den; den is 1 in float mode."""
    if mode == EXACT:
        return Scalar(EXACT, _frac(re, den), _frac(im, den))
    return Scalar(FLOAT, re, im)


def _fbox(values):
    """The Scalars of a list of Python complex, float kernel values."""
    return [_scalar(z.real, z.imag, 1, FLOAT) for z in values]


def _complex(re, im):
    """The complex128 array re + i im, made without a complex product, which
    would turn an inf part times 0 into nan."""
    out = np.empty(np.shape(re), dtype=complex)
    out.real, out.imag = re, im
    return out


def _norms_sq(w, axis):
    """sum_k |w_k|^2 along axis of a complex array, as a float array: <w, w>,
    which orbit windows need real."""
    return (np.square(w.real) + np.square(w.imag)).sum(axis)


def _dot(a, b):
    """sum_k a_k b_k for two exact _parts forms, one Gaussian-integer term at
    a time, as an (re, im) pair of ints."""
    (a_re, a_im), (b_re, b_im) = a, b
    return (reduce(add, map(sub, map(mul, a_re, b_re), map(mul, a_im, b_im))),
            reduce(add, map(add, map(mul, a_re, b_im), map(mul, a_im, b_re))))


def _columns(rows):
    """The columns of exact _parts rows, in the same form."""
    return list(zip(zip(*(re for re, _ in rows)), zip(*(im for _, im in rows))))


def _nonzeros(rows):
    """The nonzero entries of each exact _parts row, as (j, re, im) triples."""
    return [[(j, x, y) for j, (x, y) in enumerate(zip(*r)) if x or y] for r in rows]


def _scatter(a_rows, b_nonzeros):
    """The exact (re, im) rows of a b, b square, by Gustavson's row scatter: each nonzero
    a_ik of the rows of a times the _nonzeros of row k of b is added into row i."""
    out, n = [], len(b_nonzeros)
    for a_re, a_im in a_rows:
        re, im = [0] * n, [0] * n
        for x, y, row in zip(a_re, a_im, b_nonzeros):
            if x or y:
                for j, u, v in row:
                    re[j] += x * u - y * v
                    im[j] += x * v + y * u
        out.append((re, im))
    return out


def _reduced(rows, den):
    """(den, form) of exact (re, im) rows over den, divided by one gcd of den and all parts."""
    if den == 1:
        return den, rows
    g = math.gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
    if g > 1:
        den, rows = den // g, [([x // g for x in re], [y // g for y in im]) for re, im in rows]
    return den, rows


def _int_combination(ops, coeffs):
    """sum_k coeffs[k] ops[k] of exact operators and int coefficients, made
    in one pass over the ops' parts over the lcm of their dens, reduced once."""
    parts = [op._form for op in ops]
    den = math.lcm(*(d for d, _ in parts))
    ks = [c * (den // d) for c, (d, _) in zip(coeffs, parts)]
    return DenseOperator._from_parts(EXACT, *_reduced(
        [tuple([sum(map(mul, ks, col)) for col in zip(*(rows[i][p] for _, rows in parts))]
               for p in (0, 1)) for i in range(ops[0].dim)], den))


def _primitive(re, im):
    """The Gaussian-integer row (re, im) divided by the gcd of its parts."""
    g = math.gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def _echelon(rows):
    """(echelon rows, pivot cols) of exact (re, im) rows: the nonzero rows
    of their reduced row echelon form (RREF), each times the least integer
    that clears its denominators, up to sign.  Any common denominator of
    the rows, or any Gaussian-integer factor of a row, leaves them unchanged,
    so a walk of eliminations (_row_space_walk) does not grow its rows.

    Fraction-free Gauss-Jordan: the pivot row is made to have a real pivot p
    (times the conjugate of its pivot), row_i <- p row_i - f row_r, and
    each row is divided by the gcd of its parts.  Each row stays a nonzero
    multiple of the row that division-based elimination makes, and the RREF
    is unique, so dividing each pivot row by its pivot gives that
    elimination's rows.  A pivot stays real in later steps, so each row is
    a real integer times its RREF row, and the gcd leaves the least one."""
    rows = [_primitive(re, im) for re, im in rows]
    pivots = []
    r = 0
    for c in range(len(rows[0][0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][0][c] or rows[i][1][c]),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        b_re, b_im = rows[r]
        pr, pi = b_re[c], b_im[c]
        if pi:
            # times conj(p): a real pivot, so that no Gaussian factor of p
            # builds up in the other rows, out of reach of the integer gcd
            b_re, b_im = rows[r] = _primitive([x * pr + y * pi for x, y in zip(b_re, b_im)],
                                              [y * pr - x * pi for x, y in zip(b_re, b_im)])
            pr = b_re[c]
        for i, (a_re, a_im) in enumerate(rows):
            fr, fi = a_re[c], a_im[c]
            if i == r or not (fr or fi):
                continue
            rows[i] = _primitive(
                [pr * x - fr * u + fi * v for x, u, v in zip(a_re, b_re, b_im)],
                [pr * y - fr * v - fi * u for y, u, v in zip(a_im, b_re, b_im)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _shifted(T, z):
    """T - zI of an exact T, made from T's parts and z's: z a Scalar, int or
    Fraction as `scale` takes it (a float Scalar raises ModeMismatchError)."""
    dt, rows = T._form
    dz, (p, q) = _scalar_parts(z, EXACT)
    den = math.lcm(dt, dz)
    kt, kz = den // dt, den // dz
    out = []
    for i, (re, im) in enumerate(rows):
        re, im = [x * kt for x in re], [y * kt for y in im]
        re[i] -= p * kz
        im[i] -= q * kz
        out.append((re, im))
    return DenseOperator._from_parts(EXACT, *_reduced(out, den))


def _components(T):
    """The connected components of an exact T, as (indices, triangular)
    pairs: i and j are linked where entry ij or ji is nonzero, i != j, so
    T - zI has the components of T for every z; indices ascend, and
    triangular says whether the component's block is upper or lower
    triangular in that order."""
    n = T.dim
    label, up, down = list(range(n)), [False] * n, [False] * n
    for i, nz in enumerate(_nonzeros(T._form[1])):
        for j, _, _ in nz:
            up[i], down[i] = up[i] or j > i, down[i] or j < i
            if label[j] != label[i]:
                old = label[j]
                label = [label[i] if x == old else x for x in label]
    blocks = {}
    for i, x in enumerate(label):
        blocks.setdefault(x, []).append(i)
    return [(idx, not (any(up[i] for i in idx) and any(down[i] for i in idx)))
            for idx in blocks.values()]


def _row_space_walk(M, components):
    """(depth, R) for an exact M: depth the smallest k >= 1 with ker M^k =
    ker M^(k+1), and R the operator whose rows span the row space of
    M^depth, padded with zero rows, so that R and M^depth have one kernel.
    components are the _components of M, or of any T with M = T - zI.

    M is block diagonal over its components, and each block walks on its
    own: R_0 = I and R_(k+1) = _echelon(R_k M), since the row space of
    M^(k+1) is that of R_k M.  No power of M is formed.  A walk reads only
    the ranks and stops where the rank stops falling; a triangular block
    with no zero on its diagonal is invertible and gives its identity rows
    with no walk.  The depth is the largest block's, and the rows go back
    into n columns.  The RREF of a row space is unique, so the kernel of R
    is read with the pivots of M^depth's."""
    n, (_, rows) = M.dim, M._form
    out, depth = [], 0
    for idx, triangular in components:
        k = len(idx)
        basis, walked = [([int(i == j) for j in range(k)], [0] * k) for i in range(k)], 0
        if not (triangular and all(rows[i][0][i] or rows[i][1][i] for i in idx)):
            nonzeros = _nonzeros([([rows[i][0][j] for j in idx], [rows[i][1][j] for j in idx])
                                  for i in idx])
            while basis:
                step = _echelon(_scatter(basis, nonzeros))[0]
                if len(step) == len(basis):
                    break
                basis, walked = step, walked + 1
        depth = max(depth, walked)
        out += _dense((zip(idx, re, im) for re, im in basis), n)
    zero = [0] * n
    return max(depth, 1), DenseOperator._from_parts(
        EXACT, 1, out + [(zero, zero)] * (n - len(out)))


def _conj(form):
    """The exact _parts form of the conjugate entries."""
    return form[0], [-x for x in form[1]]


def _orbit_windows(op, pairs, count):
    """<T^k u, T^k v> for k < count as Scalars, for each (u, v) of pairs, T
    the DenseOperator op: _orbit_samples' windows, boxed; exact samples
    equal vec_inner on the orbit() vectors."""
    if op.mode == EXACT:
        return [[_scalar(*z, den, EXACT) for z in zip(re, im)]
                for den, re, im in _orbit_samples(op, pairs, count)]
    return [_fbox(window.tolist()) for window in _orbit_samples(op, pairs, count)]


def _orbit_norms(op, h, count):
    """The kernel form (den, reals) of ||T^k h||^2 for k < count, T the
    DenseOperator op: _orbit_samples' window of the one pair (h, h), with
    no Scalar made."""
    window, = _orbit_samples(op, [(h, h)], count)
    return window[:2] if op.mode == EXACT else (1, window)


def _orbit_samples(op, pairs, count):
    """<T^k u, T^k v> for k < count, per (u, v) of pairs, T the DenseOperator
    op, from its kept parts and with no Scalar made: the exact ints (den,
    re, im) of _exact_orbit_inners, or a float array.  Each vector gets
    apply's checks and is taken apart once.  Float mode walks the distinct
    vectors at once, as the columns of one n x p array (_float_walk); a
    sample is its pair's conjugated column dot, or sum |w_k|^2, a float64,
    where v is u.  Exact vectors are walked one by one, scattered against
    T's nonzero columns and kept over their least common denominators (one
    gcd a step), not growing like den^k."""
    cols = {id(w): w for pair in pairs for w in pair}
    for w in cols.values():
        op._check_vec(w)
    dt, rows = op._form
    if op.mode == EXACT:
        return [_exact_orbit_inners(rows, dt, u, v, count) for u, v in pairs]
    start = np.array([_parts(w, FLOAT)[1] for w in cols.values()]).T
    with np.errstate(all="ignore"):
        column = dict(zip(cols, _float_walk(rows, start, count).transpose(2, 0, 1)))
        return [_norms_sq(column[id(u)], 1) if u is v
                else (column[id(u)] * column[id(v)].conj()).sum(axis=1) for u, v in pairs]


def _float_walk(rows, start, count):
    """The count x n x p complex array of T^k V, V the n x p array start
    and T the n x n array rows, made under the caller's np.errstate: one
    np.matmul into the kept array a step, on the n x p shape (a walk of
    n x n blocks would round otherwise)."""
    walk = np.empty((count, *start.shape), dtype=complex)
    walk[:1] = start
    for k in range(1, count):
        np.matmul(rows, walk[k - 1], out=walk[k])
    return walk


def _exact_orbit_inners(rows, dt, u, v, count):
    """<T^k u, T^k v> for k < count as (den, re, im), the ints over the lcm
    of the samples' denominators (_over_lcm), T the exact rows over dt, from
    the _exact_orbit walks of u and v (one if v is u, <w, w> then the sum of
    the squares of w's parts); no Fraction is made."""
    cols, re, im = _nonzeros(_columns(rows)), [], []
    for steps in islice(zip(*(_exact_orbit(cols, dt, w) for w in ((u,) if v is u else (u, v)))),
                        count):
        (du, uf), (dv, vf) = steps[0], steps[-1]
        x, y = ((sum(map(mul, uf[0], uf[0])) + sum(map(mul, uf[1], uf[1])), 0) if v is u
                else _dot(uf, _conj(vf)))
        d = du * dv
        gx, gy = math.gcd(x, d), math.gcd(y, d)
        re.append((x // gx, d // gx))
        im.append((y // gy, d // gy))
    return _over_lcm(re, im)


def _exact_orbit(cols, dt, w):
    """(den, form) of T^k w for k = 0, 1, ..., without end, T the exact rows
    over dt with _nonzeros(_columns) cols: each step is scattered against
    the nonzero columns and kept over its least common denominator (one gcd
    a step, not growing like den^k), and no Scalar is made."""
    den, form = _parts(w, EXACT)
    while True:
        yield den, form
        den, (form,) = _reduced(_scatter([form], cols), dt * den)


def _reaches_zero(op, h, count):
    """Whether T^k h = 0 for some k <= count, T the exact DenseOperator op
    and h a vector of its mode and length: one _exact_orbit walk up to the
    first zero vector."""
    dt, rows = op._form
    walk = islice(_exact_orbit(_nonzeros(_columns(rows)), dt, h), count + 1)
    return any(not (any(re) or any(im)) for _, (re, im) in walk)


def _defect_walk(T):
    """(beta_m, scale), m = 0, 1, ...: beta_0 = I, beta_{m+1} = beta_m - T*
    beta_m T, T taken apart once.  The float scale is the running maximum of
    |beta_j| + |T* beta_j T|, j < m, from 1 (past the true order both are
    rounding noise, and the last step's alone would compare noise with
    noise); |beta_j| is the max_abs kept on beta_j.  An exact step keeps
    beta as its _nonzeros: it scatters them against T's nonzero rows (C =
    beta T), then C's against T*'s nonzeros onto beta dt^2
    (_sparse_scatter), reduced by one gcd, so that a zero entry or row of
    beta costs nothing; the yielded beta's dense rows are filled once.  A
    float step is `@`'s a_star @ beta @ a."""
    mode, (dt, a) = T.mode, T._form
    beta = DenseOperator.identity(T.dim, mode)
    den, b = beta._form
    if mode == FLOAT:
        a_star, scale = a.T.conj(), 1.0
        while True:
            yield beta, scale
            with np.errstate(all="ignore"):
                step = a_star @ b @ a
                scale = max(scale, beta.max_abs() + float(np.abs(step).max()))
                b = b - step
            beta = DenseOperator._from_parts(FLOAT, 1, b)
    n, d2, rows, b = T.dim, dt * dt, _nonzeros(a), _nonzeros(b)
    star = [[(k, -x, y) for k, x, y in col] for col in _nonzeros(_columns(a))]
    while True:
        yield beta, 1.0
        b, den = _sparse_scatter(star, _sparse_scatter(b, rows, [()] * n, 1), b, d2), den * d2
        g = math.gcd(den, *(p for nz in b for _, x, y in nz for p in (x, y))) if den > 1 else 1
        if g > 1:
            b, den = [[(j, x // g, y // g) for j, x, y in nz] for nz in b], den // g
        beta = DenseOperator._from_parts(EXACT, den, _dense(b, n))


def _sparse_scatter(a_nonzeros, b_nonzeros, start, d):
    """The _nonzeros of d s + a b, b square, with s, a and b given by their
    _nonzeros (s as start): _scatter's row scatter into one dict a row, so
    that a zero entry or row of s, a or b costs nothing, and zero sums are
    dropped.  Entries come in no set order."""
    out = []
    for row, first in zip(a_nonzeros, start):
        re, im = {}, {}
        for j, x, y in first:
            re[j], im[j] = x * d, y * d
        for k, x, y in row:
            for j, u, v in b_nonzeros[k]:
                re[j] = re.get(j, 0) + x * u - y * v
                im[j] = im.get(j, 0) + x * v + y * u
        out.append([(j, x, im[j]) for j, x in re.items() if x or im[j]])
    return out


def _dense(nonzeros, n):
    """The exact (re, im) rows of length n with the given (j, re, im)
    entries a row, as _nonzeros lists them; the others are zero."""
    out = []
    for nz in nonzeros:
        re, im = [0] * n, [0] * n
        for j, x, y in nz:
            re[j], im[j] = x, y
        out.append((re, im))
    return out


def orbit(op, h):
    """The orbit h, Th, T^2 h, ... of h under op, without end.

    Each step is op.apply(), with its checks: a vector of the other mode,
    or a mixed one, raises ModeMismatchError."""
    while True:
        yield h
        h = op.apply(h)


def direct_sum(*ops):
    """Block-diagonal direct sum of dense operators."""
    if not ops:
        raise ValueError("direct_sum of no operators")
    mode = ops[0].mode
    if any(op.mode != mode for op in ops):
        raise ModeMismatchError("direct_sum mode mismatch")
    dim, parts = sum(op.dim for op in ops), [op._form for op in ops]
    if mode == FLOAT:
        form, off = np.zeros((dim, dim), dtype=complex), 0
        for _, block in parts:
            form[off:off + len(block), off:off + len(block)] = block
            off += len(block)
        return DenseOperator._from_parts(FLOAT, 1, form)
    den, rows = math.lcm(*(d for d, _ in parts)), []
    for d, block in parts:
        k, left, right = den // d, [0] * len(rows), [0] * (dim - len(rows) - len(block))
        rows += [(left + [x * k for x in re] + right, left + [y * k for y in im] + right)
                 for re, im in block]
    return DenseOperator._from_parts(EXACT, *_reduced(rows, den))


# ---------------------------------------------------------------------------
# Vectors are plain tuples of scalars, for dense operators and weighted
# shifts alike; the helpers below keep inner products and norms in one
# place.  inner() is conjugate-linear in the second argument.
# ---------------------------------------------------------------------------

def _check_vector(vec, mode, dim=None):
    """Raise unless vec is a nonempty tuple of Scalars of mode, of length dim
    if dim is given: the vector check of both operator kinds."""
    try:  # None has no len, a plain number no mode
        if dim is not None and len(vec) != dim:
            raise DimensionMismatchError("vector length does not match operator")
        if not len(vec):
            raise PreconditionError("a vector needs at least one entry")
        vec_mode = same_mode(*vec)
    except ModeMismatchError:
        raise
    except (AttributeError, TypeError):
        raise PreconditionError("operators act on tuples of Scalars") from None
    if vec_mode != mode:
        raise ModeMismatchError("vector mode does not match operator mode")


def vec_from_ints(entries, mode=EXACT):
    return tuple(Scalar.from_int(x, mode) for x in entries)


def basis_vector(dim, j, mode):
    zero, one = Scalar.zero(mode), Scalar.one(mode)
    return tuple(one if k == j else zero for k in range(dim))


def vec_add(u, v):
    if len(u) != len(v):
        raise DimensionMismatchError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    if len(u) != len(v):
        raise DimensionMismatchError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c, u):
    return tuple(c * a for a in u)


def vec_inner(u, v):
    """<u, v>, conjugate-linear in v."""
    if len(u) != len(v):
        raise DimensionMismatchError("vector length mismatch")
    mode = same_mode(*u, *v)
    du, uf = _parts(u, mode)
    dv, vf = (du, uf) if v is u else _parts(v, mode)
    if mode == FLOAT:
        with np.errstate(all="ignore"):
            z = complex(_norms_sq(uf, 0) if v is u else np.vdot(vf, uf))
        return _scalar(z.real, z.imag, 1, FLOAT)
    return _scalar(*_dot(uf, _conj(vf)), du * dv, EXACT)


def vec_norm_sq(u):
    return vec_inner(u, u)


def vec_is_zero(u):
    return all(a.is_zero() for a in u)


@cache
def polarization_pairs(n):
    """The candidates v_j, then v_a + v_b and v_a + i v_b for a < b, of n
    vectors as triples (j, None, 0), (a, b, 0) and (a, b, 1), in one tuple
    made once per n and kept, which every reader indexes or iterates.  A
    Hermitian form vanishing on all of them vanishes on the span.  The order
    is fixed: searches report the first best candidate."""
    return (*((j, None, 0) for j in range(n)),
            *((a, b, p) for a in range(n) for b in range(a + 1, n) for p in (0, 1)))


@cache
def _polarization_gather(n):
    """The index arrays a, b and phase of polarization_pairs(n)'s candidates
    from the n-th on, for the float gathers of _polarization_values: made
    once per n, and only in float mode, so exact processes load no numpy;
    every caller shares them, so they are read-only."""
    gather = np.array(polarization_pairs(n)[n:], dtype=np.intp).reshape(-1, 3).T
    gather.flags.writeable = False
    return gather


def _polarization_vector(vector, a, b, phase):
    """The candidate (a, b, phase) of polarization_pairs, v_j being vector(j)."""
    if b is None:
        return vector(a)
    u, v = vector(a), vector(b)
    return vec_add(u, v if phase == 0 else vec_scale(Scalar.i_unit(v[0].mode), v))


def _polarization_values(B):
    """The list of |<B h, h>| for the candidates h of polarization_pairs on
    the basis vectors, in order, B Hermitian, each read from four entries of
    B: B_aa, or B_aa + B_bb + B_ab + B_ba for e_a + e_b and B_aa + B_bb +
    i (B_ab - B_ba) for e_a + i e_b.  Exact mode reads |Re <B h, h>| times
    B's den, with no float; float mode gathers the entries through
    _polarization_gather's index arrays, reads the modulus, and raises the
    float-overflow error if any value leaves float range."""
    n, (_, rows) = B.dim, B._form
    if B.mode == EXACT:
        re, im = [r for r, _ in rows], [i for _, i in rows]
        return [abs(re[a][a] if b is None else re[a][a] + re[b][b] + (
            re[a][b] + re[b][a] if phase == 0 else im[b][a] - im[a][b]))
            for a, b, phase in polarization_pairs(n)]
    (a, b, phase), diag = _polarization_gather(n), rows.diagonal()
    with np.errstate(all="ignore"):
        both, ab, ba = diag[a] + diag[b], rows[a, b], rows[b, a]
        diff = ab - ba
        pairs = np.where(phase, both + _complex(-diff.imag, diff.real), both + (ab + ba))
        values = np.abs(np.concatenate((diag, pairs)))
    if not np.isfinite(values).all():
        raise PreconditionError("float overflow: a form <B h, h> of the polarization "
                                "candidates leaves float range")
    return values.tolist()


def _forms(ops, us, vs=None):
    """<B u, v> = vec_inner(B.apply(u), v) as (den, re, im), the parts over
    den, for u in us, B in ops and v in vs (v = u alone if vs is None): per
    u, a list per B of a list per v.  The vectors must pass apply's checks.
    Float mode makes all the images B u with one batched @, and conjugated
    dots of them with the vs.

    Exact mode reads B's entries on the vectors' supports, supp u the
    indices of u's nonzero entries:
    <B u, v> = sum_{a in supp v} conj(v_a) sum_{b in supp u} B_ab u_b,
    over den_B du dv, the dens of B's, u's and v's parts.  The entries
    (B u)_a are made once per (u, B), on the union of the vs' supports.
    Only zero terms are left out and integer sums do not depend on order,
    so each triple has the integers of the full product B u dotted with v
    (apply's and vec_inner's kernels); for a basis vector e_i the read
    touches B_ii alone."""
    if ops[0].mode == FLOAT:
        U = np.stack([_parts(u, FLOAT)[1] for u in us], axis=1)              # n x q
        with np.errstate(all="ignore"):
            images = np.stack([B._form[1] for B in ops]) @ U               # m x n x q
            if vs is None:
                forms = (images * U.conj()).sum(axis=1)[..., None]          # m x q x 1
            else:
                W = np.stack([_parts(v, FLOAT)[1] for v in vs], axis=1)     # n x r
                forms = np.swapaxes(W.conj().T @ images, 1, 2)              # m x q x r
        for per_u in forms.transpose(1, 0, 2).tolist():
            yield [[(1, z.real, z.imag) for z in row] for row in per_u]
        return
    parts = [B._form for B in ops]
    ws = None if vs is None else [(d, *_nonzeros([_conj(f)]))
                                  for d, f in (_parts(v, EXACT) for v in vs)]
    for u in us:
        du, uf = _parts(u, EXACT)
        (su,) = _nonzeros([uf])
        against = [(du, [(b, x, -y) for b, x, y in su])] if vs is None else ws
        read = {a for _, w in against for a, _, _ in w}
        per_op = []
        for den, rows in parts:
            image = {}, {}
            for a in read:
                image[0][a], image[1][a] = _sparse_dot(rows[a], su)
            per_op.append([(den * du * dw, *_sparse_dot(image, w)) for dw, w in against])
        yield per_op


def _sparse_dot(form, nonzeros):
    """sum_k form_k (x + i y) over the (k, x, y) of nonzeros, form an exact
    _parts form, as an (re, im) pair of ints."""
    re, im = form
    s = t = 0
    for k, x, y in nonzeros:
        p, q = re[k], im[k]
        s += p * x - q * y
        t += p * y + q * x
    return s, t


def _eigen_range(B):
    """(lambda_min, max |lambda|) of the float Hermitian operator B, from
    LAPACK's eigenvalues (numpy's eigvalsh, which reads B's lower triangle
    and lists them ascending)."""
    eigs = np.linalg.eigvalsh(B._form[1])
    return float(eigs[0]), max(-float(eigs[0]), float(eigs[-1]))


def _log_abs_det(A):
    """log |det A| of the float operator A, the sum of the logs of its
    singular values (LAPACK's, as numpy's svd gives them); -inf if one is 0."""
    with np.errstate(divide="ignore"):
        return float(np.log(np.linalg.svd(A._form[1], compute_uv=False)).sum())


def _largest(moduli):
    """The largest of a list of float moduli, nan if any is (Python's max keeps
    a nan only if it comes first); the sum of moduli >= 0 is nan only then."""
    return math.nan if math.isnan(sum(moduli)) else max(moduli)


def vec_max_abs(u):
    return _largest([a.modulus() for a in u])
