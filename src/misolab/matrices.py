"""Dense square operators, plain dense vectors and finitely supported
sequence vectors over dual-mode scalars."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partialmethod, reduce
from itertools import chain
from operator import add, mul, sub

import numpy as np

from .errors import DimensionMismatchError, ModeMismatchError
from .scalars import EXACT, FLOAT, Scalar, same_mode


class DenseOperator:
    """Immutable square matrix with all entries in one arithmetic mode."""

    __slots__ = ("dim", "mode", "_rows", "_parts_cache")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        dim = len(rows)
        if dim == 0 or any(len(r) != dim for r in rows):
            raise DimensionMismatchError("operator matrix must be square and nonempty")
        modes = {s.mode for r in rows for s in r}
        if len(modes) != 1:
            raise ModeMismatchError("all matrix entries must share one mode")
        self._rows = rows
        self.dim = dim
        self.mode = modes.pop()
        self._parts_cache = None

    @staticmethod
    def _from_parts(mode, den, form):
        """The operator of _row_parts() (den, form), den any common one; it
        boxes its rows on first read.  Kernels (@, +, -, adjoint, scale) make these."""
        op = object.__new__(DenseOperator)
        op.dim = form.shape[1] if mode == FLOAT else len(form)
        op.mode, op._rows, op._parts_cache = mode, None, (den, form)
        return op

    @property
    def rows(self):
        if self._rows is None:
            (den, form), mode = self._parts_cache, self.mode
            if mode == FLOAT:
                form = list(zip(form[0].tolist(), form[1].tolist()))
            self._rows = tuple(tuple(_box(z, den, mode) for z in zip(*r)) for r in form)
        return self._rows

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(dim, mode):
        one, zero = Scalar.one(mode), Scalar.zero(mode)
        return DenseOperator(
            [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        )

    @staticmethod
    def zeros(dim, mode):
        zero = Scalar.zero(mode)
        return DenseOperator([[zero] * dim for _ in range(dim)])

    @staticmethod
    def from_ints(rows, mode=EXACT):
        return DenseOperator([[Scalar.from_int(x, mode) for x in r] for r in rows])

    # -- algebra ------------------------------------------------------

    def _check(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError("operator mode mismatch")
        if self.dim != other.dim:
            raise DimensionMismatchError("operator dimension mismatch")

    def __matmul__(self, other):
        self._check(other)
        (da, a_rows), (db, b_rows) = self._row_parts(), other._row_parts()
        if self.mode == FLOAT:
            return DenseOperator._from_parts(FLOAT, 1, _fmatmul(a_rows, b_rows))
        return DenseOperator._from_parts(EXACT, *_reduced(
            _scatter(a_rows, _nonzeros(b_rows)), da * db))

    def _combine(self, other, op):
        """self op other on the parts, op being add or sub."""
        self._check(other)
        (da, a_rows), (db, b_rows) = self._row_parts(), other._row_parts()
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
        den, rows = self._row_parts()
        if self.mode == FLOAT:
            return DenseOperator._from_parts(FLOAT, 1, -rows)
        return DenseOperator._from_parts(EXACT, den, [([-x for x in re], [-y for y in im])
                                                      for re, im in rows])

    def scale(self, c):
        """c times the operator, c as Scalar arithmetic takes it; in float
        mode each entry is c * z, the Scalar product, bit for bit."""
        mode = self.mode
        den, rows = self._row_parts()
        dc, (p, q) = _scalar_parts(c, mode)
        if mode == FLOAT:
            with np.errstate(all="ignore"):
                return DenseOperator._from_parts(FLOAT, 1, _fmul(np.array([p, q])[:, None, None],
                                                                 rows))
        return DenseOperator._from_parts(EXACT, *_reduced(
            [([x * p - y * q for x, y in zip(*r)], [x * q + y * p for x, y in zip(*r)])
             for r in rows], den * dc))

    def adjoint(self):
        """Conjugate transpose."""
        den, rows = self._row_parts()
        if self.mode == FLOAT:
            return DenseOperator._from_parts(FLOAT, 1, _conj(rows.transpose(0, 2, 1), FLOAT))
        return DenseOperator._from_parts(EXACT, den, [_conj(c, EXACT) for c in _columns(rows)])

    def power(self, k):
        if k < 0:
            raise ValueError("negative operator power")
        out = DenseOperator.identity(self.dim, self.mode)
        for _ in range(k):
            out = out @ self
        return out

    def apply(self, vec):
        self._check_vec(vec)
        mode = self.mode
        da, a_rows = self._row_parts()
        dv, v = _parts(vec, mode)
        if mode == FLOAT:
            return tuple(_box(z, 1, FLOAT) for z in zip(*_tolists(_fdot(a_rows, v[:, None], 1))))
        (re, im), = _scatter([v], _nonzeros(_columns(a_rows)))
        return tuple(_box(z, da * dv, EXACT) for z in zip(re, im))

    def _check_vec(self, vec):
        if len(vec) != self.dim:
            raise DimensionMismatchError("vector length does not match operator")
        if same_mode(*vec) != self.mode:
            raise ModeMismatchError("vector mode does not match operator mode")

    def _row_parts(self):
        """(den, [form of each row]) from _parts of all the entries; made on
        first use and kept, since the operator never changes."""
        if self._parts_cache is None:
            n = self.dim
            den, form = _parts([s for r in self.rows for s in r], self.mode)
            # exact rows are (re, im) pairs of int lists; float parts are one
            # 2 x n x n array, the real parts over the imaginary ones
            cuts = [slice(i * n, (i + 1) * n) for i in range(n)]
            self._parts_cache = den, ([(form[0][c], form[1][c]) for c in cuts]
                                      if self.mode == EXACT else form.reshape(2, n, n))
        return self._parts_cache

    # -- queries ------------------------------------------------------

    def entry(self, i, j):
        return self.rows[i][j]

    # as Scalar.modulus: math.hypot, not abs(complex), which rounds differently;
    # int / int is float(Fraction), whatever den is; a float nan anywhere is nan
    def max_abs(self):
        den, rows = self._row_parts()
        if self.mode == EXACT:
            return max(math.hypot(x / den, y / den) for re, im in rows for x, y in zip(re, im))
        return _largest(list(map(math.hypot, *_tolists(rows))))

    def is_zero(self, tol=0.0):
        rows = self._row_parts()[1]
        if self.mode == EXACT:
            return not any(any(part) for r in rows for part in r)
        return all(h <= tol for h in map(math.hypot, *_tolists(rows)))

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
# apply and vec_inner box each entry, orbit windows box samples, and the form
# readers (_polarization_values, _forms) box nothing.
# Exact mode runs on Gaussian integers over one common denominator, so its
# results are the canonical fractions the Scalar loops give; its products (@,
# apply, orbit steps) add only nonzero terms (_scatter), as integer sums do not
# depend on order.  Float products stay dense: there a zero term can change the
# bits (-0.0 + 0.0 is 0.0, inf * 0 is nan).  Float mode runs
# on float64 arrays, the real parts stacked over the imaginary ones, with
# whole-array elementwise ufuncs in the order of the Scalar loop: each
# product is (ac - bd, ad + bc), a multiply or subtract at a time (_fmul),
# and each sum adds its terms from left to right (_fsum).  A ufunc
# rounds each element as the Python float operation does, so the results
# are the Scalar loop's, bit for bit.  numpy's reductions (np.sum, np.dot,
# @, einsum) add in an order numpy picks, pairwise from 8 terms on, or in
# BLAS with fused multiply-adds, so no float kernel uses them; moduli stay
# math.hypot.  The float kernels run under np.errstate(all="ignore"): inf
# and nan come out as from Python floats, with no RuntimeWarning.
# TestFloatKernels checks the bits with sums of up to 16 terms.
# ---------------------------------------------------------------------------

def _int_form(scalars):
    """(den, re_nums, im_nums) with scalars[k] = (re_nums[k] + i im_nums[k]) / den,
    den the lcm of the denominators of all real and imaginary parts."""
    re = [s.re.as_integer_ratio() for s in scalars]
    im = [s.im.as_integer_ratio() for s in scalars]
    den = math.lcm(*{d for _, d in re}, *{d for _, d in im})
    return den, [n * (den // d) for n, d in re], [n * (den // d) for n, d in im]


def _parts(scalars, mode):
    """(den, form) of scalars of the given mode: in exact mode the (re, im)
    int lists of _int_form over its den, in float mode the 2 x len float64
    array of the real parts over the imaginary ones, over 1.  The mode is
    never inferred, since float.as_integer_ratio would turn a float list
    exact without a word."""
    if mode == EXACT:
        den, re, im = _int_form(scalars)
        return den, (re, im)
    return 1, np.array([[s.re for s in scalars], [s.im for s in scalars]], dtype=float)


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
        return Scalar(EXACT, Fraction(re, den), Fraction(im, den))
    return Scalar(FLOAT, re, im)


def _box(z, den, mode):
    """The Scalar of the kernel value z = (re, im) over den."""
    return _scalar(*z, den, mode)


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
    g = math.gcd(den, *chain.from_iterable(chain.from_iterable(rows)))
    if g > 1:
        den, rows = den // g, [([x // g for x in re], [y // g for y in im]) for re, im in rows]
    return den, rows


def _conj(form, mode):
    """The _parts form of the conjugate entries."""
    if mode == EXACT:
        return form[0], [-x for x in form[1]]
    return np.stack((form[0], -form[1]))


def _tolists(form):
    """The entries of a float form as two flat lists of Python floats, the
    real and the imaginary parts."""
    return form[0].ravel().tolist(), form[1].ravel().tolist()


_quiet = np.errstate(all="ignore")


def _fsum(terms, axis):
    """The terms along axis added from left to right, one IEEE sum at a
    time: np.add.accumulate is a running sum, and its last entry is the sum
    of the Scalar loop.  Callers hold np.errstate(all="ignore")."""
    return np.add.accumulate(terms, axis=axis).take(-1, axis=axis)


def _fmul(a, b):
    """The entrywise products of two float forms that broadcast, stacked
    (re, im) as _parts makes them: (ac - bd, ad + bc) as the Scalar product
    makes it, from the four products of one multiply.  Callers hold
    np.errstate(all="ignore")."""
    p = a[:, None] * b[None]
    out = np.empty(p.shape[1:])
    np.subtract(p[0, 0], p[1, 1], out=out[0])
    np.add(p[0, 1], p[1, 0], out=out[1])
    return out


@_quiet
def _fdot(a, b, axis):
    """sum_k a_k b_k over one axis of the entries of two float forms that
    broadcast: the _fmul products added by _fsum, the bits of the Scalar
    loop."""
    return _fsum(_fmul(a, b), axis + 1)


@_quiet
def _fweighted_sum(weights, terms, axis):
    """sum_k weights[k] terms[k] along axis of a float array: each int weight
    is taken to float as int * float takes it, and the products are added by
    _fsum, from k = 0 up."""
    w = np.array([float(c) for c in weights])
    return _fsum(w.reshape((-1,) + (1,) * (terms.ndim - axis - 1)) * terms, axis)


def _fmatmul(a, b):
    """The float form of the product of n x n parts a and n x p parts b."""
    return _fdot(a[:, :, :, None], b[:, None], 1)


def _orbit_inners(op, u, v, count):
    """<T^k u, T^k v> for k < count as Scalars, T the DenseOperator op."""
    return _orbit_windows(op, [(u, v)], count)[0]


def _orbit_windows(op, pairs, count):
    """_orbit_inners of each (u, v) of pairs, from the kept parts of op.

    Each vector gets apply's checks and is taken apart once, and only the
    samples are boxed, so every sample equals vec_inner on the orbit()
    vectors, float bits included.  Float mode walks all the distinct
    vectors at once, as the columns of one n x p form: each step is one
    T V, and each sample a column inner product.  Exact vectors are walked
    one by one, scattered against T's nonzero columns and kept over their
    least common denominators (one gcd a step), not growing like den^k."""
    for u, v in pairs:
        op._check_vec(u)
        op._check_vec(v)
    dt, rows = op._row_parts()
    if op.mode == EXACT or not pairs:     # no vectors, no float walk
        return [_exact_orbit_inners(rows, dt, u, v, count) for u, v in pairs]
    cols = {id(w): w for pair in pairs for w in pair}
    where = {key: j for j, key in enumerate(cols)}
    steps = [np.stack([_parts(w, FLOAT)[1] for w in cols.values()], axis=2)]
    while len(steps) < count:
        steps.append(_fmatmul(rows, steps[-1]))
    walk = np.stack(steps, axis=1)          # 2 x count x n x p
    iu, iv = ([where[id(pair[j])] for pair in pairs] for j in (0, 1))
    re, im = _fdot(walk[..., iu], _conj(walk[..., iv], FLOAT), 1)
    return [[_box(z, 1, FLOAT) for z in zip(r, i)][:count]
            for r, i in zip(re.T.tolist(), im.T.tolist())]


def _exact_orbit_inners(rows, dt, u, v, count):
    """_orbit_inners on exact rows over dt: walks of u and v (one if v is u) as (den, [form])."""
    cols = _nonzeros(_columns(rows))
    walks = [(d, [f]) for d, f in (_parts(w, EXACT) for w in ((u,) if v is u else (u, v)))]
    out = []
    for k in range(count):
        if k:
            walks = [_reduced(_scatter(f, cols), dt * d) for d, f in walks]
        (du, (uf,)), (dv, (vf,)) = walks[0], walks[-1]
        out.append(_box(_dot(uf, _conj(vf, EXACT)), du * dv, EXACT))
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
    dim = sum(op.dim for op in ops)
    zero = Scalar.zero(mode)
    rows = [[zero] * dim for _ in range(dim)]
    off = 0
    for op in ops:
        for i in range(op.dim):
            for j in range(op.dim):
                rows[off + i][off + j] = op.rows[i][j]
        off += op.dim
    return DenseOperator(rows)


# ---------------------------------------------------------------------------
# Dense vectors are plain tuples of scalars; the helpers below keep inner
# products and norms in one place.  inner() is conjugate-linear in the
# second argument.
# ---------------------------------------------------------------------------

def vec(entries):
    return tuple(entries)


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
        return _box(map(float, _fdot(uf, _conj(vf, FLOAT), 0)), 1, FLOAT)
    return _box(_dot(uf, _conj(vf, EXACT)), du * dv, EXACT)


def vec_norm_sq(u):
    return vec_inner(u, u)


def vec_is_zero(u, tol=0.0):
    return all(a.is_zero(tol) for a in u)


def polarization_pairs(n):
    """The candidates v_j, then v_a + v_b and v_a + i v_b for a < b, of n
    vectors as triples (j, None, 0), (a, b, 0) and (a, b, 1).  A Hermitian
    form vanishing on all of them vanishes on the span.  The order is fixed:
    searches report the first best candidate."""
    yield from ((j, None, 0) for j in range(n))
    yield from ((a, b, p) for a in range(n) for b in range(a + 1, n) for p in (0, 1))


def _polarization_vector(vector, a, b, phase):
    """The candidate (a, b, phase) of polarization_pairs, v_j being vector(j)."""
    if b is None:
        return vector(a)
    u, v = vector(a), vector(b)
    return vec_add(u, v if phase == 0 else vec_scale(Scalar.i_unit(v[0].mode), v))


def _polarization_values(B):
    """|<B h, h>| for each candidate h of polarization_pairs on the basis
    vectors, in that order, B Hermitian.  Exact mode reads |Re <B h, h>|
    times B's den from four entries of B, with no float.  Float mode runs
    apply's and vec_inner's kernels on batches of candidates, so each value
    has the bits of the vector loop, nan included."""
    n, (_, rows) = B.dim, B._row_parts()
    if B.mode == EXACT:
        for a, b, phase in polarization_pairs(n):
            (re_a, im_a), (re_b, im_b) = rows[a], rows[a if b is None else b]
            yield abs(re_a[a] if b is None else re_a[a] + re_b[b] + (
                re_a[b] + re_b[a] if phase == 0 else im_b[a] - im_a[b]))
        return
    # candidate k is e_a[k] + (1 or i) e_b[k] (e_a[k] if b[k] = a[k]), a column of U;
    # 256 // n at a time (all up to n = 6) keep the kernels' temporaries near 8n KiB
    iu, step = np.triu_indices(n, 1), max(1, 256 // n)
    a, b = (np.concatenate((np.arange(n), i.repeat(2))) for i in iu)
    phase = np.concatenate((np.zeros(n, int), np.tile([0, 1], len(iu[0]))))
    for ac, bc, pc in zip(*(np.split(x, range(step, n * n, step)) for x in (a, b, phase))):
        U, k = np.zeros((2, n, len(ac))), np.arange(len(ac))
        U[0, ac, k] = U[pc, bc, k] = 1.0
        yield from map(math.hypot, *_fdot(_fmatmul(rows, U), _conj(U, FLOAT), 0).tolist())


def _forms(ops, us, vs=None):
    """<B u, v> = vec_inner(B.apply(u), v) as (den, re, im), the parts over
    den, for u in us, B in ops and v in vs (v = u alone if vs is None): per
    u, a list per B of a list per v.  The vectors must pass apply's checks.  The
    ops and vs are taken apart once, each u in turn, and run through apply's
    and vec_inner's kernels (float mode: all B at once, their bits)."""
    if ops[0].mode == FLOAT:
        stacked = np.stack([B._row_parts()[1] for B in ops], axis=1)       # 2 x m x n x n
        ws = None if vs is None else _conj(np.stack([_parts(v, FLOAT)[1] for v in vs], 1), FLOAT)
        for u in us:
            uf = _parts(u, FLOAT)[1]
            w = _conj(uf[:, None], FLOAT) if vs is None else ws             # 2 x q x n
            images = _fdot(stacked, uf[:, None, None], 2)                   # 2 x m x n
            re, im = _fdot(images[:, :, None], w[:, None], 2).tolist()      # 2 x m x q
            yield [[(1, *z) for z in zip(*zj)] for zj in zip(re, im)]
        return
    cols = [(den, _nonzeros(_columns(rows))) for den, rows in (B._row_parts() for B in ops)]
    ws = None if vs is None else [(d, _conj(f, EXACT)) for d, f in (_parts(v, EXACT) for v in vs)]
    for u in us:
        du, uf = _parts(u, EXACT)
        against = [(du, _conj(uf, EXACT))] if vs is None else ws
        images = [(den * du, _scatter([uf], c)[0]) for den, c in cols]
        yield [[(den * dw, *_dot(image, w)) for dw, w in against] for den, image in images]


def _vec_inners(pairs, mode):
    """vec_inner(u, v) for each (u, v) of pairs; in float mode one ordered
    _fdot over the stacked pairs, vec_inner's bits."""
    if mode == EXACT or not pairs:
        return [vec_inner(u, v) for u, v in pairs]
    us, vs = (np.stack([_parts(w, FLOAT)[1] for w in ws], axis=1) for ws in zip(*pairs))
    re, im = _fdot(us, _conj(vs, FLOAT), 1).tolist()      # 2 x P
    return [Scalar.flt(r, i) for r, i in zip(re, im)]


def _largest(moduli):
    """The largest of a list of float moduli, nan if any is (Python's max keeps
    a nan only if it comes first); the sum of moduli >= 0 is nan only then."""
    return math.nan if math.isnan(sum(moduli)) else max(moduli)


def vec_max_abs(u):
    return _largest([a.modulus() for a in u])


def float_max_abs(values, mode):
    """Largest |value| for float diagnostics; 0.0 in exact mode, which
    decides zeros exactly and converts no entry to float."""
    if mode == EXACT:
        return 0.0
    moduli = [v.modulus() for v in values]
    return _largest(moduli) if moduli else 0.0


class FiniteVector:
    """Finitely supported sequence vector: sorted map index -> nonzero scalar.

    Exact zeros are dropped on construction.  Float-mode near-zeros are only
    dropped by an explicit cleanup() call, never implicitly.
    """

    __slots__ = ("entries", "mode")

    def __init__(self, entries, mode=None):
        items = {}
        for idx, val in dict(entries).items():
            if idx < 0:
                raise ValueError("FiniteVector indices must be nonnegative")
            if val.mode == EXACT and val.is_zero():
                continue
            if mode is None:
                mode = val.mode
            elif val.mode != mode:
                raise ModeMismatchError("FiniteVector entries mode mismatch")
            if not (val.mode == FLOAT and val.is_zero(0.0)):
                items[idx] = val
        if mode is None:
            raise ValueError("cannot infer mode of an empty FiniteVector; pass mode=")
        self.entries = dict(sorted(items.items()))
        self.mode = mode

    @staticmethod
    def basis(n, mode):
        return FiniteVector({n: Scalar.one(mode)}, mode=mode)

    def support(self):
        return tuple(self.entries)

    def is_zero(self):
        return not self.entries

    def cleanup(self, tol):
        """Drop float entries with modulus <= tol (no-op in exact mode)."""
        if self.mode == EXACT:
            return self
        return FiniteVector(
            {i: v for i, v in self.entries.items() if v.modulus() > tol},
            mode=self.mode,
        )

    def add(self, other):
        if self.mode != other.mode:
            raise ModeMismatchError("FiniteVector mode mismatch")
        out = dict(self.entries)
        for i, v in other.entries.items():
            out[i] = out[i] + v if i in out else v
        return FiniteVector(out, mode=self.mode)

    def scale(self, c):
        return FiniteVector({i: c * v for i, v in self.entries.items()}, mode=self.mode)

    def inner(self, other):
        """<self, other>, conjugate-linear in other."""
        if self.mode != other.mode:
            raise ModeMismatchError("FiniteVector mode mismatch")
        acc = Scalar.zero(self.mode)
        for i, v in self.entries.items():
            w = other.entries.get(i)
            if w is not None:
                acc = acc + v * w.conj()
        return acc

    def norm_sq(self):
        return self.inner(self)

    def __eq__(self, other):
        if not isinstance(other, FiniteVector):
            return NotImplemented
        return self.mode == other.mode and self.entries == other.entries

    def __repr__(self):
        return f"FiniteVector({self.entries!r})"
