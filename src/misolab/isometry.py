"""Defect operators, m-isometry predicates and strict-order detection.

The defect of order m, beta_m(T) = sum_k (-1)^k C(m,k) T*^k T^k, vanishes
exactly on m-isometries.  It is walked by the recurrence beta_{m+1} =
beta_m - T* beta_m T, which does not cancel as that binomial sum does, and
defect() cross-checks the two.  Every zero test is scalars.negligible's:
exact in exact mode, and in float mode relative to the walk's running
scale.
"""

from __future__ import annotations

import math
from functools import partial, reduce
from itertools import islice
from operator import add
from typing import NamedTuple, Optional

from .diffcalc import (DegreeVerdict, OrbitSequence, _binomial_coeffs, default_window_len,
                       detect_degree)
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    ModeMismatchError,
    PreconditionError,
    WindowTooShortError,
)
from .matrices import (
    DenseOperator,
    _defect_walk,
    _eigen_range,
    _forms,
    _int_combination,
    _log_abs_det,
    _orbit_norms,
    _polarization_pair,
    _polarization_values,
    _polarization_vector,
    basis_vector,
    np,
    vec_add,
)
from .scalars import EXACT, FLOAT, negligible, zero_threshold

DEFAULT_DEFECT_TOL = 1e-8
# a float beta_{m-1} counts as positive semidefinite if its negative
# eigenvalues are within this fraction of its largest |eigenvalue|
_PSD_TOL = 1e-9


class DefectOperator(NamedTuple):
    m: int
    matrix: DenseOperator
    float_scale: float = 1.0   # the walk's running scale (float mode only)

    def threshold(self, tol):
        return zero_threshold(self.matrix.mode, tol, lambda: self.float_scale, f"beta_{self.m}")


class OrderVerdict(NamedTuple):
    strict: bool                      # True: StrictOrder(m); False: NotWithinBound(m_max)
    m: int                            # the order, or the exhausted bound
    witness: Optional[tuple] = None   # h with <beta_{m-1} h, h> != 0, for m >= 2
    residual: float = 0.0             # max |beta_m| entry (float diagnostics)
    # the walked beta_0 .. beta_{m-1} (.. beta_{m_max} if not strict)
    defects: tuple = ()

    def describe(self):
        if self.strict:
            return f"strict-order({self.m})"
        return f"not-within-bound({self.m})"


def _grams(T):
    """The Gram operators T*^k T^k for k = 0, 1, ..., without end, via
    G_{k+1} = T* G_k T."""
    Tstar = T.adjoint()
    g = DenseOperator.identity(T.dim, T.mode)
    while True:
        yield g
        g = Tstar @ g @ T


def _defects(T):
    """beta_0 = I, beta_1, ... as DefectOperators, without end, from the
    recurrence walk of matrices._defect_walk, each checked finite."""
    for m, (beta, scale) in enumerate(_defect_walk(T)):
        if m:
            _check_finite(beta, scale, f"the defects beta_k for k <= {m}")
        yield DefectOperator(m=m, matrix=beta, float_scale=scale)


def _check_finite(op, scale, what):
    """Raise the float-overflow error if a float op or its scale left float
    range: entry by entry only past a finite op.max_abs(), as an inf or nan
    entry has an inf or nan modulus, but a finite one's may overflow."""
    if op.mode == FLOAT and not (math.isfinite(scale) and (
            math.isfinite(op.max_abs()) or np.isfinite(op._form[1]).all())):
        raise PreconditionError(f"float overflow: {what} leave float range")


def defect(T, m):
    """beta_m(T), from the recurrence walk of _defects.

    The definitional binomial sum sum_k (-1)^k C(m,k) T*^k T^k is computed
    beside it as a cross-check: the two must agree, exactly in exact mode
    and within 1e-12 of the binomial sum's own scale,
    sum_k C(m,k) max(|T*^k T^k|, 1), in float mode.  The Grams come from
    the generic @, not from the walk's kernel, and an exact sum is made in
    one integer pass (matrices._int_combination).
    """
    if m < 0:
        raise PreconditionError("defect order must be nonnegative")
    d = next(islice(_defects(T), m, None))
    # coeffs[k] = (-1)^k C(m, k)
    grams, coeffs = list(islice(_grams(T), m + 1)), _binomial_coeffs(m)[::-1]
    if T.mode == EXACT:
        binomial, scale = _int_combination(grams, coeffs), 1.0
    else:
        binomial = reduce(add, map(DenseOperator.scale, grams, coeffs))
        scale = sum(abs(c) * max(g.max_abs(), 1.0) for c, g in zip(coeffs, grams))
    _check_finite(binomial, scale, f"the Gram operators T*^k T^k for k <= {m}")
    if not negligible(d.matrix - binomial, T.mode, 1e-12, lambda: scale, f"beta_{m}"):
        raise InternalCheckError(f"defect recurrence and binomial sum disagree at m={m}")
    return d


def is_m_isometry(T, m, tol=DEFAULT_DEFECT_TOL):
    """True iff beta_m(T) = 0 (exactly, or within the scaled tolerance)."""
    if m < 1:
        raise PreconditionError("m-isometry requires m >= 1")
    d = defect(T, m)
    return negligible(d.matrix, T.mode, tol, lambda: d.float_scale, f"beta_{m}")


def default_m_max(T):
    # algebraic strict orders cannot exceed 2*dim - 1; slack of 2
    return 2 * T.dim + 1


def strict_order(T, m_max=None, tol=DEFAULT_DEFECT_TOL):
    """Smallest m <= m_max with beta_m(T) = 0, with a nonzero witness for
    beta_{m-1}; NotWithinBound otherwise.  The verdict keeps the defects it
    walked, beta_0 .. beta_{m-1}, or beta_0 .. beta_{m_max} if not strict.

    In float mode a beta_m that passes the zero test ends the walk only
    where the theorems allow a strict order m (_order_is_possible);
    otherwise the walk goes on as if beta_m were nonzero.  In exact mode
    the theorems hold of every zero beta_m, so no test is made."""
    if m_max is None:
        m_max = default_m_max(T)
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    walk = _defects(T)
    walked = [next(walk)]
    for d in islice(walk, m_max):
        m = d.m
        if negligible(d.matrix, T.mode, tol, lambda: d.float_scale, f"beta_{m}") and (
                T.mode == EXACT or _order_is_possible(T, m, walked, tol)):
            witness = None
            if m >= 2:
                witness = _nonzero_form_witness(walked[-1], tol)
                if witness is None:
                    raise InternalCheckError(
                        f"beta_{m - 1} reported nonzero but no witness found"
                    )
            return OrderVerdict(strict=True, m=m, witness=witness,
                                residual=_residual(d.matrix), defects=tuple(walked))
        walked.append(d)
    return OrderVerdict(strict=False, m=m_max, residual=_residual(walked[-1].matrix),
                        defects=tuple(walked))


def _order_is_possible(T, m, walked, tol):
    """Whether a strict order m fits the float defects walked, beta_0 ..
    beta_{m-1}.  On C^dim a strict m-isometry has m = 2 nu - 1 <= 2 dim - 1,
    nu its largest Jordan block, which is odd; and by Newton's formula
    ||T^n h||^2 = sum_{j<m} C(n,j) (-1)^j <beta_j h, h>, whose leading
    coefficient (-1)^(m-1) <beta_{m-1} h, h> / (m-1)! cannot be negative, so
    for odd m beta_{m-1} is positive semidefinite (Agler and Stankus,
    "m-isometric transformations of Hilbert space, I", Integral Equations
    Operator Theory 21, 1995).  beta_{m-1} must also fail the zero test: a
    zero one was refused as an order of its own.  Its negative eigenvalues
    are negligible within _PSD_TOL of its largest |eigenvalue|.  And T is a
    unitary plus a nilpotent that commutes with it (Agler, Helton and
    Stankus, Linear Algebra Appl. 274, 1998), so |det T| = 1: log |det T|, a
    sum of dim log-moduli, is negligible within tol * dim."""
    if m % 2 == 0 or m > 2 * T.dim - 1:
        return False
    if m == 1:
        return True
    prev = walked[-1]
    if negligible(prev.matrix, FLOAT, tol, lambda: prev.float_scale, f"beta_{m - 1}"):
        return False
    low, top = _eigen_range(prev.matrix)
    return (negligible(-low, FLOAT, _PSD_TOL, lambda: top, f"lambda_min(beta_{m - 1})")
            and negligible(abs(_log_abs_det(T)), FLOAT, tol, lambda: T.dim, "log |det T|"))


def _residual(beta):
    return 0.0 if beta.mode == EXACT else beta.max_abs()


def _nonzero_form_witness(d, tol):
    """A vector h with <beta h, h> != 0 for a nonzero Hermitian beta: the first
    best of e_a, e_a + e_b and e_a + i e_b (polarization_pairs), on all of
    which only a zero Hermitian form vanishes.  The values come from
    matrices._polarization_values, four entries of beta each; one max over
    them finds the first largest, and only that candidate is built, from its
    index (matrices._polarization_pair)."""
    # quadratic-form values can sit a factor ~2 below the largest entry,
    # hence the slack on the acceptance threshold
    threshold, values = d.threshold(tol) * 0.25, _polarization_values(d.matrix)
    best, dim = max(values), d.matrix.dim
    return None if best <= threshold else _polarization_vector(
        partial(basis_vector, dim, mode=d.matrix.mode),
        *_polarization_pair(dim, values.index(best)))


def orbit_sequence(T, h, window_len=None):
    """gamma_{T,h}: the window of squared orbit norms ||T^n h||^2.  A
    DenseOperator walks it on its kept parts (matrices._orbit_norms), into
    one float64 array or ints over one denominator, and the window keeps the
    samples unboxed; a weighted shift reads it from its squared weights
    (T._orbit_inners).  The default window is default_window_len(dim) for a
    dense operator and 16 otherwise."""
    if window_len is None:
        window_len = default_window_len(T.dim) if isinstance(T, DenseOperator) else 16
    if window_len < 2:
        raise WindowTooShortError("orbit window must hold at least 2 samples")
    if isinstance(T, DenseOperator):
        return OrbitSequence._of_form(T.mode, *_orbit_norms(T, h, window_len))
    return OrbitSequence(T._orbit_inners(h, h, window_len))


def defect_form(op, k):
    """The sesquilinear defect form F_{T;k}(f,g) = sum_j (-1)^j C(k,j) <T^j f, T^j g>.

    Uses only inner products of orbit vectors, so it is available on
    finitely supported sequence spaces where no adjoint exists: the
    operator's _orbit_inners reads <T^j f, T^j g>, with apply's checks on f
    and g, from a dense operator's kept parts or a weighted shift's squared
    weights.
    """
    if k < 0:
        raise PreconditionError("form order must be nonnegative")
    return lambda f, g: reduce(add, (ip * ((-1) ** j * math.comb(k, j))
                                     for j, ip in enumerate(op._orbit_inners(f, g, k + 1))))


def polarization_reconstruct(quad, h, h0):
    """Recover phi(h, h) from the three samples phi(h0 + j h), j = 0, 1, 2,
    as (phi(h0) - 2 phi(h0 + h) + phi(h0 + 2h)) / 2, with 2h read as h + h.

    quad maps a vector to the diagonal value phi(v, v) of a form additive
    in each slot; the result is independent of h0 for such forms.
    """
    return (quad(h0) - quad(vec_add(h0, h)) * 2 + quad(vec_add(h0, vec_add(h, h)))) / 2


class SurveyResult(NamedTuple):
    per_vector: tuple                     # DegreeVerdict per surveyed vector
    global_verdict: Optional[OrderVerdict]
    order_lower_bound: int
    consistent_with: Optional[int]        # m such that sampled orbits fit an m-isometry


def local_isometry_survey(op, vectors, window_len=None, defect_tol=DEFAULT_DEFECT_TOL,
                          m_max=None):
    """Per-vector orbit degree verdicts plus a global order verdict.

    For a dense operator the global verdict is strict_order up to m_max;
    otherwise the max of (degree + 1) over the sampled vectors is reported
    as a lower bound.  Uniform polynomiality of the sampled orbits is
    reported as 'consistent with m-isometry' for m = max degree + 1.  On a
    dense operator a degree above 2 dim - 2 fits no m-isometry, so it
    counts for neither the lower bound nor the consistent m.

    When op is dense, of strict order m, every vector passes apply's checks
    and the window (window_len, or default_window_len) holds W >= max(3,
    m + 1) samples, the degrees are read from the beta_j strict_order
    walked, and no orbit is walked.  By Newton's formula ||T^n h||^2 =
    sum_{j<m} C(n,j) (-1)^j <beta_j h, h> is then the polynomial of degree
    D = max{j : <beta_j h, h> != 0} (zero if there is none).  In exact mode
    D is a certificate, and detect_degree says the same on W >= D + 2
    samples: Delta^(D+1) vanishes, Delta^D is a nonzero constant, and
    Delta^k for k < D is a nonzero polynomial of degree D - k at W - k >
    D - k points.  In float mode each <beta_j h, h> is negligible within
    defect_tol of beta_j's float_scale * ||h||^2 or not, and a value or
    threshold beyond float range raises, as an overflowing orbit sample
    does.  Otherwise each degree is detect_degree's verdict on
    orbit_sequence's window of that vector, which certifies nothing beyond
    it, and the first vector that fails raises its own error.
    """
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("survey needs at least one vector")
    global_verdict, verdicts = None, None
    if isinstance(op, DenseOperator):
        global_verdict = strict_order(op, m_max=m_max, tol=defect_tol)
        verdicts = _beta_degrees(op, vectors, window_len, global_verdict, defect_tol)
    if verdicts is None:
        verdicts = [detect_degree(orbit_sequence(op, h, window_len)) for h in vectors]
    cap = 2 * op.dim - 2 if isinstance(op, DenseOperator) else math.inf
    lower = 0
    all_poly = True
    for v in verdicts:
        if not v.polynomial or (not v.zero_sequence and v.degree > cap):
            all_poly = False
        elif not v.zero_sequence:
            lower = max(lower, v.degree + 1)
    consistent = lower if all_poly else None
    if consistent == 0:
        consistent = 1
    return SurveyResult(
        per_vector=tuple(verdicts),
        global_verdict=global_verdict,
        order_lower_bound=max(lower, 1),
        consistent_with=consistent,
    )


def _beta_degrees(op, vectors, window_len, verdict, tol):
    """The survey's degrees read from the defects beta_0 .. beta_{m-1} of
    verdict, or None where the survey walks its windows instead (see
    local_isometry_survey).  <beta_j h, h> is matrices._forms' value of
    vec_inner(beta_j.apply(h), h), and ||h||^2 that of beta_0 = I; for a
    basis vector e_i it is read as (beta_j)_ii, from one stack of the float
    diagonals or the exact rows, _forms' value as the defects are finite.  A
    float form beyond float range raises the float-overflow error."""
    if window_len is None:
        window_len = default_window_len(op.dim)
    if not verdict.strict or window_len < max(3, verdict.m + 1):
        return None
    try:
        for h in vectors:
            op._check_vec(h)
    except (DimensionMismatchError, ModeMismatchError, PreconditionError):
        return None
    mode, betas, degrees = op.mode, verdict.defects, []
    kernel, basis = [b.matrix._form[1] for b in betas], list(map(_basis_index, vectors))
    others = _forms([b.matrix for b in betas], [h for h, i in zip(vectors, basis) if i is None])
    if mode == FLOAT:
        diagonals = np.stack([rows.diagonal() for rows in kernel], axis=1)       # n x m
        diag_re, diag_im = diagonals.real.tolist(), diagonals.imag.tolist()
    for i in basis:
        if i is None:
            _, re, im = zip(*[form for (form,) in next(others)])
        elif mode == FLOAT:
            re, im = diag_re[i], diag_im[i]
        else:
            re, im = [rows[i][0][i] for rows in kernel], None
        # an exact form is real, as beta_j is Hermitian, and its zero test takes
        # no magnitude; in float mode ||h||^2 is the form of beta_0 = I
        if mode == EXACT:
            values, norm = list(map(abs, re)), None
        else:
            values, norm = list(map(math.hypot, re, im)), re[0]
            if not all(map(math.isfinite, values)):
                raise PreconditionError("float overflow: a form <beta_j h, h> of the survey "
                                        "leaves float range")
        degrees.append(next((j for j in reversed(range(len(betas))) if not negligible(
            values[j], mode, tol, lambda: betas[j].float_scale * norm, f"<beta_{j} h, h>")), None))
    return [DegreeVerdict(polynomial=True, degree=d, zero_sequence=d is None) for d in degrees]


def _basis_index(h):
    """i if h is exactly the basis vector e_i, else None."""
    support = [k for k, s in enumerate(h) if s.re or s.im]
    return support[0] if len(support) == 1 and h[support[0]] == 1 else None
