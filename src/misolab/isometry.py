"""Defect operators, m-isometry predicates and strict-order detection.

The defect of order m, beta_m(T) = sum_k (-1)^k C(m,k) T*^k T^k, vanishes
exactly on m-isometries.  It is walked by the recurrence beta_{m+1} =
beta_m - T* beta_m T, which does not cancel as that binomial sum does, and
defect() cross-checks the two.  Float zero tests take zero_threshold of
the walk's running scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial, reduce
from itertools import count, islice
from operator import add
from typing import Optional

import numpy as np

from .diffcalc import DegreeVerdict, OrbitSequence, default_window_len, detect_degree
from .errors import (
    DimensionMismatchError,
    InternalCheckError,
    ModeMismatchError,
    PreconditionError,
    WindowTooShortError,
)
from .matrices import (
    DenseOperator,
    FiniteVector,
    _forms,
    _orbit_inners,
    _orbit_windows,
    _polarization_values,
    _polarization_vector,
    basis_vector,
    orbit,
    polarization_pairs,
    vec_add,
    vec_inner,
    vec_scale,
)
from .scalars import EXACT, FLOAT, Scalar, falling_factorial, zero_threshold

DEFAULT_DEFECT_TOL = 1e-8


@dataclass(frozen=True)
class DefectOperator:
    m: int
    matrix: DenseOperator
    float_scale: float = 1.0   # the walk's running scale (float mode only)

    def threshold(self, tol):
        return zero_threshold(self.matrix.mode, tol, lambda: self.float_scale, f"beta_{self.m}")


@dataclass(frozen=True)
class OrderVerdict:
    strict: bool                      # True: StrictOrder(m); False: NotWithinBound(m_max)
    m: int                            # the order, or the exhausted bound
    witness: Optional[tuple] = None   # h with <beta_{m-1} h, h> != 0, for m >= 2
    residual: float = 0.0             # max |beta_m| entry (float diagnostics)
    # the walked beta_0 .. beta_{m-1} (.. beta_{m_max} if not strict)
    defects: tuple = field(default=(), compare=False, repr=False)

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
    """beta_0 = I, beta_1, ... as DefectOperators, without end, by the
    recurrence beta_{m+1} = beta_m - T* beta_m T on the kernels.  A float
    beta_m's scale is the running maximum of |beta_j| + |T* beta_j T| over
    j < m (1 for beta_0): past the true order both terms are rounding
    noise, and the last step's alone would compare noise with noise."""
    Tstar = T.adjoint()
    beta, scale = DenseOperator.identity(T.dim, T.mode), 1.0
    for m in count():
        yield DefectOperator(m=m, matrix=beta, float_scale=scale)
        step = Tstar @ beta @ T
        if T.mode == FLOAT:
            scale = max(scale, beta.max_abs() + step.max_abs())
        beta = beta - step
        _check_finite(beta, scale, f"the defects beta_k for k <= {m + 1}")


def _check_finite(op, scale, what):
    """Raise the float-overflow error if a float op or its scale left float range."""
    if op.mode == FLOAT and not (math.isfinite(scale) and np.isfinite(op._row_parts()[1]).all()):
        raise PreconditionError(f"float overflow: {what} leave float range")


def defect(T, m):
    """beta_m(T), from the recurrence walk of _defects.

    The definitional binomial sum sum_k (-1)^k C(m,k) T*^k T^k is computed
    beside it as a cross-check: the two must agree, exactly in exact mode
    and within 1e-12 of the binomial sum's own scale,
    sum_k C(m,k) max(|T*^k T^k|, 1), in float mode.
    """
    if m < 0:
        raise PreconditionError("defect order must be nonnegative")
    d = next(islice(_defects(T), m, None))
    grams = list(islice(_grams(T), m + 1))
    binomial = reduce(add, (g.scale((-1) ** k * math.comb(m, k)) for k, g in enumerate(grams)))
    scale = (sum(math.comb(m, k) * max(g.max_abs(), 1.0) for k, g in enumerate(grams))
             if T.mode == FLOAT else 1.0)
    _check_finite(binomial, scale, f"the Gram operators T*^k T^k for k <= {m}")
    if not (d.matrix - binomial).is_zero(zero_threshold(T.mode, 1e-12, lambda: scale, f"beta_{m}")):
        raise InternalCheckError(f"defect recurrence and binomial sum disagree at m={m}")
    return d


def is_m_isometry(T, m, tol=DEFAULT_DEFECT_TOL):
    """True iff beta_m(T) = 0 (exactly, or within the scaled tolerance)."""
    if m < 1:
        raise PreconditionError("m-isometry requires m >= 1")
    d = defect(T, m)
    return d.matrix.is_zero(d.threshold(tol))


def default_m_max(T):
    # algebraic strict orders cannot exceed 2*dim - 1; slack of 2
    return 2 * T.dim + 1


def strict_order(T, m_max=None, tol=DEFAULT_DEFECT_TOL):
    """Smallest m <= m_max with beta_m(T) = 0, with a nonzero witness for
    beta_{m-1}; NotWithinBound otherwise.  The verdict keeps the defects it
    walked, beta_0 .. beta_{m-1}, or beta_0 .. beta_{m_max} if not strict."""
    if m_max is None:
        m_max = default_m_max(T)
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    walk = _defects(T)
    walked = [next(walk)]
    for d in islice(walk, m_max):
        m = d.m
        if d.matrix.is_zero(d.threshold(tol)):
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


def _residual(beta):
    return 0.0 if beta.mode == EXACT else beta.max_abs()


def _nonzero_form_witness(d, tol):
    """A vector h with <beta h, h> != 0 for a nonzero Hermitian beta: the first
    best of e_a, e_a + e_b and e_a + i e_b (polarization_pairs), on all of
    which only a zero Hermitian form vanishes.  The values come from
    matrices._polarization_values (four entries each in exact mode, the
    vector loop's bits in float mode), and only the winner is built."""
    # quadratic-form values can sit a factor ~2 below the largest entry,
    # hence the slack on the acceptance threshold
    best, best_val = None, d.threshold(tol) * 0.25
    for c, val in zip(polarization_pairs(d.matrix.dim), _polarization_values(d.matrix)):
        if val > best_val:
            best, best_val = c, val
    return None if best is None else _polarization_vector(
        partial(basis_vector, d.matrix.dim, mode=d.matrix.mode), *best)


def orbit_sequence(T, h, window_len=None):
    """gamma_{T,h}: the window of squared orbit norms ||T^n h||^2.

    T is a DenseOperator, whose window _orbit_inners steps on its kept
    parts, or any operator exposing apply() on the vectors it is given,
    walked by orbit(); the default window is default_window_len(dim) for a
    dense operator and 16 otherwise."""
    dense = isinstance(T, DenseOperator)
    if window_len is None:
        window_len = default_window_len(T.dim) if dense else 16
    if window_len < 2:
        raise WindowTooShortError("orbit window must hold at least 2 samples")
    if dense:
        return OrbitSequence(_orbit_inners(T, h, h, window_len))
    return OrbitSequence(_generic_inner(v, v) for v in islice(orbit(T, h), window_len))


def newton_expansion_check(T, m, n_max, tol=DEFAULT_DEFECT_TOL):
    """Verify T*^n T^n = sum_{k<m} (n)_k (-1)^k / k! beta_k(T) for n <= n_max.

    Precondition: T is an m-isometry (checked).  The beta_k come from one
    walk: for n < m the identity is defect()'s binomial cross-check of beta_n."""
    if not is_m_isometry(T, m, tol):
        raise PreconditionError(f"operator is not an {m}-isometry")
    betas = list(islice(_defects(T), m))
    scale = sum(b.float_scale for b in betas)
    ok = True
    Tn = DenseOperator.identity(T.dim, T.mode)
    for n in range(n_max + 1):
        lhs = Tn.adjoint() @ Tn
        rhs = DenseOperator.zeros(T.dim, T.mode)
        for k in range(m):
            c = falling_factorial(n, k) * (-1) ** k
            coeff = Scalar.from_int(c, T.mode) / Scalar.from_int(math.factorial(k), T.mode)
            rhs = rhs + betas[k].matrix.scale(coeff)
        thr = zero_threshold(T.mode, tol, lambda: scale * max(1.0, float(n) ** m), f"T*^{n} T^{n}")
        if not (lhs - rhs).is_zero(thr):
            ok = False
        Tn = Tn @ T
    return ok


class DefectForm:
    """The sesquilinear defect form F_{T;k}(f,g) = sum_j (-1)^j C(k,j) <T^j f, T^j g>.

    Uses only applications of T and inner products, so it is available on
    finitely supported sequence spaces where no adjoint exists.
    """

    def __init__(self, op, k):
        if k < 0:
            raise PreconditionError("form order must be nonnegative")
        self.op = op
        self.k = k

    def __call__(self, f, g):
        acc = None
        walks = zip(orbit(self.op, f), orbit(self.op, g))
        for j, (u, v) in enumerate(islice(walks, self.k + 1)):
            term = _generic_inner(u, v) * ((-1) ** j * math.comb(self.k, j))
            acc = term if acc is None else acc + term
        return acc


def defect_form(op, k):
    return DefectForm(op, k)


def _generic_inner(u, v):
    if isinstance(u, FiniteVector):
        return u.inner(v)
    return vec_inner(u, v)


def _generic_add(u, v):
    if isinstance(u, FiniteVector):
        return u.add(v)
    return vec_add(u, v)


def _generic_scale(c, u):
    if isinstance(u, FiniteVector):
        return u.scale(c)
    return vec_scale(c, u)


def polarization_reconstruct(quad, h, h0):
    """Recover phi(h, h) from the three samples phi(h0 + j h), j = 0, 1, 2.

    quad maps a vector to the diagonal value phi(v, v) of a form additive
    in each slot; the result is independent of h0 for such forms.
    """
    acc = None
    for j in range(3):
        c = (-1) ** j * math.comb(2, j)
        v = _generic_add(h0, _generic_scale(Scalar.from_int(j, _vec_mode(h)), h))
        term = quad(v) * c
        acc = term if acc is None else acc + term
    return acc / Scalar.from_int(2, _vec_mode(h))


def _vec_mode(v):
    if isinstance(v, FiniteVector):
        return v.mode
    return v[0].mode


def _survey_windows(op, vectors, window_len):
    """orbit_sequence's sample windows of the vectors on the dense operator
    op, from one _orbit_windows walk.  The walk stops before the first
    vector apply refuses, and takes none if the window is too short; the
    survey's loop hands those to orbit_sequence, which raises its error
    where the vector-by-vector loop did."""
    if window_len is None:
        window_len = default_window_len(op.dim)
    walked = []
    for h in vectors if window_len >= 2 else ():
        try:
            op._check_vec(h)
        except (DimensionMismatchError, ModeMismatchError):
            break
        walked.append((h, h))
    return _orbit_windows(op, walked, window_len)


@dataclass(frozen=True)
class SurveyResult:
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
    D - k points.  In float mode each <beta_j h, h> is a zero-test decision
    against zero_threshold(defect_tol, beta_j's float_scale * ||h||^2), and
    a value or threshold beyond float range raises, as an overflowing orbit
    sample does.  Otherwise each degree is detect_degree's verdict on the
    orbit window, which certifies nothing beyond it.
    """
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("survey needs at least one vector")
    global_verdict, verdicts, windows = None, None, []
    if isinstance(op, DenseOperator):
        global_verdict = strict_order(op, m_max=m_max, tol=defect_tol)
        verdicts = _beta_degrees(op, vectors, window_len, global_verdict, defect_tol)
        if verdicts is None:
            windows = _survey_windows(op, vectors, window_len)
    if verdicts is None:
        verdicts = [detect_degree(OrbitSequence(windows[j]) if j < len(windows)
                                  else orbit_sequence(op, h, window_len))
                    for j, h in enumerate(vectors)]
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
    local_isometry_survey).  Each <beta_j h, h> is matrices._forms' value of
    vec_inner(beta_j.apply(h), h), and ||h||^2 that of beta_0 = I; a float
    form beyond float range raises the float-overflow error."""
    if window_len is None:
        window_len = default_window_len(op.dim)
    if not verdict.strict or window_len < max(3, verdict.m + 1):
        return None
    try:
        for h in vectors:
            op._check_vec(h)
    except (DimensionMismatchError, ModeMismatchError):
        return None
    mode, betas, degrees = op.mode, verdict.defects, []
    for forms in _forms([b.matrix for b in betas], vectors):
        # an exact form is real, as beta_j is Hermitian, and its zero test takes
        # no magnitude; in float mode ||h||^2 is the form of beta_0 = I
        if mode == EXACT:
            values, norm = [abs(re) for ((_, re, _),) in forms], None
        else:
            values, norm = [math.hypot(re, im) for ((_, re, im),) in forms], forms[0][0][1]
            if not all(map(math.isfinite, values)):
                raise PreconditionError("float overflow: a form <beta_j h, h> of the survey "
                                        "leaves float range")
        degrees.append(next((j for j in reversed(range(len(betas))) if values[j] > zero_threshold(
            mode, tol, lambda: betas[j].float_scale * norm, f"<beta_{j} h, h>")), None))
    return [DegreeVerdict(polynomial=True, degree=d, zero_sequence=d is None) for d in degrees]
