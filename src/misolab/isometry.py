"""Defect operators, m-isometry predicates and strict-order detection.

The defect of order m is the alternating binomial sum
beta_m(T) = sum_k (-1)^k C(m,k) T*^k T^k; its vanishing defines
m-isometricity.  Float-mode zero tests scale the tolerance by the actual
magnitude of the summed terms, which bounds the cancellation error of the
alternating sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import add, mul
from typing import Optional

from .diffcalc import OrbitSequence, default_window_len, detect_degree
from .errors import InternalCheckError, PreconditionError, WindowTooShortError
from .matrices import (
    DenseOperator,
    FiniteVector,
    _orbit_inners,
    _scalar,
    basis_vector,
    float_max_abs,
    orbit,
    polarization_candidates,
    vec_add,
    vec_inner,
    vec_scale,
)
from .scalars import EXACT, FLOAT, Scalar, falling_factorial

DEFAULT_DEFECT_TOL = 1e-8


@dataclass(frozen=True)
class DefectOperator:
    m: int
    matrix: DenseOperator
    float_scale: float = 1.0   # magnitude of the summed terms (float mode only)

    def threshold(self, tol):
        return tol * self.float_scale


@dataclass(frozen=True)
class OrderVerdict:
    strict: bool                      # True: StrictOrder(m); False: NotWithinBound(m_max)
    m: int                            # the order, or the exhausted bound
    witness: Optional[tuple] = None   # h with <beta_{m-1} h, h> != 0, for m >= 2
    residual: float = 0.0             # max |beta_m| entry (float diagnostics)

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
    """beta_0, beta_1, ... as DefectOperators, without end, from one walk of
    the Gram operators.  beta_m is sum_k (-1)^k C(m,k) G_k on the parts of
    the Gram entries over the lcm of their denominators (1 in float mode),
    added from k = 0 up; each G_k is taken apart, and in float mode
    measured, once.  Float sums stay on the real and imaginary parts, not
    the complex rows of the float kernels: before Python 3.14, int * complex
    goes through complex(int), which can flip the sign of a zero."""
    mode, n = T.mode, T.dim
    forms, sizes, den = [], [], 1
    for m, g in enumerate(_grams(T)):
        forms.append(g._row_parts() if mode == EXACT else
                     (1, [([s.re for s in r], [s.im for s in r]) for r in g.rows]))
        den = math.lcm(den, forms[-1][0])
        coeffs = [(-1) ** k * math.comb(m, k) * (den // d) for k, (d, _) in enumerate(forms)]
        # entry (i, j) sums the (i, j) parts of G_0 .. G_m
        matrix = DenseOperator([
            [_scalar(reduce(add, map(mul, coeffs, re)), reduce(add, map(mul, coeffs, im)),
                     den, mode)
             for re, im in zip(zip(*(f[i][0] for _, f in forms)),
                               zip(*(f[i][1] for _, f in forms)))]
            for i in range(n)])
        if mode == EXACT:
            yield DefectOperator(m=m, matrix=matrix)
            continue
        sizes.append(max(g.max_abs(), 1.0))
        scale = sum(math.comb(m, k) * size for k, size in enumerate(sizes))
        if not (math.isfinite(scale) and all(math.isfinite(x) for r in matrix.rows
                                             for s in r for x in (s.re, s.im))):
            raise PreconditionError(
                f"float overflow: the Gram operators T*^k T^k for k <= {m} leave float range")
        yield DefectOperator(m=m, matrix=matrix, float_scale=scale)


def defect(T, m):
    """beta_m(T), computed by the definitional binomial sum.

    The recurrence beta_{m+1} = beta_m - T* beta_m T is an implementation
    device used elsewhere for speed; here the two routes are computed
    side by side and must agree.
    """
    if m < 0:
        raise PreconditionError("defect order must be nonnegative")
    d = next(islice(_defects(T), m, None))
    rec = _defect_by_recurrence(T, m)
    if not (d.matrix - rec).is_zero(1e-12 * d.float_scale):
        raise InternalCheckError(
            f"defect recurrence and binomial sum disagree at m={m}"
        )
    return d


def _defect_by_recurrence(T, m):
    beta = DenseOperator.identity(T.dim, T.mode)
    Tstar = T.adjoint()
    for _ in range(m):
        beta = beta - Tstar @ beta @ T
    return beta


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
    beta_{m-1}; NotWithinBound otherwise."""
    if m_max is None:
        m_max = default_m_max(T)
    if m_max < 1:
        raise PreconditionError("m_max must be at least 1")
    prev = None
    for d in islice(_defects(T), 1, m_max + 1):
        m = d.m
        if d.matrix.is_zero(d.threshold(tol)):
            witness = None
            if m >= 2:
                witness = _nonzero_form_witness(prev, tol)
                if witness is None:
                    raise InternalCheckError(
                        f"beta_{m - 1} reported nonzero but no witness found"
                    )
            return OrderVerdict(strict=True, m=m, witness=witness,
                                residual=_residual(d.matrix))
        prev = d
    return OrderVerdict(strict=False, m=m_max, residual=_residual(prev.matrix))


def _residual(beta):
    return float_max_abs((s for r in beta.rows for s in r), beta.mode)


def _nonzero_form_witness(d, tol):
    """A vector h with <beta h, h> != 0 for a nonzero Hermitian beta.

    Searches the diagonal first; a Hermitian matrix with vanishing diagonal
    quadratic form on all e_j and on e_i + e_j, e_i + i e_j is zero, so the
    polarization pairs complete the search.
    """
    beta = d.matrix
    dim, mode = beta.dim, beta.mode
    # quadratic-form values can sit a factor ~2 below the largest entry,
    # hence the slack on the acceptance threshold
    thr = d.threshold(tol) * 0.25 if mode == FLOAT else 0.0
    best, best_val = None, thr
    for h in polarization_candidates([basis_vector(dim, j, mode) for j in range(dim)]):
        form = vec_inner(beta.apply(h), h)
        # the form is real; exact mode ranks the exact value, never a float
        val = form.modulus() if mode == FLOAT else abs(form.re)
        if val > best_val:
            best, best_val = h, val
    return best


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

    Precondition: T is an m-isometry (checked)."""
    if not is_m_isometry(T, m, tol):
        raise PreconditionError(f"operator is not an {m}-isometry")
    betas = [defect(T, k) for k in range(m)]
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
        if not (lhs - rhs).is_zero(tol * scale * max(1.0, float(n) ** m)):
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
    reported as 'consistent with m-isometry' for m = max degree + 1.  The
    per-vector degree tests use DEFAULT_FLOAT_TOL.
    """
    vectors = list(vectors)
    if not vectors:
        raise PreconditionError("survey needs at least one vector")
    global_verdict = None
    if isinstance(op, DenseOperator):
        global_verdict = strict_order(op, m_max=m_max, tol=defect_tol)
    verdicts = []
    for h in vectors:
        verdicts.append(detect_degree(orbit_sequence(op, h, window_len)))
    lower = 0
    all_poly = True
    for v in verdicts:
        if not v.polynomial:
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

