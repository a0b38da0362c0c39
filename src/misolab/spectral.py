"""Jordan blocks, generalized eigenspaces, algebraic decomposition into
orthogonal unimodular-plus-nilpotent blocks, nilpotent perturbations and
orthogonality tests for generalized eigenvectors.

Exact mode certifies everything with rational arithmetic but needs
eigenvalue hints (exact root-finding of characteristic polynomials is out
of scope); float mode computes the spectrum numerically and clusters it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Optional

import numpy as np

from .diffcalc import (DEFAULT_FLOAT_TOL, _float_threshold, default_window_len, detect_degree,
                       difference_table)
from .errors import (
    EigenHintError,
    InternalCheckError,
    ModeMismatchError,
    PreconditionError,
)
from .isometry import (
    DEFAULT_DEFECT_TOL,
    is_m_isometry,
    orbit_sequence,
    strict_order,
)
from .matrices import (
    DenseOperator,
    _scalar,
    basis_vector,
    float_max_abs,
    orbit,
    polarization_candidates,
    vec_add,
    vec_inner,
    vec_is_zero,
    vec_max_abs,
    vec_norm_sq,
    vec_scale,
    vec_sub,
)
from .scalars import EXACT, FLOAT, Scalar

CLUSTER_TOL = 1e-6
# single-linkage radius escalation factor used when a cluster's kernel
# dimension does not match its algebraic multiplicity
_CLUSTER_ESCALATION = 10.0
_CLUSTER_MAX_ESCALATIONS = 7


# ---------------------------------------------------------------------------
# Jordan blocks and nilpotency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanSpec:
    z: Scalar
    size: int


def jordan_matrix(spec):
    """Upper bidiagonal k x k matrix: z on the diagonal, 1 above it."""
    if spec.size < 1:
        raise PreconditionError("Jordan block size must be positive")
    mode = spec.z.mode
    zero, one = Scalar.zero(mode), Scalar.one(mode)
    rows = []
    for i in range(spec.size):
        row = [zero] * spec.size
        row[i] = spec.z
        if i + 1 < spec.size:
            row[i + 1] = one
        rows.append(row)
    return DenseOperator(rows)


@dataclass(frozen=True)
class NilpotentInfo:
    index: int               # smallest k with N^k = 0
    witness: tuple           # f with N^(index-1) f != 0


def nilpotency_index(N, tol=DEFAULT_DEFECT_TOL):
    """NilpotentInfo for a nilpotent matrix, or None when N^dim != 0."""
    scale = max(1.0, N.max_abs()) if N.mode == FLOAT else 1.0
    power = DenseOperator.identity(N.dim, N.mode)
    prev = power
    for k in range(1, N.dim + 1):
        prev = power
        power = power @ N
        if power.is_zero(_float_threshold(tol, scale, k, f"N^{k}")):
            witness = _max_column_vector(prev)
            return NilpotentInfo(index=k, witness=witness)
    return None


def _max_column_vector(P):
    """Basis vector e_j maximizing the largest |entry| of P e_j."""
    best_j, best = 0, -1.0
    for j in range(P.dim):
        col_norm = max(P.rows[i][j].abs2().re for i in range(P.dim))
        if col_norm > best:
            best_j, best = j, col_norm
    return basis_vector(P.dim, best_j, P.mode)


# ---------------------------------------------------------------------------
# Exact rational elimination
# ---------------------------------------------------------------------------

def exact_rref(A):
    """Reduced row echelon form of an exact DenseOperator: (its nonzero rows
    as exact Scalars, pivot cols).  The common denominator of A's
    Gaussian-integer form does not change the RREF, so the elimination runs
    on the integer rows.

    Fraction-free Gauss-Jordan: row_i <- p row_i - f row_r for the pivot p,
    then row_i is divided by the gcd of its parts.  Each row stays a nonzero
    multiple of the row that division-based elimination makes, and the RREF
    is unique, so dividing each pivot row by its pivot at the end, one
    fraction per entry as x conj(p) / |p|^2, gives that elimination's rows."""
    rows = [_primitive(re, im) for re, im in A._row_parts()[1]]
    pivots = []
    r = 0
    for c in range(A.dim):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][0][c] or rows[i][1][c]),
                         None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        b_re, b_im = rows[r]
        pr, pi = b_re[c], b_im[c]
        for i, (a_re, a_im) in enumerate(rows):
            fr, fi = a_re[c], a_im[c]
            if i == r or not (fr or fi):
                continue
            rows[i] = _primitive(
                [pr * x - pi * y - fr * u + fi * v for x, y, u, v in zip(a_re, a_im, b_re, b_im)],
                [pr * y + pi * x - fr * v - fi * u for x, y, u, v in zip(a_re, a_im, b_re, b_im)])
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    out = []
    for (re, im), c in zip(rows, pivots):
        pr, pi = re[c], im[c]
        n2 = pr * pr + pi * pi
        out.append([_scalar(x * pr + y * pi, y * pr - x * pi, n2, EXACT) for x, y in zip(re, im)])
    return out, pivots


def _primitive(re, im):
    """The Gaussian-integer row (re, im) divided by the gcd of its parts."""
    g = math.gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def exact_nullspace(A):
    """Kernel basis of an exact DenseOperator."""
    red, pivots = exact_rref(A)
    zero, one = Scalar.zero(EXACT), Scalar.one(EXACT)
    basis = []
    for fc in (c for c in range(A.dim) if c not in pivots):
        v = [zero] * A.dim
        v[fc] = one
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# numpy bridging (float mode only)
# ---------------------------------------------------------------------------

def to_numpy(T):
    if T.mode != FLOAT:
        raise ModeMismatchError("numpy bridge requires float mode")
    return np.array([[s.as_complex() for s in r] for r in T.rows], dtype=complex)


def from_numpy(arr):
    return DenseOperator([[Scalar.flt(z.real, z.imag) for z in row] for row in arr])


def _vec_from_numpy(col):
    return tuple(Scalar.flt(z.real, z.imag) for z in col)


def _float_nullspace(arr, tol):
    """Kernel basis: right singular vectors whose singular value is within
    the tolerance, scaled by the largest |entry|."""
    if not np.isfinite(arr).all():
        raise PreconditionError("float overflow: a power of T - zI left float range")
    thr = max(tol, 1e-10) * max(1.0, float(np.abs(arr).max()))
    _, s, vh = np.linalg.svd(arr)
    # trailing rows of vh span the kernel
    return [_vec_from_numpy(vh[i].conj()) for i in range(len(s)) if s[i] <= thr]


# ---------------------------------------------------------------------------
# Generalized eigenspaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeneralizedEigenspace:
    eigenvalue: Scalar
    basis: tuple             # linearly independent (exact) / orthonormal (float)
    chain_depth: int         # smallest k with ker((T - zI)^k) stabilized

    @property
    def dimension(self):
        return len(self.basis)


def generalized_eigenspaces(T, eigen_hints=None, tol=DEFAULT_DEFECT_TOL):
    """One space per distinct eigenvalue; dimensions sum to dim."""
    if T.mode == EXACT:
        return _exact_eigenspaces(T, eigen_hints)
    return _float_eigenspaces(T, tol)[0]


def _exact_eigenspaces(T, hints):
    if not hints:
        raise EigenHintError(
            "exact mode requires eigen_hints (candidate eigenvalues)"
        )
    seen = []
    for z in hints:
        if any(z == w for w in seen):
            raise EigenHintError("duplicate eigenvalue hint")
        seen.append(z)
    spaces = []
    total = 0
    ident = DenseOperator.identity(T.dim, T.mode)
    for z in hints:
        depth, basis = _kernel_chain(ident, T - ident.scale(z), T.dim, exact_nullspace)
        if not basis:
            continue  # hint is not an eigenvalue; contributes nothing
        spaces.append(GeneralizedEigenspace(
            eigenvalue=z, basis=tuple(basis), chain_depth=depth))
        total += len(basis)
    if total != T.dim:
        raise EigenHintError(
            f"hints cover only {total} of {T.dim} dimensions; an eigenvalue is missing"
        )
    return spaces


def _kernel_chain(ident, M, dim, nullspace):
    """Kernels of M, M^2, ... until their dimension stabilizes.

    Returns (depth, basis): the smallest k whose kernel has the final
    dimension, and the kernel basis of M^k."""
    power = ident
    kernels = []
    for _ in range(dim):
        power = power @ M
        kernels.append(nullspace(power))
        if len(kernels) >= 2 and len(kernels[-1]) == len(kernels[-2]):
            break
    final = len(kernels[-1])
    depth = next(k + 1 for k, ker in enumerate(kernels) if len(ker) == final)
    return depth, kernels[depth - 1]


def _float_eigenspaces(T, tol):
    arr = to_numpy(T)
    eigs = np.linalg.eigvals(arr)
    scale = max(1.0, float(np.abs(eigs).max()))
    warnings = []
    radius = CLUSTER_TOL * scale
    for attempt in range(_CLUSTER_MAX_ESCALATIONS):
        clusters = _single_linkage(eigs, radius)
        spaces, consistent = _spaces_from_clusters(T, arr, clusters, tol)
        if consistent:
            if attempt > 0:
                warnings.append(
                    f"eigenvalue clustering escalated to radius {radius:.2e}"
                )
            gaps = _inter_cluster_gaps(clusters)
            if any(radius < g <= 10 * radius for g in gaps):
                warnings.append(
                    "ambiguous eigenvalue clusters within 10x the cluster radius"
                )
            return spaces, warnings
        radius *= _CLUSTER_ESCALATION
    raise InternalCheckError("eigenvalue clustering never became consistent")


def _single_linkage(eigs, radius):
    order = sorted(range(len(eigs)), key=lambda i: (eigs[i].real, eigs[i].imag))
    parent = list(range(len(eigs)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(len(eigs)):
        for j in range(i + 1, len(eigs)):
            if abs(eigs[i] - eigs[j]) <= radius:
                parent[find(i)] = find(j)
    clusters = {}
    for i in order:
        clusters.setdefault(find(i), []).append(eigs[i])
    return list(clusters.values())


def _inter_cluster_gaps(clusters):
    gaps = []
    for i in range(len(clusters)):
        for j in range(i + 1, len(clusters)):
            gaps.append(min(abs(a - b) for a in clusters[i] for b in clusters[j]))
    return gaps


def _spaces_from_clusters(T, arr, clusters, tol):
    dim = T.dim
    spaces = []
    total = 0
    for members in clusters:
        mult = len(members)
        z = complex(np.mean(members))   # mean cancels the Jordan scatter
        # a power that leaves float range is caught by _float_nullspace
        with np.errstate(over="ignore", invalid="ignore"):
            depth, basis = _kernel_chain(np.eye(dim), arr - z * np.eye(dim), dim,
                                         lambda P: _float_nullspace(P, tol))
        if len(basis) != mult:
            return None, False
        spaces.append(GeneralizedEigenspace(
            eigenvalue=Scalar.flt(z.real, z.imag),
            basis=tuple(basis),
            chain_depth=depth,
        ))
        total += mult
    if total != dim:
        return None, False
    return spaces, True


# ---------------------------------------------------------------------------
# Algebraic decomposition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlgebraicDecomposition:
    blocks: tuple                       # GeneralizedEigenspace per eigenvalue
    pairwise_gram: float                # largest cross |<u, v>| (float mode; 0.0 in exact)
    certified: bool
    failures: tuple                     # reasons certification was refused
    predicted_strict_order: Optional[int]
    warnings: tuple = ()


def algebraic_decompose(T, eigen_hints=None, tol=DEFAULT_DEFECT_TOL):
    """Split into generalized eigenspaces; certify m-isometricity iff every
    eigenvalue is unimodular and the blocks are pairwise orthogonal.

    Refusal is a value: the failures field lists which condition failed."""
    warnings = []
    if T.mode == EXACT:
        spaces = _exact_eigenspaces(T, eigen_hints)
    else:
        spaces, warnings = _float_eigenspaces(T, tol)
    failures = []
    for sp in spaces:
        a2 = sp.eigenvalue.abs2()
        if T.mode == EXACT:
            on_circle = a2 == Scalar.exact(1)
        else:
            on_circle = abs(sp.eigenvalue.modulus() - 1.0) <= tol
        if not on_circle:
            failures.append(f"eigenvalue {_fmt_scalar(sp.eigenvalue)} is not unimodular")
            break
    cross = [vec_inner(u, v)
             for i, bi in enumerate(spaces) for bj in spaces[i + 1:]
             for u in bi.basis for v in bj.basis]
    gram = float_max_abs(cross, T.mode)
    if not all(ip.is_zero(tol) for ip in cross):
        failures.append("generalized eigenspaces are not pairwise orthogonal")
    certified = not failures
    predicted = None
    if certified:
        predicted = max(2 * sp.chain_depth - 1 for sp in spaces)
    return AlgebraicDecomposition(
        blocks=tuple(spaces),
        pairwise_gram=gram,
        certified=certified,
        failures=tuple(failures),
        predicted_strict_order=predicted,
        warnings=tuple(warnings),
    )


def _fmt_scalar(s):
    try:
        return f"{float(s.re):g}{float(s.im):+g}i"
    except OverflowError:
        # an exact value beyond float range; specio imports this module
        from .specio import format_rational
        return format_rational(s)


# ---------------------------------------------------------------------------
# Nilpotent perturbation analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PerturbationResult:
    m_a: int                 # strict order of the unperturbed operator
    nu: int                  # nilpotency index of the perturbation
    m_bound: int             # m_a + 2(nu - 1)
    bound_verified: bool     # beta_{m_bound}(A + N) = 0
    strict: bool             # the strictness criterion fired
    witness: Optional[tuple]


def perturbation_analysis(A, N, tol=DEFAULT_DEFECT_TOL):
    """Bound and strictness analysis for A + N, A an m-isometry and N a
    commuting nilpotent."""
    if A.dim != N.dim or A.mode != N.mode:
        raise PreconditionError("operands must share dimension and mode")
    comm = A @ N - N @ A
    comm_thr = 0.0 if A.mode == EXACT else tol * max(1.0, A.max_abs() * N.max_abs())
    if not comm.is_zero(comm_thr):
        raise PreconditionError("operators do not commute")
    ninfo = nilpotency_index(N, tol)
    if ninfo is None:
        raise PreconditionError("perturbation is not nilpotent")
    order_a = strict_order(A, tol=tol)
    if not order_a.strict:
        raise PreconditionError(
            f"base operator is not an m-isometry within m <= {order_a.m}"
        )
    m_a, nu = order_a.m, ninfo.index
    m_bound = m_a + 2 * (nu - 1)
    bound_verified = is_m_isometry(A + N, m_bound, tol)
    strict, witness = _strictness_criterion(A, N, m_a, nu, tol)
    return PerturbationResult(
        m_a=m_a, nu=nu, m_bound=m_bound,
        bound_verified=bound_verified, strict=strict, witness=witness,
    )


def _strictness_criterion(A, N, m_a, nu, tol):
    """Search for f0 with sum_l (-1)^l C(m_a-1, l) ||A^l N^(nu-1) f0||^2 != 0.

    The map f -> that sum is the quadratic form of a Hermitian operator, so
    vanishing on the basis plus polarization combinations means it vanishes
    identically."""
    dim, mode = A.dim, A.mode
    P = N.power(nu - 1)
    for f0 in polarization_candidates([basis_vector(dim, j, mode) for j in range(dim)]):
        val = Scalar.zero(mode)
        scale = 0.0
        for l, w in enumerate(islice(orbit(A, P.apply(f0)), m_a)):
            t = vec_norm_sq(w)
            c = (-1) ** l * math.comb(m_a - 1, l)
            val = val + t * c
            if mode == FLOAT:
                scale += math.comb(m_a - 1, l) * abs(t.re)
        if not val.is_zero(tol * max(1.0, scale)):
            return True, f0
    return False, None


# ---------------------------------------------------------------------------
# Cyclic subspaces and orthogonality of generalized eigenvectors
# ---------------------------------------------------------------------------

def cyclic_subspace(T, h, tol=DEFAULT_DEFECT_TOL):
    """Basis h, Th, ..., T^(d-1)h up to the first linear dependence."""
    if vec_is_zero(h, 0.0):
        raise PreconditionError("cyclic subspace of the zero vector")
    basis = []
    ortho = []   # orthogonalized copies used only for the dependence test
    for v in islice(orbit(T, h), T.dim):
        w = v
        for q in ortho:
            coeff = vec_inner(w, q) / vec_norm_sq(q)
            w = vec_sub(w, vec_scale(coeff, q))
        thr = 0.0
        if T.mode == FLOAT:
            thr = _float_threshold(tol, max(1.0, vec_norm_sq(v).re), 1, "the cyclic subspace")
            thr = max(thr, _float_threshold(1.0, thr, 2, "the cyclic subspace"))
        if vec_norm_sq(w).is_zero(thr):
            break
        basis.append(v)
        ortho.append(w)
    return basis


def _membership_check(T, h, z, tol):
    """h must lie in the generalized eigenspace of z: (T - zI)^dim h = 0."""
    M = (T - DenseOperator.identity(T.dim, T.mode).scale(z)).power(T.dim)
    img = M.apply(h)
    thr = 0.0 if T.mode == EXACT else tol * max(1.0, M.max_abs()) * max(1.0, vec_max_abs(h))
    if not vec_is_zero(img, thr):
        raise PreconditionError(
            "vector is not in the claimed generalized eigenspace"
        )


def _unimodular_check(z, mode, tol):
    if mode == EXACT:
        if z.abs2() != Scalar.exact(1):
            raise PreconditionError("eigenvalue is not unimodular")
    elif abs(z.modulus() - 1.0) > max(tol, 1e-8):
        raise PreconditionError("eigenvalue is not unimodular")


def _pair_preconditions(T, h1, h2, z1, z2, tol, window_len):
    """Checks shared by the orthogonality tests: z1 != z2 unimodular, h1 and
    h2 in their generalized eigenspaces.  Returns the window length, whether
    z1 = -z2, and the orbit-polynomiality test over that window."""
    _unimodular_check(z1, T.mode, tol)
    _unimodular_check(z2, T.mode, tol)
    if (z1 - z2).is_zero(tol):
        raise PreconditionError("eigenvalues must be distinct")
    _membership_check(T, h1, z1, tol)
    _membership_check(T, h2, z2, tol)
    if window_len is None:
        window_len = default_window_len(T.dim)

    def poly(v):
        # a polynomial orbit norm on C^dim has degree at most 2*dim - 2; a
        # higher degree only means the window's last differences vanished
        verdict = detect_degree(orbit_sequence(T, v, window_len), tol)
        return verdict.polynomial and (verdict.zero_sequence
                                       or verdict.degree <= 2 * T.dim - 2)

    return window_len, (z1 + z2).is_zero(tol), poly


def _default_eps_pair(mode):
    return (Scalar.one(mode), Scalar.i_unit(mode))


def _validate_eps_pair(pair, mode):
    e1, e2 = pair
    if e1 not in (Scalar.one(mode), -Scalar.one(mode)):
        raise PreconditionError("first epsilon must be 1 or -1")
    if e2 not in (Scalar.i_unit(mode), -Scalar.i_unit(mode)):
        raise PreconditionError("second epsilon must be i or -i")


@dataclass(frozen=True)
class OrthoTestResult:
    case: str                       # "opposite" (z1 = -z2) or "generic"
    orbit_polynomial: bool          # ||T^n (h1+h2)||^2 polynomial in the window
    eps_orbits_polynomial: Optional[tuple]
    re_inner_vanishes: bool
    mixed_inner_vanishes: bool
    re_only: bool
    agrees_with_theory: bool
    diagnostics: dict               # largest inner products (float mode; empty in exact)


def ortho_test_generalized(T, h1, h2, z1, z2, window_len=None,
                           tol=DEFAULT_FLOAT_TOL, eps_pair=None):
    """Finite-window check of the orthogonality criteria for generalized
    eigenvectors at distinct unimodular eigenvalues."""
    mode = T.mode
    window_len, opposite, poly = _pair_preconditions(T, h1, h2, z1, z2, tol, window_len)
    if eps_pair is None:
        eps_pair = _default_eps_pair(mode)
    else:
        _validate_eps_pair(eps_pair, mode)

    main_poly = poly(vec_add(h1, h2))
    eps_polys = None
    if opposite:
        eps_polys = tuple(poly(vec_add(vec_scale(e, h1), h2)) for e in eps_pair)

    # conclusions over the window
    inners = [vec_inner(u, v)
              for u, v in islice(zip(orbit(T, h1), orbit(T, h2)), window_len)]
    inner_thr = 0.0 if mode == EXACT else _float_threshold(
        tol * max(1.0, vec_max_abs(h1) * vec_max_abs(h2)), max(1.0, T.max_abs()), window_len,
        f"the inner products over {window_len} steps")
    re_ok = all(Scalar(mode, ip.re, 0).is_zero(inner_thr) for ip in inners)   # Re <u, v>
    full_ok = all(ip.is_zero(inner_thr) for ip in inners)
    diagnostics = {}
    if mode == FLOAT:
        diagnostics = {"max_re_inner": max(abs(ip.re) for ip in inners),
                       "max_abs_inner": max(ip.modulus() for ip in inners)}

    if opposite:
        agree = (not main_poly or re_ok) and (not (eps_polys and all(eps_polys)) or full_ok)
    else:
        agree = not main_poly or full_ok
    return OrthoTestResult(
        case="opposite" if opposite else "generic",
        orbit_polynomial=main_poly,
        eps_orbits_polynomial=eps_polys,
        re_inner_vanishes=re_ok,
        mixed_inner_vanishes=full_ok,
        re_only=re_ok and not full_ok,
        agrees_with_theory=agree,
        diagnostics=diagnostics,
    )


# ---------------------------------------------------------------------------
# Jordan-pair equivalences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JordanPairReport:
    cross_gram_zero: bool            # (i)
    translate_orbits_polynomial: bool  # (ii)
    one_sided_polynomial: bool       # (iii)
    sampled_pairs_polynomial: bool   # (iv)
    restriction_is_isometry: bool    # (v)
    restricted_order: Optional[int]
    all_agree: bool

    def conditions(self):
        return (self.cross_gram_zero, self.translate_orbits_polynomial,
                self.one_sided_polynomial, self.sampled_pairs_polynomial,
                self.restriction_is_isometry)


def jordan_pair_equivalences(T, h1, h2, z1, z2, tol=DEFAULT_FLOAT_TOL,
                             seed=0, window_len=None):
    """Evaluate the five equivalent orthogonality conditions for a pair of
    Jordan blocks at finite scale and check that they agree.

    Condition (iv) is sampled on 16 random pairs rather than all of them;
    sufficiency at test scale follows from polarization."""
    mode = T.mode
    window_len, opposite, poly = _pair_preconditions(T, h1, h2, z1, z2, tol, window_len)
    rng = random.Random(seed)
    c1 = cyclic_subspace(T, h1, tol)
    c2 = cyclic_subspace(T, h2, tol)
    inner_thr = 0.0 if mode == EXACT else tol * max(
        1.0, max(vec_max_abs(v) for v in c1) * max(vec_max_abs(v) for v in c2))

    cond_i = all(
        vec_inner(u, v).is_zero(inner_thr) for u in c1 for v in c2
    )

    if opposite:
        eps_pair = _default_eps_pair(mode)
        cond_ii = all(
            poly(vec_add(vec_scale(e, u), h2)) for e in eps_pair for u in c1
        )
    else:
        cond_ii = all(poly(vec_add(u, h2)) for u in c1)

    span_samples = list(c1) + [_random_combo(c1, rng, mode) for _ in range(4)]
    cond_iii = all(poly(vec_add(g1, h2)) for g1 in span_samples)

    cond_iv = True
    for _ in range(16):
        g1 = _random_combo(c1, rng, mode)
        g2 = _random_combo(c2, rng, mode)
        if not poly(vec_add(g1, g2)):
            cond_iv = False
            break

    order = _restricted_strict_order(T, c1 + c2, tol)
    cond_v = order is not None

    conds = (cond_i, cond_ii, cond_iii, cond_iv, cond_v)
    return JordanPairReport(
        cross_gram_zero=cond_i,
        translate_orbits_polynomial=cond_ii,
        one_sided_polynomial=cond_iii,
        sampled_pairs_polynomial=cond_iv,
        restriction_is_isometry=cond_v,
        restricted_order=order,
        all_agree=len(set(conds)) == 1,
    )


def _random_combo(basis, rng, mode):
    from fractions import Fraction

    out = None
    nonzero = False
    for b in basis:
        if mode == EXACT:
            c = Scalar.exact(Fraction(rng.randint(-3, 3), rng.choice([1, 2])),
                             Fraction(rng.randint(-3, 3), rng.choice([1, 2])))
        else:
            c = Scalar.flt(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if not c.is_zero(0.0):
            nonzero = True
        term = vec_scale(c, b)
        out = term if out is None else vec_add(out, term)
    if not nonzero:
        return _random_combo(basis, rng, mode)
    return out


def _restricted_strict_order(T, spanning, tol):
    """Smallest m making T restricted to span(spanning) an m-isometry, else None.

    Exact mode tests the quadratic-form identity on a spanning set plus
    polarization combinations (the raw cyclic basis is not orthonormal, so
    the defect matrix route is unavailable); float mode builds the
    restriction matrix in an orthonormalized basis."""
    if T.mode == FLOAT:
        R = _restriction_matrix(T, spanning, tol)
        verdict = strict_order(R, tol=max(tol, DEFAULT_DEFECT_TOL))
        return verdict.m if verdict.strict else None
    # the form F_m(v, v) = sum_k (-1)^k C(m,k) ||T^k v||^2 is
    # (-1)^m (Delta^m gamma_v)(0), row m of v's difference table at 0
    m_max = 2 * len(spanning) + 1
    tables = [difference_table(orbit_sequence(T, v, m_max + 1), m_max)
              for v in polarization_candidates(spanning)]
    for m in range(1, m_max + 1):
        if not any(t._plain_row(m)[0] for t in tables):
            return m
    return None


def _restriction_matrix(T, spanning, tol):
    """Matrix of T on the invariant span of the given vectors, in an
    orthonormalized basis (float mode)."""
    cols = []
    for v in spanning:
        w = np.array([s.as_complex() for s in v])
        for q in cols:
            w = w - np.vdot(q, w) * q
        nw = np.linalg.norm(w)
        if nw > tol * max(1.0, np.linalg.norm([s.as_complex() for s in v])):
            cols.append(w / nw)
    Q = np.column_stack(cols)
    arr = to_numpy(T)
    return from_numpy(Q.conj().T @ arr @ Q)


# ---------------------------------------------------------------------------
# Spectrum diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectrumCheck:
    all_on_circle: bool
    spectrum: tuple         # Scalars (float mode: cluster representatives)
    moduli: tuple


def unimodular_spectrum_check(T, tol=DEFAULT_DEFECT_TOL, eigen_hints=None):
    """Necessary-condition filter: eigenvalue moduli vs. the unit circle."""
    if T.mode == EXACT:
        spaces = _exact_eigenspaces(T, eigen_hints)
        spectrum = tuple(sp.eigenvalue for sp in spaces)
        on_circle = all(sp.eigenvalue.abs2() == Scalar.exact(1) for sp in spaces)
    else:
        eigs = np.linalg.eigvals(to_numpy(T))
        spectrum = tuple(Scalar.flt(z.real, z.imag) for z in eigs)
        on_circle = all(abs(abs(z) - 1.0) <= tol for z in eigs)
    moduli = tuple(s.modulus() for s in spectrum)
    return SpectrumCheck(all_on_circle=on_circle, spectrum=spectrum, moduli=moduli)
