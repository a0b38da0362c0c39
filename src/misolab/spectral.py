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
from functools import partial
from itertools import islice
from typing import Optional

import numpy as np

from .diffcalc import DEFAULT_FLOAT_TOL, default_window_len, detect_degree
from .errors import (
    EigenHintError,
    ModeMismatchError,
    PreconditionError,
)
from .isometry import (
    DEFAULT_DEFECT_TOL,
    _defects,
    is_m_isometry,
    orbit_sequence,
    strict_order,
)
from .matrices import (
    DenseOperator,
    _forms,
    _orbit_windows,
    _polarization_values,
    _polarization_vector,
    _scalar,
    _vec_inners,
    basis_vector,
    float_max_abs,
    orbit,
    polarization_pairs,
    vec_add,
    vec_inner,
    vec_is_zero,
    vec_max_abs,
    vec_norm_sq,
    vec_scale,
    vec_sub,
)
from .scalars import EXACT, FLOAT, Scalar, zero_threshold

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
    power = DenseOperator.identity(N.dim, N.mode)
    prev = power
    for k in range(1, N.dim + 1):
        prev = power
        power = power @ N
        if power.is_zero(zero_threshold(N.mode, tol, lambda: max(1.0, N.max_abs()) ** k, f"N^{k}")):
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
    as exact Scalars, pivot cols)."""
    rows, pivots = _exact_elimination(A)
    return [[_rref_entry(row, c, j) for j in range(A.dim)] for row, c in zip(rows, pivots)], pivots


def _exact_elimination(A):
    """(the Gaussian-integer rows of exact_rref, pivot cols).  The common
    denominator of A's Gaussian-integer form does not change the RREF, so
    the elimination runs on the integer rows.

    Fraction-free Gauss-Jordan: row_i <- p row_i - f row_r for the pivot p,
    then row_i is divided by the gcd of its parts.  Each row stays a nonzero
    multiple of the row that division-based elimination makes, and the RREF
    is unique, so dividing each pivot row by its pivot (_rref_entry) gives
    that elimination's rows."""
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
    return rows[:r], pivots


def _rref_entry(row, c, j, sign=1):
    """sign times entry x of an integer row over its pivot p at c: x conj(p) / |p|^2."""
    re, im = row
    pr, pi, x, y = re[c], im[c], sign * re[j], sign * im[j]
    return _scalar(x * pr + y * pi, y * pr - x * pi, pr * pr + pi * pi, EXACT)


def _primitive(re, im):
    """The Gaussian-integer row (re, im) divided by the gcd of its parts."""
    g = math.gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def exact_nullspace(A):
    """Kernel basis of an exact DenseOperator, read from the integer rows
    of the elimination: only the returned entries are made Scalars."""
    rows, pivots = _exact_elimination(A)
    zero, one = Scalar.zero(EXACT), Scalar.one(EXACT)
    basis = []
    for fc in (c for c in range(A.dim) if c not in pivots):
        v = [zero] * A.dim
        v[fc] = one
        for row, pc in zip(rows, pivots):
            v[pc] = _rref_entry(row, pc, fc, -1)
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# numpy bridging (float mode only)
# ---------------------------------------------------------------------------

def to_numpy(T):
    if T.mode != FLOAT:
        raise ModeMismatchError("numpy bridge requires float mode")
    re, im = T._row_parts()[1]
    arr = np.empty(re.shape, dtype=complex)
    arr.real, arr.imag = re, im
    return arr


def from_numpy(arr):
    return DenseOperator([[Scalar.flt(z.real, z.imag) for z in row] for row in arr])


def _float_nullspace(arr, tol):
    """The conjugated kernel basis, unboxed: the rows of vh whose singular
    value is within the tolerance, scaled by the largest |entry|."""
    if not np.isfinite(arr).all():
        raise PreconditionError("float overflow: a power of T - zI left float range")
    thr = zero_threshold(FLOAT, max(tol, 1e-10), lambda: max(1.0, float(np.abs(arr).max())),
                         "the kernel")
    _, s, vh = np.linalg.svd(arr)
    # trailing rows of vh span the kernel
    return vh[s <= thr]


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
    dimension, and nullspace's basis of M^k (unboxed vh rows in float
    mode, where a call runs it once per distinct cluster mean)."""
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
    """(spaces, warnings): numpy's eigenvalues clustered by single linkage
    from radius CLUSTER_TOL * max(1, max |lambda|), tenfold per attempt for
    at most _CLUSTER_MAX_ESCALATIONS, until each cluster mean z has a kernel
    chain of T - zI as long as its cluster; a warning names the radius.  The
    attempts share one dict of chains by the bits of z: the same z, the
    same T - zI and SVDs.  If no attempt is consistent the tolerance cannot
    separate the clusters, and a PreconditionError names the last radius."""
    arr = to_numpy(T)
    eigs = np.linalg.eigvals(arr)
    scale = max(1.0, float(np.abs(eigs).max()))
    warnings = []
    chains = {}
    radius = CLUSTER_TOL * scale
    for attempt in range(_CLUSTER_MAX_ESCALATIONS):
        if attempt:
            radius *= _CLUSTER_ESCALATION
        clusters = _single_linkage(eigs, radius)
        spaces = _spaces_from_clusters(arr, clusters, tol, chains)
        if spaces is not None:
            if attempt > 0:
                warnings.append(f"eigenvalue clustering escalated to radius {radius:.2e}")
            if any(radius < g <= 10 * radius for g in _inter_cluster_gaps(clusters)):
                warnings.append("ambiguous eigenvalue clusters within 10x the cluster radius")
            return spaces, warnings
    raise PreconditionError(
        f"eigenvalue clustering never became consistent up to radius {radius:.2e}: the "
        "tolerance cannot separate the generalized eigenspaces")


def _single_linkage(eigs, radius):
    """The clusters of eigs under links of length <= radius, in (real, imag)
    order, inside and among them.  One np.abs tests all pairs (hypot, as
    abs(np.complex128)); an overflowing distance is inf, with no warning."""
    n = len(eigs)
    with np.errstate(all="ignore"):
        close = (np.abs(eigs[:, None] - eigs[None, :]) <= radius).tolist()
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if close[i][j]:
                parent[find(i)] = find(j)
    re, im = eigs.real.tolist(), eigs.imag.tolist()
    clusters = {}
    for i in sorted(range(n), key=lambda i: (re[i], im[i])):
        clusters.setdefault(find(i), []).append(eigs[i])
    return list(clusters.values())


def _inter_cluster_gaps(clusters):
    with np.errstate(all="ignore"):
        return [min(abs(a - b) for a in ci for b in cj)
                for i, ci in enumerate(clusters) for cj in clusters[i + 1:]]


def _spaces_from_clusters(arr, clusters, tol, chains):
    """The GeneralizedEigenspace of each cluster, or None if a kernel is not
    as large as its cluster.  chains keeps each mean's _kernel_chain; only
    the returned bases are boxed."""
    dim = len(arr)
    found = []
    for members in clusters:
        # a mean or a power that leaves float range is caught by _float_nullspace
        with np.errstate(over="ignore", invalid="ignore"):
            z = complex(np.mean(members))   # mean cancels the Jordan scatter
            key = np.complex128(z).tobytes()     # bits: 0.0 and -0.0 differ
            if key not in chains:
                chains[key] = _kernel_chain(np.eye(dim), arr - z * np.eye(dim), dim,
                                            lambda P: _float_nullspace(P, tol))
        depth, basis = chains[key]
        if len(basis) != len(members):
            return None
        found.append((z, depth, basis))
    return [GeneralizedEigenspace(eigenvalue=Scalar.flt(z.real, z.imag),
                                  basis=tuple(tuple(Scalar.flt(x.real, x.imag) for x in v.conj())
                                              for v in basis),
                                  chain_depth=depth)
            for z, depth, basis in found]


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
    # <u, v> for u in spaces[i].basis, v in spaces[j].basis, i < j, in that order
    cross = _vec_inners([(u, v) for i, si in enumerate(spaces) for sj in spaces[i + 1:]
                         for u in si.basis for v in sj.basis], T.mode)
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
    if not comm.is_zero(zero_threshold(A.mode, tol, lambda: max(1.0, A.max_abs() * N.max_abs()),
                                       "the commutator AN - NA")):
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
    strict, witness = _strictness_criterion(order_a.defects[-1], N, nu, tol)
    return PerturbationResult(
        m_a=m_a, nu=nu, m_bound=m_bound,
        bound_verified=bound_verified, strict=strict, witness=witness,
    )


def _strictness_criterion(d, N, nu, tol):
    """The first polarization candidate f0 with <beta P f0, P f0> != 0, P =
    N^(nu-1), for the defect d of beta = beta_{m_a-1}(A), against d's float
    threshold scaled by ||P f0||^2.  The value is <(P* beta P) f0, f0>, a
    Hermitian form, which vanishes iff it does on every candidate; it and
    ||P f0||^2 = <(P* P) f0, f0> come from matrices._polarization_values,
    and only the returned f0 is built.  A nan value or norm is a float overflow."""
    dim, mode, P = N.dim, N.mode, N.power(nu - 1)
    for c, value, norm in zip(polarization_pairs(dim),
                              _polarization_values(P.adjoint() @ d.matrix @ P),
                              _polarization_values(P.adjoint() @ P)):
        if value != value:    # nan; an exact value is an int, maybe beyond float range
            raise PreconditionError("float overflow: the form <beta w, w> leaves float range")
        # max(nan, 1.0) is nan, which zero_threshold refuses
        if value > zero_threshold(mode, tol, lambda: max(d.float_scale * norm, 1.0),
                                  "<beta w, w>"):
            return True, _polarization_vector(partial(basis_vector, dim, mode=mode), *c)
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
        thr = zero_threshold(T.mode, tol, lambda: max(1.0, vec_norm_sq(v).re), "the cyclic basis")
        thr = max(thr, zero_threshold(T.mode, thr, lambda: thr, "the cyclic basis"))
        if vec_norm_sq(w).is_zero(thr):
            break
        basis.append(v)
        ortho.append(w)
    return basis


def _membership_check(T, h, z, tol):
    """h must lie in the generalized eigenspace of z: (T - zI)^dim h = 0."""
    M = (T - DenseOperator.identity(T.dim, T.mode).scale(z)).power(T.dim)
    if not vec_is_zero(M.apply(h), zero_threshold(T.mode, tol, lambda: max(1.0, M.max_abs())
                                                  * max(1.0, vec_max_abs(h)), "(T - zI)^dim h")):
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
    eigenvectors at distinct unimodular eigenvalues.

    On C^d the default window of 4d + 4 samples decides orbit polynomiality
    for every n.  With (T - z_i)^nu_i h_i = 0, nu_1 + nu_2 <= d, T^n h_i is
    z_i^n times a vector polynomial of degree < nu_i, so ||T^n (h1 + h2)||^2
    = p(n) + 2 Re(mu^n q(n)), mu = z1 conj(z2) != 1, deg p <= 2d - 2 and
    deg q <= d - 2 (and so for eps h1 + h2).  For a claimed degree D <= 2d - 2
    the row Delta^(D+1) obeys a linear recurrence of order at most (2d - 2 -
    D) + 2(d - 1) = 4d - 4 - D, with roots 1, mu and conj mu, and the window
    leaves 4d + 3 - D samples in that row: if they vanish, it does.

    In float mode sample n, <T^n h1, T^n h2>, is zero within tol (n + 1)
    ||T^n h1|| ||T^n h2||, with the norms from the same walk: the sample
    carries the rounding of n + 1 steps, each relative to the orbit norms."""
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

    inners, *norms = _orbit_windows(T, [(h1, h2)] + [(h, h) for h in (h1, h2) if mode == FLOAT],
                                    window_len)
    thrs = [zero_threshold(mode, tol, lambda: (n + 1) * math.sqrt(norms[0][n].re)
                           * math.sqrt(norms[1][n].re), f"inner product {n}")
            for n in range(window_len)]
    re_ok = all(abs(ip.re) <= thr for ip, thr in zip(inners, thrs))
    full_ok = all(ip.is_zero(thr) for ip, thr in zip(inners, thrs))
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
    sufficiency at test scale follows from polarization.  Condition (v)
    reads <beta_m u, v> on the pairs of the two cyclic bases."""
    mode = T.mode
    window_len, opposite, poly = _pair_preconditions(T, h1, h2, z1, z2, tol, window_len)
    rng = random.Random(seed)
    c1 = cyclic_subspace(T, h1, tol)
    c2 = cyclic_subspace(T, h2, tol)
    cond_i = all(vec_inner(u, v).is_zero(zero_threshold(
        mode, tol, lambda: math.sqrt(vec_norm_sq(u).re) * math.sqrt(vec_norm_sq(v).re), "<u, v>"))
        for u in c1 for v in c2)

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
    """Smallest m <= 2 len(spanning) + 1 making T an m-isometry on the
    T-invariant span of spanning, else None.

    That is the first m with <beta_m(T) u, v> = 0 for all u, v in spanning:
    a Hermitian form vanishes on a span iff it does on all spanning pairs.
    The forms are matrices._forms' values of vec_inner(beta_m.apply(u), v)."""
    for d in islice(_defects(T), 1, 2 * len(spanning) + 2):
        thr = zero_threshold(T.mode, d.threshold(tol), lambda: max(
            1.0, max(vec_max_abs(v) for v in spanning) ** 2), f"<beta_{d.m} u, v>")
        if all(not (re or im) if T.mode == EXACT else math.hypot(re, im) <= thr
               for (row,) in _forms([d.matrix], spanning, spanning) for _, re, im in row):
            return d.m
    return None


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
