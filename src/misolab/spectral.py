"""Jordan blocks, generalized eigenspaces, algebraic decomposition into
orthogonal unimodular-plus-nilpotent blocks, nilpotent perturbations and
orthogonality tests for generalized eigenvectors.

Exact mode certifies everything with rational arithmetic but needs
eigenvalue hints (exact root-finding of characteristic polynomials is out
of scope); float mode computes the spectrum numerically and clusters it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, islice, repeat
from operator import matmul
from typing import NamedTuple, Optional

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
    _components,
    _echelon,
    _forms,
    _largest,
    _orbit_windows,
    _polarization_values,
    _polarization_vector,
    _reaches_zero,
    _row_space_walk,
    _scalar,
    _scalar_parts,
    _shifted,
    _square,
    basis_vector,
    np,
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
from .scalars import EXACT, FLOAT, Scalar, format_rational, negligible

CLUSTER_TOL = 1e-6
# single-linkage radius escalation factor used when a cluster's kernel
# dimension does not match its algebraic multiplicity
_CLUSTER_ESCALATION = 10.0
_CLUSTER_MAX_ESCALATIONS = 7
# the smallest radius a split tries, relative to max(1, max |lambda|): 512
# rounding units, below which rounding alone moves eigenvalues that far
_CLUSTER_FLOOR = 512 * 2.0 ** -53


# ---------------------------------------------------------------------------
# Jordan blocks and nilpotency
# ---------------------------------------------------------------------------

class JordanSpec(NamedTuple):
    z: Scalar
    size: int


def jordan_matrix(spec):
    """Upper bidiagonal k x k matrix: z on the diagonal, 1 above it."""
    if spec.size < 1:
        raise PreconditionError("Jordan block size must be positive")
    k, mode = spec.size, spec.z.mode
    den, (p, q) = _scalar_parts(spec.z, mode)
    if mode == FLOAT:
        form = np.eye(k, k, 1, dtype=complex)
        np.fill_diagonal(form, complex(p, q))
        return DenseOperator._from_parts(FLOAT, 1, form)
    rows = [([0] * k, [0] * k) for _ in range(k)]
    for i, (re, im) in enumerate(rows):
        re[i], im[i] = p, q
        if i + 1 < k:
            re[i + 1] = den
    return DenseOperator._from_parts(EXACT, den, rows)


class NilpotentInfo(NamedTuple):
    index: int               # smallest k with N^k = 0
    witness: tuple           # f with N^(index-1) f != 0


def nilpotency_index(N, tol=DEFAULT_DEFECT_TOL):
    """NilpotentInfo for a nilpotent matrix, or None when N^dim != 0."""
    walk = _nilpotency_walk(N, tol)
    if walk is None:
        return None
    return NilpotentInfo(index=walk[0], witness=_max_column_vector(walk[1]))


def _nilpotency_walk(N, tol):
    """(index, N^(index-1)) from the products N^2 = N N, N^3 = N^2 N, ...,
    or None when N^dim != 0."""
    prev = DenseOperator.identity(N.dim, N.mode)
    for k, power in enumerate(accumulate(repeat(N, N.dim), matmul), 1):
        if negligible(power, N.mode, tol, lambda: max(1.0, N.max_abs()) ** k, f"N^{k}"):
            return k, prev
        prev = power
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

def _rref_entry(row, c, j, sign=1):
    """sign times entry x of an integer row over its pivot p at c: x conj(p) / |p|^2."""
    re, im = row
    pr, pi, x, y = re[c], im[c], sign * re[j], sign * im[j]
    return _scalar(x * pr + y * pi, y * pr - x * pi, pr * pr + pi * pi, EXACT)


def exact_nullspace(A):
    """Kernel basis of an exact DenseOperator, read from the integer rows of
    matrices._echelon: only the returned entries are made Scalars.  The
    generalized eigenspaces call it once per hint, on the rows that
    matrices._row_space_walk ends with."""
    rows, pivots = _echelon(A._form[1])
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
    return T._form[1].copy()


def from_numpy(arr):
    return DenseOperator._from_parts(FLOAT, 1, _square(np.array(arr, dtype=complex)))


# ---------------------------------------------------------------------------
# Generalized eigenspaces
# ---------------------------------------------------------------------------

class GeneralizedEigenspace(NamedTuple):
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
    """The spaces of the hints that are eigenvalues, each hint (a Scalar, int
    or Fraction) made an exact Scalar once.  Each kernel chain is one
    matrices._row_space_walk of T - zI over the connected components of T,
    found once for all hints: a block walks on its own, and a triangular one
    whose diagonal misses z is not walked.  Only the last kernel is boxed,
    by one exact_nullspace call per hint."""
    if not hints:
        raise EigenHintError(
            "exact mode requires eigen_hints (candidate eigenvalues)"
        )
    seen = []
    for z in hints:
        den, (re, im) = _scalar_parts(z, EXACT)
        z = _scalar(re, im, den, EXACT)
        if any(z == w for w in seen):
            raise EigenHintError("duplicate eigenvalue hint")
        seen.append(z)
    spaces = []
    total = 0
    components = _components(T)
    for z in seen:
        depth, rows = _row_space_walk(_shifted(T, z), components)
        basis = exact_nullspace(rows)
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


def _kernel_chain(M, tol, cap):
    """(depth, basis) for a complex array M: depth the smallest k >= 1 with
    ker M^k = ker M^(k+1), and basis the unboxed rows of vh whose conjugates
    span ker M^depth.  It is matrices._row_space_walk in floats: R_(k+1) is
    the rows of vh, from one SVD of R_k M, whose singular values are not
    negligible (scaled by the largest |entry| of R_k M), and the other rows
    span ker M^(k+1).  Kernels only grow, so the walk stops at one of more
    than cap rows: a cluster of cap eigenvalues fails whatever comes later."""
    rows, depth, basis = M, 0, M[:0]
    while len(rows) and len(basis) <= cap:
        top = float(np.abs(rows).max(initial=1.0))
        if not math.isfinite(top) and not np.isfinite(rows).all():
            raise PreconditionError("float overflow: the kernel walk of T - zI left float range")
        _, s, vh = np.linalg.svd(rows)
        rank = len(s)       # LAPACK lists the singular values in descending order
        while rank and negligible(s[rank - 1], FLOAT, max(tol, 1e-10), lambda: top, "the kernel"):
            rank -= 1
        if rank == len(rows):
            break
        rows, depth, basis = vh[:rank] @ M, depth + 1, vh[rank:]
    return max(depth, 1), basis


def _float_eigenspaces(T, tol):
    """(spaces, warnings): numpy's eigenvalues clustered by single linkage,
    at one list of radii, until each cluster mean z has a kernel chain of
    T - zI as long as its cluster.  With s = max(1, max |lambda|) the list is
    CLUSTER_TOL * s, _CLUSTER_MAX_ESCALATIONS - 1 tenfold escalations, then
    tenfold splits below the first down to _CLUSTER_FLOOR * s; a warning names
    a radius other than the first.  A radius that links the same pairs as one
    tried is skipped: its partition is that one's, which failed.  Attempts
    share one dict of chains by z's bits and the cluster size.  If no attempt
    is consistent the tolerance cannot separate the clusters, and a
    PreconditionError names the largest escalated radius."""
    arr = to_numpy(T)
    eigs = np.linalg.eigvals(arr)
    scale = max(1.0, float(np.abs(eigs).max()))
    # read by linkage, skip test and warning; hypot, so an overflow is inf
    with np.errstate(all="ignore"):
        dist = np.abs(eigs[:, None] - eigs[None, :])
    radii = [(CLUSTER_TOL * scale, "")]
    for _ in range(_CLUSTER_MAX_ESCALATIONS - 1):
        radii.append((radii[-1][0] * _CLUSTER_ESCALATION, "escalated"))
    largest, radius = radii[-1][0], radii[0][0]
    # splits lie below the first radius, so an inf one has none
    while _CLUSTER_FLOOR * scale <= (radius := radius / _CLUSTER_ESCALATION) < radii[0][0]:
        radii.append((radius, "split"))
    chains, tried = {}, set()
    for radius, moved in radii:
        close = dist <= radius
        if close.tobytes() in tried:
            continue
        tried.add(close.tobytes())
        clusters, roots = _single_linkage(eigs, close)
        spaces = _spaces_from_clusters(arr, clusters, tol, chains)
        if spaces is None:
            continue
        warnings = [f"eigenvalue clustering {moved} to radius {radius:.2e}"] if moved else []
        # every distance across two clusters is above radius
        if ((dist <= 10 * radius) & (roots[:, None] != roots)).any():
            warnings.append("ambiguous eigenvalue clusters within 10x the cluster radius")
        return spaces, warnings
    raise PreconditionError(
        f"eigenvalue clustering never became consistent up to radius {largest:.2e}: the "
        "tolerance cannot separate the generalized eigenspaces")


def _single_linkage(eigs, close):
    """(clusters, roots): the clusters of eigs joined by the symmetric relation
    close, in (real, imag) order, inside and among them; roots[i] is the least
    index in eigs[i]'s cluster.  Squaring the boolean close | I n.bit_length()
    times reaches every path of up to n - 1 links."""
    n = len(eigs)
    reach = close | np.eye(n, dtype=bool)
    for _ in range(n.bit_length()):
        reach = reach @ reach
    roots = reach.argmax(axis=1)
    re, im, first = eigs.real.tolist(), eigs.imag.tolist(), roots.tolist()
    clusters = {}
    for i in sorted(range(n), key=lambda i: (re[i], im[i])):
        clusters.setdefault(first[i], []).append(eigs[i])
    return list(clusters.values()), roots


def _spaces_from_clusters(arr, clusters, tol, chains):
    """The GeneralizedEigenspace of each cluster, or None if a kernel is not
    as large as its cluster.  chains keeps each (mean, cluster size)'s
    _kernel_chain, capped at that size, so a walk cut short is never read
    for a larger cluster; only the returned bases are boxed."""
    found = []
    # a mean or a walk step that leaves float range is caught by _kernel_chain
    with np.errstate(over="ignore", invalid="ignore"):
        for members in clusters:
            z = complex(np.mean(members))   # mean cancels the Jordan scatter
            key = np.complex128(z).tobytes(), len(members)   # bits: 0.0 and -0.0 differ
            if key not in chains:
                chains[key] = _kernel_chain(arr - z * np.eye(len(arr)), tol, len(members))
            depth, basis = chains[key]
            if len(basis) != len(members):
                return None
            found.append((z, depth, basis))
    return [GeneralizedEigenspace(eigenvalue=Scalar.flt(z.real, z.imag),
                                  basis=tuple(tuple(Scalar(FLOAT, x.real, x.imag) for x in v)
                                              for v in basis.conj().tolist()),
                                  chain_depth=depth)
            for z, depth, basis in found]


# ---------------------------------------------------------------------------
# Algebraic decomposition
# ---------------------------------------------------------------------------

class AlgebraicDecomposition(NamedTuple):
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
        if not _on_circle(sp.eigenvalue, T.mode, tol):
            failures.append(f"eigenvalue {_fmt_scalar(sp.eigenvalue, tol)} "
                            "is not unimodular")
            break
    # |<u, v>| for u, v in the bases of spaces i < j, by one _forms read of I
    # with u from every space but the last and v from every space but the first
    us = [(i, u) for i, sp in enumerate(spaces[:-1]) for u in sp.basis]
    vs = [(j, v) for j, sp in enumerate(spaces[1:], 1) for v in sp.basis]
    forms = _forms([DenseOperator.identity(T.dim, T.mode)], [u for _, u in us],
                   [v for _, v in vs]) if us else ()
    size = _form_size(T.mode)
    cross = [size(re, im) for (i, _), (row,) in zip(us, forms)
             for (j, _), (_, re, im) in zip(vs, row) if i < j]
    if not all(negligible(x, T.mode, tol, lambda: 1.0, "<u, v>") for x in cross):
        failures.append("generalized eigenspaces are not pairwise orthogonal")
    certified = not failures
    predicted = None
    if certified:
        predicted = max(2 * sp.chain_depth - 1 for sp in spaces)
    return AlgebraicDecomposition(
        blocks=tuple(spaces),
        pairwise_gram=_largest(cross) if cross and T.mode == FLOAT else 0.0,
        certified=certified,
        failures=tuple(failures),
        predicted_strict_order=predicted,
        warnings=tuple(warnings),
    )


def _form_size(mode):
    """The size of a _forms value from its parts: math.hypot, Scalar.modulus(), in float
    mode; abs(re) + abs(im) of the ints in exact mode, zero iff they are, no float made."""
    return math.hypot if mode == FLOAT else lambda re, im: abs(re) + abs(im)


def _fmt_scalar(s, tol):
    """s, off the circle, as re+imi with 6 significant digits ({:g}).  Where
    those digits read as unimodular, a float s gets the shortest digits that
    round-trip (1.0000005+0.0i, not 1+0i) and an exact s its exact value, as
    an exact s beyond float range does."""
    try:
        re, im = float(s.re), float(s.im)
    except OverflowError:
        return format_rational(s)
    mode, parts = s.mode, (f"{re:g}", f"{im:+g}")
    if not _on_circle(Scalar(mode, *map(Fraction if mode == EXACT else float, parts)), mode, tol):
        return f"{parts[0]}{parts[1]}i"
    return format_rational(s) if mode == EXACT else f"{re}{im:+}i"


# ---------------------------------------------------------------------------
# Nilpotent perturbation analysis
# ---------------------------------------------------------------------------

class PerturbationResult(NamedTuple):
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
    if not negligible(comm, A.mode, tol, lambda: max(1.0, A.max_abs() * N.max_abs()),
                      "the commutator AN - NA"):
        raise PreconditionError("operators do not commute")
    walk = _nilpotency_walk(N, tol)
    if walk is None:
        raise PreconditionError("perturbation is not nilpotent")
    order_a = strict_order(A, tol=tol)
    if not order_a.strict:
        raise PreconditionError(
            f"base operator is not an m-isometry within m <= {order_a.m}"
        )
    m_a, (nu, P) = order_a.m, walk
    m_bound = m_a + 2 * (nu - 1)
    bound_verified = is_m_isometry(A + N, m_bound, tol)
    strict, witness = _strictness_criterion(order_a.defects[-1], P, tol)
    return PerturbationResult(
        m_a=m_a, nu=nu, m_bound=m_bound,
        bound_verified=bound_verified, strict=strict, witness=witness,
    )


def _strictness_criterion(d, P, tol):
    """The first polarization candidate f0 with <beta P f0, P f0> != 0, P =
    N^(nu-1), for the defect d of beta = beta_{m_a-1}(A), against d's float
    threshold scaled by ||P f0||^2.  The value is <(P* beta P) f0, f0>, a
    Hermitian form, which vanishes iff it does on every candidate; it and
    ||P f0||^2 = <(P* P) f0, f0> come from matrices._polarization_values,
    and only the returned f0 is built; a float value or norm beyond float
    range raises the float-overflow error there."""
    dim, mode = P.dim, P.mode
    for c, value, norm in zip(polarization_pairs(dim),
                              _polarization_values(P.adjoint() @ d.matrix @ P),
                              _polarization_values(P.adjoint() @ P)):
        if not negligible(value, mode, tol, lambda: max(d.float_scale * norm, 1.0),
                          "<beta w, w>"):
            return True, _polarization_vector(partial(basis_vector, dim, mode=mode), *c)
    return False, None


# ---------------------------------------------------------------------------
# Cyclic subspaces and orthogonality of generalized eigenvectors
# ---------------------------------------------------------------------------

def cyclic_subspace(T, h, tol=DEFAULT_DEFECT_TOL):
    """Basis h, Th, ..., T^(d-1)h up to the first linear dependence.  A float
    T^j h is dependent when its part orthogonal to the basis has squared norm
    within tol times the largest ||T^i h||^2, i <= j, whatever the scale of h:
    the tests run on T^j h over the largest entry of h, whose squared norms
    do not underflow."""
    if vec_is_zero(h):
        raise PreconditionError("cyclic subspace of the zero vector")
    top = Scalar.flt(vec_max_abs(h)) if T.mode == FLOAT else None
    basis, ortho, largest = [], [], 0.0   # ortho: (orthogonalized probe, its squared norm)
    for v in islice(orbit(T, h), T.dim):
        p = v if top is None else tuple(a / top for a in v)
        w = p
        for q, q_sq in ortho:
            w = vec_sub(w, vec_scale(vec_inner(w, q) / q_sq, q))
        if top is not None:   # float: the running maximum of the probes' squared norms
            p_sq = vec_norm_sq(p).re
            largest = max(largest, p_sq) if basis else p_sq
        w_sq = vec_norm_sq(w)
        if negligible(w_sq, T.mode, tol, lambda: largest, "the cyclic basis"):
            break
        basis.append(v)
        ortho.append((w, w_sq))
    return basis


def _membership_check(T, h, z, tol):
    """h must lie in the generalized eigenspace of z: (T - zI)^dim h = 0, in
    exact mode by at most dim steps of matrices._shifted's M = T - zI, up to
    the first zero vector: the first by `apply`, with its checks on h, the
    others as integers (matrices._reaches_zero); in float mode from
    (T - zI)^dim."""
    if T.mode == EXACT:
        M = _shifted(T, z)
        inside = _reaches_zero(M, M.apply(h), T.dim - 1)
    else:
        M = (T - DenseOperator.identity(T.dim, T.mode).scale(z)).power(T.dim)
        inside = negligible(vec_max_abs(M.apply(h)), FLOAT, tol,
                            lambda: max(1.0, M.max_abs()) * max(1.0, vec_max_abs(h)),
                            "(T - zI)^dim h")
    if not inside:
        raise PreconditionError("vector is not in the claimed generalized eigenspace")


def _on_circle(z, mode, tol):
    """|z| = 1 for a Scalar z: exactly in exact mode, where a float z is off
    the circle, and within tol in float mode."""
    if mode == EXACT:
        return z.mode == EXACT and negligible(z.abs2().re - 1, EXACT, tol, None, "|z|^2 - 1")
    return negligible(abs(z.modulus() - 1.0), FLOAT, tol, lambda: 1.0, "|z| - 1")


def _pair_preconditions(T, h1, h2, z1, z2, tol, window_len):
    """Checks shared by the orthogonality tests: z1 != z2 unimodular, h1 and
    h2 in their generalized eigenspaces.  Returns the window length, whether
    z1 = -z2, and the orbit-polynomiality test over that window."""
    if not all(_on_circle(z, T.mode, max(tol, 1e-8)) for z in (z1, z2)):
        raise PreconditionError("eigenvalue is not unimodular")
    if negligible(z1 - z2, z1.mode, tol, lambda: 1.0, "z1 - z2"):
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

    return window_len, negligible(z1 + z2, z1.mode, tol, lambda: 1.0, "z1 + z2"), poly


class OrthoTestResult(NamedTuple):
    case: str                       # "opposite" (z1 = -z2) or "generic"
    orbit_polynomial: bool          # ||T^n (h1+h2)||^2 polynomial in the window
    eps_orbits_polynomial: Optional[tuple]  # ||T^n (e h1 + h2)||^2 for e = 1, i (opposite case)
    re_inner_vanishes: bool
    mixed_inner_vanishes: bool
    re_only: bool
    agrees_with_theory: bool
    diagnostics: dict               # largest inner products (float mode; empty in exact)


def ortho_test_generalized(T, h1, h2, z1, z2, window_len=None, tol=DEFAULT_FLOAT_TOL):
    """Check of the orthogonality criteria for generalized eigenvectors at
    distinct unimodular eigenvalues.

    If T has strict order m (strict_order at tol) and the window holds W >=
    max(3, m + 1) samples, <T^n h1, T^n h2> = sum_{k<m} C(n,k) (-1)^k
    <beta_k h1, h2> for every n, so the samples (their real parts) all
    vanish iff the m forms <beta_k h1, h2> (their real parts) do, and every
    orbit norm is polynomial of degree m - 1 <= 2d - 2: the verdict is read
    from the forms, a certificate in exact mode.  A float form is
    negligible within tol beta_k.float_scale ||h1|| ||h2||, and the
    diagnostics are the largest |Re| and modulus of the forms.

    Otherwise (no strict order, a shorter window, a float walk beyond float
    range) the W samples are walked; the default 4d + 4 decide for every n.
    With (T - z_i)^nu_i h_i = 0, nu_1 + nu_2 <= d, T^n h_i is z_i^n times
    a vector polynomial of degree < nu_i, so ||T^n (h1 + h2)||^2 = p(n) +
    2 Re(mu^n q(n)), mu = z1 conj(z2) != 1, deg p <= 2d - 2 and deg q <=
    d - 2 (and so for e h1 + h2).  For a claimed degree D <= 2d - 2
    the row Delta^(D+1) obeys a linear recurrence of order at most (2d - 2 -
    D) + 2(d - 1) = 4d - 4 - D, with roots 1, mu and conj mu, and the window
    leaves 4d + 3 - D samples in that row: if they vanish, it does.
    In float mode sample n, <T^n h1, T^n h2>, is negligible within tol (n +
    1) ||T^n h1|| ||T^n h2||, with the norms from the same walk: the sample
    carries the rounding of n + 1 steps, each relative to the orbit norms,
    and the diagnostics are the largest |Re| and modulus of the samples.

    In the opposite case the orbits of e h1 + h2 are tested for e = 1 and
    e = i: the orbit norm is a Hermitian form, so the signs of e do not
    change the verdict, and e = 1 is the orbit of h1 + h2."""
    mode = T.mode
    window_len, opposite, poly = _pair_preconditions(T, h1, h2, z1, z2, tol, window_len)

    certified = _defect_forms(T, h1, h2, window_len, tol)
    if certified is not None:
        inners, zeros = certified
        main_poly, eps_polys = True, (True, True) if opposite else None
    else:
        main_poly = poly(vec_add(h1, h2))
        eps_polys = ((main_poly, poly(vec_add(vec_scale(Scalar.i_unit(mode), h1), h2)))
                     if opposite else None)
        inners, *norms = _orbit_windows(
            T, [(h1, h2)] + [(h, h) for h in (h1, h2) if mode == FLOAT], window_len)
        zeros = [partial(negligible, mode=mode, tol=tol, what=f"inner product {n}",
                         magnitude=lambda n=n: (n + 1) * math.sqrt(norms[0][n].re)
                         * math.sqrt(norms[1][n].re))
                 for n in range(window_len)]
    # lists: every threshold is made, and one beyond float range raises
    re_ok = all([zero(abs(ip.re)) for ip, zero in zip(inners, zeros)])
    full_ok = all([zero(ip) for ip, zero in zip(inners, zeros)])
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


def _defect_forms(T, h1, h2, window_len, tol):
    """The Scalars <beta_k h1, h2>, k < m, each with its zero test (negligible
    bound to all but the value), or None where ortho_test_generalized walks
    the window; a float form beyond float range raises the float-overflow
    error."""
    try:
        verdict = strict_order(T, tol=tol)
    except PreconditionError:
        return None
    if not verdict.strict or window_len < max(3, verdict.m + 1):
        return None
    betas, mode = verdict.defects, T.mode
    (forms,) = _forms([b.matrix for b in betas], [h1], [h2])
    inners = [_scalar(re, im, den, mode) for ((den, re, im),) in forms]
    if mode == FLOAT and not all(math.isfinite(ip.modulus()) for ip in inners):
        raise PreconditionError("float overflow: a form <beta_k h1, h2> leaves float range")
    norm = cache(lambda: math.sqrt(vec_norm_sq(h1).re) * math.sqrt(vec_norm_sq(h2).re))
    return inners, [partial(negligible, mode=mode, tol=tol, what=f"<beta_{b.m} h1, h2>",
                            magnitude=lambda b=b: b.float_scale * norm()) for b in betas]


# ---------------------------------------------------------------------------
# Jordan-pair equivalences
# ---------------------------------------------------------------------------

class JordanPairReport(NamedTuple):
    cross_gram_zero: bool            # (i)
    translate_orbits_polynomial: bool  # (ii)
    one_sided_polynomial: bool       # (iii)
    sampled_pairs_polynomial: bool   # (iv): every pair, decided on the basis candidates
    restriction_is_isometry: bool    # (v)
    restricted_order: Optional[int]
    all_agree: bool

    def conditions(self):
        return (self.cross_gram_zero, self.translate_orbits_polynomial,
                self.one_sided_polynomial, self.sampled_pairs_polynomial,
                self.restriction_is_isometry)


def jordan_pair_equivalences(T, h1, h2, z1, z2, tol=DEFAULT_FLOAT_TOL, window_len=None):
    """Evaluate the five equivalent orthogonality conditions for a pair of
    Jordan blocks at finite scale and check that they agree.

    Conditions (ii)-(iv) ask for a polynomial ||T^n (g1 + g2)||^2, g1 in
    the cyclic span of h1 and g2 in that of h2.  On each span ||T^n g||^2
    is polynomial at a unimodular z, so they turn on Re <T^n g1, T^n g2>,
    real-linear in g1 and g2: the candidates u + v and i u + v, for u and v
    in the two cyclic bases, decide it for every pair.  Each candidate is
    walked once.  (ii) reads v = h2 (i u only in the opposite case), (iii)
    v = h2 and (iv) every v; exact verdicts are certificates at window
    scale.  Condition (v) reads <beta_m u, v> on the pairs of the two
    cyclic bases."""
    mode = T.mode
    window_len, opposite, poly = _pair_preconditions(T, h1, h2, z1, z2, tol, window_len)
    c1 = cyclic_subspace(T, h1, tol)
    c2 = cyclic_subspace(T, h2, tol)
    cond_i = all(negligible(vec_inner(u, v), mode, tol, lambda: math.sqrt(vec_norm_sq(u).re)
                            * math.sqrt(vec_norm_sq(v).re), "<u, v>") for u in c1 for v in c2)

    i_unit = Scalar.i_unit(mode)
    # (j, e, k): the orbit of u_j + v_k (e = 0) or i u_j + v_k (e = 1); v_0 = h2
    polys = {(j, e, k): poly(vec_add(g, v))
             for j, u in enumerate(c1) for e, g in enumerate((u, vec_scale(i_unit, u)))
             for k, v in enumerate(c2)}
    cond_ii = all(polys[j, e, 0] for j in range(len(c1)) for e in ((0, 1) if opposite else (0,)))
    cond_iii = all(polys[j, e, 0] for j in range(len(c1)) for e in (0, 1))
    cond_iv = all(polys.values())

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


def _restricted_strict_order(T, spanning, tol):
    """Smallest m <= 2 len(spanning) + 1 making T an m-isometry on the
    T-invariant span of spanning, else None.

    That is the first m with <beta_m(T) u, v> = 0 for all u, v in spanning:
    a Hermitian form vanishes on a span iff it does on all spanning pairs.
    The forms are matrices._forms' values of vec_inner(beta_m.apply(u), v)."""
    size = _form_size(T.mode)
    top = cache(lambda: max(1.0, max(vec_max_abs(v) for v in spanning) ** 2))
    for d in islice(_defects(T), 1, 2 * len(spanning) + 2):
        thr, what = d.threshold(tol), f"<beta_{d.m} u, v>"
        if all(negligible(size(re, im), T.mode, thr, top, what)
               for (row,) in _forms([d.matrix], spanning, spanning) for _, re, im in row):
            return d.m
    return None
