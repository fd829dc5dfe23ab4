"""Exact Bakry-Emery curvature via quadratic forms on the 2-ball.

The iterated gradient at a fixed vertex x is a quadratic form in the
function values on sphere 1 and sphere 2 once f(x) = 0 is imposed (a free
gauge choice, since all operators are translation invariant).  Eliminating
the sphere-2 block by a Schur complement realizes the infimum over those
values, and the curvature is twice the minimal eigenvalue of the reduced
form because Gamma(f)(x) = ||f restricted to sphere 1||^2 / 2.

The form is read in closed form off the adjacency of the 2-ball.  Its
sphere-2 block is diagonal, so the Schur complement divides by that
diagonal and needs no factorization.  `local_ops.gamma2_at`, which
composes the operator definitions pointwise, and the bisection route,
which tests positive semidefiniteness by Cholesky, stay independent of
this assembly and of the eigensolver and serve as oracles in the tests.

`bakry_emery_curvature` is the per-vertex path and takes any neighbour
oracle.  `graph_curvature` is the whole-graph kernel of a finite graph: it
applies the same expressions to every vertex at once and is checked bit
for bit against the per-vertex path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .graph import Graph, GraphError, NeighborOracle, ball
from .local_ops import ph_sides

DEFAULT_EIG_TOL = 1e-10


class FormError(GraphError):
    """Signals a malformed or inconsistent curvature form."""


@dataclass(frozen=True)
class QuadraticForm:
    """Dense symmetric form over an ordered vertex basis.

    The basis lists sphere-1 vertices first, then sphere-2 vertices; the
    center is excluded (its value is gauged to zero).  `n1` is the length
    of the sphere-1 prefix.
    """

    basis: tuple
    n1: int
    matrix: np.ndarray

    def __post_init__(self):
        m = self.matrix
        if m.shape != (len(self.basis), len(self.basis)):
            raise FormError("matrix dimension does not match basis")


@dataclass(frozen=True)
class CurvatureReport:
    vertex: Hashable
    K: float
    dimension: float
    witness: dict | None


def curvature_form(o: Graph | NeighborOracle, x: Hashable) -> QuadraticForm:
    """Quadratic form Q with f^T Q f = Gamma_2(f)(x) for all f with f(x) = 0.

    Read in closed form off the 0/1 adjacency `a` of the 2-ball (Cushing,
    Liu and Peyerimhoff, "Bakry-Emery curvature functions on graphs"), with
    a11 the sphere-1 block, a12 the sphere-1 by sphere-2 block and k = |S1|:

        Q11 = diag(a11 1 + (3/4) a12 1 - (k-3)/4) - a11 + 1/2
        Q12 = -a12 / 2
        Q22 = diag(1^T a12 / 4)

    This is the two-sphere identity of `local_ops.ph_sides` in matrix form:
    Gamma_2 at x only reads edges from x, inside sphere 1 and from sphere 1
    to sphere 2.  Every entry is a quarter-integer of small magnitude, so
    it is exact in floating point and equals the polarization
    Q[i][j] = (Gamma_2(e_i + e_j)(x) - Gamma_2(e_i)(x) - Gamma_2(e_j)(x)) / 2
    of `gamma2_at` on indicators e_i of the basis vertices.
    """
    bg, bmap = ball(o, x, 2)
    k = bmap.sphere.count(1)
    if k == 0:
        raise FormError(f"vertex {x!r} is isolated; no curvature form exists")
    a = np.zeros((bg.n, bg.n))
    a[
        [v for v, nbrs in enumerate(bg.adjacency) for _ in nbrs],
        [w for nbrs in bg.adjacency for w in nbrs],
    ] = 1.0
    a11 = a[1 : k + 1, 1 : k + 1]
    a12 = a[1 : k + 1, k + 1 :]
    q = np.empty((bg.n - 1, bg.n - 1))
    q[:k, :k] = np.diag(a11.sum(1) + 0.75 * a12.sum(1) - (k - 3) / 4.0) - a11 + 0.5
    q[:k, k:] = 0.0 - a12 / 2.0  # not -a12 / 2.0, which writes -0.0 for non-edges
    q[k:, :k] = q[:k, k:].T
    q[k:, k:] = np.diag(a12.sum(0) / 4.0)
    return QuadraticForm(bmap.vertices[1:], k, q)


def schur_reduce(q: QuadraticForm) -> QuadraticForm:
    """Eliminate the sphere-2 block: Q_eff = Q11 - Q12 Q22^{-1} Q21.

    For every sphere-1 vector f1, f1^T Q_eff f1 equals the minimum of
    (f1,f2)^T Q (f1,f2) over sphere-2 vectors f2.  The minimum exists
    because the sphere-2 block is diagonal with positive entries (one
    quarter of each sphere-2 vertex's sphere-1 degree), so Q22^{-1} is a
    division by its diagonal; any other block is rejected.
    """
    k = q.n1
    if len(q.basis) == k:
        return q
    q12 = q.matrix[:k, k:]
    q22 = q.matrix[k:, k:]
    d = np.diag(q22)
    if np.count_nonzero(q22 - np.diag(d)) or not np.all(d > 0):
        raise FormError("sphere-2 block is not diagonal with positive entries")
    return QuadraticForm(q.basis[:k], k, q.matrix[:k, :k] - (q12 / d) @ q12.T)


def min_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise FormError(f"expected a square matrix, got shape {m.shape}")
    scale = float(np.max(np.abs(m))) if m.size else 0.0
    if float(np.max(np.abs(m - m.T))) > DEFAULT_EIG_TOL * (1.0 + scale):
        raise FormError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    return float(vals[0]), vecs[:, 0]


def _reduced_form(o: Graph | NeighborOracle, x: Hashable, N: float):
    """Curvature form, dimension correction, and its Schur reduction.

    The correction (1/N)(Delta f)^2(x) with f(x) = 0 is (1/N)(sum of f on
    sphere 1)^2, that is 1/N subtracted from every sphere-1 entry.
    """
    q = curvature_form(o, x)
    if N != math.inf:
        if not (N > 0):
            raise FormError(f"dimension parameter must be positive, got {N}")
        mat = q.matrix.copy()
        mat[: q.n1, : q.n1] -= 1.0 / N
        q = QuadraticForm(q.basis, q.n1, mat)
    return q, schur_reduce(q)


def bakry_emery_curvature(
    o: Graph | NeighborOracle, x: Hashable, N: float = math.inf
) -> CurvatureReport:
    """Largest K with Gamma_2(f)(x) >= (1/N)(Delta f)^2(x) + K Gamma(f)(x) for all f.

    With f(x) = 0 the constraint becomes positive semidefiniteness of the
    reduced form minus (K/2) I, so K is twice the minimal eigenvalue.  The
    witness extends the minimal eigenvector to sphere 2 by the Schur
    back-substitution f2 = -Q22^{-1} Q21 f1 and attains near-equality.
    Isolated vertices return +inf (supremum over an empty constraint set).
    """
    if not o.neighbors(x):
        return CurvatureReport(x, math.inf, N, None)
    q, reduced = _reduced_form(o, x, N)
    lam, vec = min_eigenpair(reduced.matrix)
    witness = {x: 0.0}
    witness.update(zip(reduced.basis, (float(t) for t in vec)))
    k = q.n1
    if len(q.basis) > k:
        f2 = -(q.matrix[k:, :k] @ vec) / np.diag(q.matrix[k:, k:])
        witness.update(zip(q.basis[k:], (float(t) for t in f2)))
    return CurvatureReport(x, 2.0 * lam, N, witness)


def _is_psd(m: np.ndarray, shift: float = 1e-12) -> bool:
    """Positive semidefiniteness via Cholesky of m + shift*I (no eigensolver)."""
    dim = m.shape[0]
    try:
        np.linalg.cholesky(m + shift * np.eye(dim))
        return True
    except np.linalg.LinAlgError:
        return False


def bakry_emery_curvature_bisect(
    o: Graph | NeighborOracle,
    x: Hashable,
    N: float = math.inf,
    tol: float = 1e-9,
) -> float:
    """Curvature by bisection on K with a Cholesky positive-semidefiniteness
    test of Q_eff - (K/2) I; independent of the eigensolver path."""
    if not o.neighbors(x):
        return math.inf
    _, reduced = _reduced_form(o, x, N)
    m = reduced.matrix
    dim = m.shape[0]
    # Gershgorin bounds on the spectrum of the reduced form
    radii = np.sum(np.abs(m), axis=1) - np.abs(np.diag(m))
    lo = float(np.min(np.diag(m) - radii)) - 1.0
    hi = float(np.max(np.diag(m) + radii)) + 1.0
    while hi - lo > tol / 2.0:
        mid = (lo + hi) / 2.0
        if _is_psd(m - mid * np.eye(dim)):
            lo = mid
        else:
            hi = mid
    return 2.0 * lo


def check_cd(
    o: Graph | NeighborOracle,
    x: Hashable,
    N: float,
    K: float,
    tol: float = 1e-9,
    mode: str = "eigen",
) -> tuple[bool, dict | None]:
    """Decide CD(N, K) at x; on failure also return a violating function.

    `mode="eigen"` compares K against the computed curvature; the witness
    of the curvature report then violates the pointwise inequality at any
    larger K.  `mode="bisection"` tests positive semidefiniteness of
    Q_eff - (K/2) I directly by Cholesky, avoiding the eigensolver.
    """
    if mode not in ("eigen", "bisection"):
        raise ValueError(f"unknown check_cd mode {mode!r}")
    if not o.neighbors(x):
        return True, None
    report = None
    if mode == "bisection":
        _, reduced = _reduced_form(o, x, N)
        dim = reduced.matrix.shape[0]
        holds = _is_psd(reduced.matrix - (K / 2.0 - tol / 2.0) * np.eye(dim))
    else:
        report = bakry_emery_curvature(o, x, N)
        holds = K <= report.K + tol
    if holds:
        return True, None
    # the curvature witness violates the inequality at this K
    if report is None:
        report = bakry_emery_curvature(o, x, N)
    return False, report.witness


def violates_ph(o: Graph | NeighborOracle, f: dict, x: Hashable, K: float) -> bool:
    """True when f strictly violates the pointwise CD(inf, K) inequality at x."""
    lhs, rhs = ph_sides(o, f, x, K)
    return lhs < rhs


# Centres are stacked in batches whose arrays hold at most this many entries
# (512 KiB of floats), so the kernel's temporaries stay bounded on any graph.
_BATCH_ENTRIES = 1 << 16


def graph_curvature(g: Graph, N: float = math.inf) -> tuple[float, tuple[float, ...]]:
    """Infimum of the vertex curvatures of a finite graph, and the curvature
    of every vertex in vertex order (math.inf at an isolated vertex).

    A whole-graph kernel: every centre's reduced form is read off one 0/1
    adjacency array with the expressions of `curvature_form`,
    `_reduced_form` and `schur_reduce`, in the same order and with the same
    shapes, and the forms of one sphere-1 size k are solved by one stacked
    `eigh` (one per batch of centres).  K is therefore bit for bit the K of
    `bakry_emery_curvature`, which stays the per-vertex path for oracles
    and witnesses and is the kernel's cross-check in the tests.
    """
    if g.n == 0:
        raise GraphError("curvature of the empty graph is undefined")
    if N != math.inf and not (N > 0):
        raise FormError(f"dimension parameter must be positive, got {N}")
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj[
        [v for v, nbrs in enumerate(g.adjacency) for _ in nbrs],
        [w for nbrs in g.adjacency for w in nbrs],
    ] = True
    deg = adj.sum(1)
    ks = np.full(g.n, math.inf)
    for k in sorted(set(deg.tolist()) - {0}):
        centres = np.flatnonzero(deg == k)
        step = max(1, _BATCH_ENTRIES // (k * g.n))
        for start in range(0, len(centres), step):
            xs = centres[start : start + step]
            ks[xs] = 2.0 * _stacked_min_eigenvalues(_stacked_reduced_forms(adj, deg, xs, N))
    return min(ks.tolist()), tuple(ks.tolist())


def _stacked_reduced_forms(
    adj: np.ndarray, deg: np.ndarray, xs: np.ndarray, N: float
) -> np.ndarray:
    """Reduced forms of the centres xs, all of one degree k, as an (m, k, k)
    stack: `curvature_form`, the 1/N correction and `schur_reduce` per centre.

    Every entry of the sphere-1 block is a small quarter-integer, exact in
    floating point, so building it elementwise gives the bits of
    `diag(a11 1 + (3/4) a12 1 - (k-3)/4) - a11 + 1/2`.
    """
    m = len(xs)
    n1 = np.nonzero(adj[xs])[1].reshape(m, -1)  # sorted sphere 1 of each centre
    k = n1.shape[1]
    s2 = adj[n1].any(1) & ~adj[xs]  # sphere 2: reached from sphere 1, not adjacent
    s2[np.arange(m), xs] = False  # and not the centre
    a11 = adj[n1[:, :, None], n1[:, None, :]]
    in_s1 = a11.sum(2)
    in_s2 = deg[n1] - 1 - in_s1  # a sphere-1 vertex's neighbours: x, sphere 1, sphere 2
    q11 = np.where(a11, -0.5, 0.5)
    q11[:, np.arange(k), np.arange(k)] = in_s1 + 0.75 * in_s2 - (k - 3) / 4.0 + 0.5
    if N != math.inf:
        q11 -= 1.0 / N
    # schur_reduce makes one (k, n2) @ (n2, k) product per centre; stacking
    # only centres with the same sphere-2 size n2 keeps each product's shape
    n2 = s2.sum(1)
    for size in sorted(set(n2.tolist()) - {0}):
        sel = np.flatnonzero(n2 == size)
        idx2 = np.nonzero(s2[sel])[1].reshape(len(sel), size)  # sorted sphere 2
        a12 = adj[n1[sel][:, :, None], idx2[:, None, :]]
        q12 = 0.0 - a12 / 2.0
        d = a12.sum(1) / 4.0
        q11[sel] = q11[sel] - (q12 / d[:, None, :]) @ q12.transpose(0, 2, 1)
    return q11


def _stacked_min_eigenvalues(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack, after the symmetry
    check and symmetrisation of `min_eigenpair`."""
    flipped = stack.transpose(0, 2, 1)
    scale = np.abs(stack).max((1, 2))
    if np.any(np.abs(stack - flipped).max((1, 2)) > DEFAULT_EIG_TOL * (1.0 + scale)):
        raise FormError("matrix is not symmetric within tolerance")
    return np.linalg.eigh((stack + flipped) / 2.0)[0][:, 0]
