"""Exact Bakry-Emery curvature via quadratic forms on the 2-ball.

The iterated gradient at a fixed vertex x is a quadratic form in the
function values on sphere 1 and sphere 2 once f(x) = 0 is imposed (a free
gauge choice, since all operators are translation invariant).  Eliminating
the sphere-2 block by a Schur complement realizes the infimum over those
values, and the curvature is twice the minimal eigenvalue of the reduced
form because Gamma(f)(x) = ||f restricted to sphere 1||^2 / 2.

The form is read in closed form off the adjacency of the 2-ball.  Its
sphere-2 block is diagonal, so the Schur complement divides by that
diagonal and needs no factorization.  The arithmetic has two routes:

- The production kernel turns the 0/1 sphere blocks of a stack of centres
  into reduced forms (`_stacked_sphere1_forms`, then `_stacked_schur`) and
  solves them with one stacked `eigh` (`_stacked_min_eigenpairs`).
  `graph_curvature` reads the blocks off the adjacencies of a list of
  whole graphs (`_graph_reduced_forms`), stacking the centres of one degree
  across the graphs; a corpus scan hands it a chunk of graphs at a time.
  `bakry_emery_curvature` slices the blocks out of the 2-ball of one
  vertex of any neighbour oracle and adds the witness.
- The reference route builds one vertex's form as a matrix
  (`curvature_form`), subtracts the 1/N correction and eliminates sphere 2
  (`schur_reduce`); `bakry_emery_curvature_bisect` then bisects on K with a
  Cholesky test of positive semidefiniteness, with no eigensolver.

In the tests, `local_ops.gamma2_at`, which composes the operator
definitions pointwise, checks the reference form entry by entry; the
reference route checks the kernel's reduced forms byte for byte; and the
bisection checks the kernel's K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable

import numpy as np

from .graph import Graph, GraphError, NeighborOracle, ball

DEFAULT_EIG_TOL = 1e-10
# the width to which bakry_emery_curvature_bisect brackets K
BISECT_TOL = 1e-9

# Centres are stacked in batches whose arrays hold at most this many entries
# (512 KiB of floats), so the kernel's temporaries stay bounded on any graph.
_BATCH_ENTRIES = 1 << 16


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
    K: float
    witness: dict | None


def _check_dimension(N: float) -> None:
    if N != math.inf and not (N > 0):
        raise FormError(f"dimension parameter must be positive, got {N}")


def _check_scale(forms: np.ndarray, N: float) -> None:
    """Reject reduced forms (k x k, or a stack of them) so large that the
    curvature, at most 2 k max|Q| in absolute value, or a step of the
    eigensolver or the bisection on them could overflow the floats.  Only a
    tiny N makes them so: 1/N is subtracted from every entry, and K is
    about -2k/N."""
    if N != math.inf and not math.isfinite(4.0 * forms.shape[-1] * float(np.abs(forms).max())):
        raise FormError(f"dimension parameter N = {N} is too small: the curvature overflows")


def _adjacency(graphs: list[Graph]) -> np.ndarray:
    """The 0/1 adjacencies of finite graphs as one (graphs, w, w) bool array,
    w the largest order; a smaller graph is padded with isolated vertices."""
    w = max((g.n for g in graphs), default=0)
    adj = np.zeros((len(graphs), w, w), dtype=bool)
    for i, g in enumerate(graphs):
        adj[i].flat[[v * w + u for v, nbrs in enumerate(g.adjacency) for u in nbrs]] = True
    return adj


# --- production kernel -----------------------------------------------------


def graph_curvature(
    graphs: list[Graph], N: float = math.inf
) -> list[tuple[float, tuple[float, ...]]]:
    """For each finite graph, the infimum of its vertex curvatures and the
    curvature of every vertex in vertex order (math.inf at an isolated vertex).

    The production kernel on whole graphs: every centre's sphere blocks are
    read off one stack of 0/1 adjacency arrays, and the forms of one sphere-1
    size k, over all the graphs, are solved by one stacked `eigh` (one per
    batch of centres).  `bakry_emery_curvature` feeds the same kernel the
    blocks of one 2-ball, and the tests hold the two bit for bit equal; the
    reference route (`curvature_form`, `schur_reduce`, Cholesky bisection)
    is the kernel's independent check.
    """
    if any(g.n == 0 for g in graphs):
        raise GraphError("curvature of the empty graph is undefined")
    _check_dimension(N)
    adj = _adjacency(graphs)
    deg = adj.sum(2)
    ks = np.full(deg.shape, math.inf)
    for k in sorted(set(deg.ravel().tolist()) - {0}):
        gs, xs = np.nonzero(deg == k)
        step = max(1, _BATCH_ENTRIES // (k * adj.shape[2]))
        for start in range(0, len(xs), step):
            batch = gs[start : start + step], xs[start : start + step]
            forms = _graph_reduced_forms(adj, deg, *batch, N)
            _check_scale(forms, N)
            ks[batch] = 2.0 * _stacked_min_eigenpairs(forms)[0]
    rows = [tuple(row[: g.n]) for g, row in zip(graphs, ks.tolist())]
    return [(min(row), row) for row in rows]


def bakry_emery_curvature(
    o: Graph | NeighborOracle, x: Hashable, N: float = math.inf
) -> CurvatureReport:
    """Largest K with Gamma_2(f)(x) >= (1/N)(Delta f)^2(x) + K Gamma(f)(x) for all f.

    With f(x) = 0 the constraint becomes positive semidefiniteness of the
    reduced form minus (K/2) I, so K is twice its minimal eigenvalue: the
    kernel of `graph_curvature` fed the sphere blocks of the 2-ball of x, so
    any neighbour oracle will do.  The witness is the minimal
    eigenvector on sphere 1, extended to sphere 2 by the Schur
    back-substitution f2 = -Q22^{-1} Q21 f1 = 2 (a12^T f1) / (1^T a12); it
    attains near-equality.  Isolated vertices return +inf (supremum over an
    empty constraint set).
    """
    _check_dimension(N)
    adj, bmap = ball(o, x)
    k = bmap.sphere.count(1)
    if k == 0:
        return CurvatureReport(math.inf, None)
    a11, a12 = adj[1 : k + 1, 1 : k + 1], adj[1 : k + 1, k + 1 :]  # centre, sphere 1, sphere 2
    q11 = _stacked_sphere1_forms(a11[None], a12.sum(1)[None], N)
    form = _stacked_schur(q11, a12[None])[0]
    _check_scale(form, N)
    lam, vec = min_eigenpair(form)
    f2 = 2.0 * (vec @ a12) / a12.sum(0)
    witness = dict(zip(bmap.vertices, [0.0] + vec.tolist() + f2.tolist()))
    return CurvatureReport(2.0 * lam, witness)


def check_cd(
    o: Graph | NeighborOracle, x: Hashable, N: float, K: float
) -> tuple[bool, dict | None]:
    """Decide CD(N, K) at x, up to 1e-9; on failure also return a violating function.

    K is compared against the computed curvature; the witness of the
    curvature report then violates the pointwise inequality at any larger K.
    """
    report = bakry_emery_curvature(o, x, N)
    if K <= report.K + 1e-9:
        return True, None
    return False, report.witness


def _graph_reduced_forms(
    adj: np.ndarray, deg: np.ndarray, gs: np.ndarray, xs: np.ndarray, N: float
) -> np.ndarray:
    """Reduced forms of the centres xs of the graphs gs, all of one degree k,
    as an (m, k, k) stack, with each centre's spheres read off its graph's
    adjacency."""
    m = len(xs)
    rows = adj[gs, xs]
    n1 = np.nonzero(rows)[1].reshape(m, -1)  # sorted sphere 1 of each centre
    g1 = gs[:, None]
    s2 = np.logical_or.reduce(adj[g1, n1], 1) > rows  # sphere 2: reached via sphere 1, not adjacent
    s2[np.arange(m), xs] = False  # and not the centre
    a11 = adj[g1[:, :, None], n1[:, :, None], n1[:, None, :]]
    q11 = _stacked_sphere1_forms(a11, deg[g1, n1] - 1 - a11.sum(2), N)
    n2 = np.add.reduce(s2, 1)
    for size in set(n2.tolist()) - {0}:
        sel = np.flatnonzero(n2 == size)
        idx2 = np.nonzero(s2[sel])[1].reshape(len(sel), 1, size)  # sorted sphere 2
        q11[sel] = _stacked_schur(q11[sel], adj[g1[sel][:, :, None], n1[sel][:, :, None], idx2])
    return q11


def _stacked_sphere1_forms(a11: np.ndarray, in2: np.ndarray, N: float) -> np.ndarray:
    """Sphere-1 blocks of a stack of forms, 1/N subtracted, from a11 (m, k, k),
    the 0/1 adjacency on sphere 1, and in2 (m, k), the sphere-2 degrees of
    sphere 1.  Each entry of `curvature_form`'s Q11 is a small quarter-integer,
    exact in floating point, so building it elementwise gives the same bits."""
    m, k = in2.shape
    q11 = np.where(a11, -0.5, 0.5)
    q11.reshape(m, -1)[:, :: k + 1] = a11.sum(2) + 0.75 * in2 + (5 - k) / 4.0
    if N != math.inf:
        q11 -= 1.0 / N
    return q11


def _stacked_schur(q11: np.ndarray, a12: np.ndarray) -> np.ndarray:
    """`schur_reduce` on a stack of sphere-1 blocks, byte for byte, with a12
    (m, k, n2) the 0/1 adjacency from sphere 1 to sphere 2; the centres of a
    stack share n2 so each keeps the (k, n2) @ (n2, k) product's shape."""
    q12 = 0.0 - a12 / 2.0  # with no sphere 2 the product below is a zero matrix
    return q11 - (q12 / (a12.sum(1) / 4.0)[:, None, :]) @ q12.transpose(0, 2, 1)


def _stacked_min_eigenpairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of each matrix of a stack,
    which must be symmetric within tolerance and is symmetrised first."""
    flipped = stack.transpose(0, 2, 1)
    scale = np.maximum.reduce(np.abs(stack), (1, 2))
    if (np.maximum.reduce(np.abs(stack - flipped), (1, 2)) > DEFAULT_EIG_TOL * (1.0 + scale)).any():
        raise FormError("matrix is not symmetric within tolerance")
    vals, vecs = np.linalg.eigh((stack + flipped) / 2.0)
    return vals[:, 0], vecs[:, :, 0]


def min_eigenpair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue and a unit eigenvector of a symmetric matrix."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise FormError(f"expected a square matrix, got shape {m.shape}")
    vals, vecs = _stacked_min_eigenpairs(m[None])
    return float(vals[0]), vecs[0]


# --- reference route -------------------------------------------------------


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
    adj, bmap = ball(o, x)
    k = bmap.sphere.count(1)
    if k == 0:
        raise FormError(f"vertex {x!r} is isolated; no curvature form exists")
    a = adj.astype(float)
    a11 = a[1 : k + 1, 1 : k + 1]
    a12 = a[1 : k + 1, k + 1 :]
    q = np.empty((len(a) - 1, len(a) - 1))
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


def _reference_reduced_form(o: Graph | NeighborOracle, x: Hashable, N: float) -> QuadraticForm:
    """`curvature_form`, the dimension correction and `schur_reduce`.

    The correction (1/N)(Delta f)^2(x) with f(x) = 0 is (1/N)(sum of f on
    sphere 1)^2, that is 1/N subtracted from every sphere-1 entry.
    """
    q = curvature_form(o, x)
    if N != math.inf:
        mat = q.matrix.copy()
        mat[: q.n1, : q.n1] -= 1.0 / N
        q = QuadraticForm(q.basis, q.n1, mat)
    return schur_reduce(q)


def _is_psd(m: np.ndarray) -> bool:
    """Positive semidefiniteness via Cholesky of m + 1e-12 I (no eigensolver)."""
    try:
        np.linalg.cholesky(m + 1e-12 * np.eye(m.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return False


def bakry_emery_curvature_bisect(o: Graph | NeighborOracle, x: Hashable, N: float) -> float:
    """Curvature by bisection on K, to within `BISECT_TOL` or the float
    spacing at K if that is wider, with a Cholesky positive-semidefiniteness
    test of the reference route's Q_eff - (K/2) I; independent of the
    kernel's assembly and of the eigensolver."""
    _check_dimension(N)
    if not o.neighbors(x):
        return math.inf
    m = _reference_reduced_form(o, x, N).matrix
    _check_scale(m, N)
    dim = m.shape[0]
    # Gershgorin bounds on the spectrum of the reduced form
    radii = np.sum(np.abs(m), axis=1) - np.abs(np.diag(m))
    lo = float(np.min(np.diag(m) - radii)) - 1.0
    hi = float(np.max(np.diag(m) + radii)) + 1.0
    while hi - lo > BISECT_TOL / 2.0:
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):  # the floats near a large |K| are spaced wider than BISECT_TOL
            break
        if _is_psd(m - mid * np.eye(dim)):
            lo = mid
        else:
            hi = mid
    return 2.0 * lo
