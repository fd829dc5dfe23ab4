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

- The production kernel assembles the reduced forms of a stack of centres
  from a stack of 0/1 adjacencies (`_graph_reduced_forms`) and solves them
  with one stacked `eigh` (`_stacked_min_eigenpairs`).  `graph_curvature`
  gives it a list of whole graphs, stacking the centres of one degree
  across the graphs; a corpus scan hands it a chunk of graphs at a time.
  `bakry_emery_curvature` gives it the adjacency of the 2-ball of one
  vertex of any neighbour oracle and adds the witness.
- The reference route builds one vertex's form as a matrix
  (`curvature_form`), subtracts the 1/N correction and eliminates sphere 2
  (`schur_reduce`), on plain arrays; `bakry_emery_curvature_bisect` then
  bisects on K with a Cholesky test of positive semidefiniteness, with no
  eigensolver.  It calls no function of the kernel, nor the kernel one of
  its own.

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

from .graph import MAX_ADJACENCY_ENTRIES, Graph, GraphError, NeighborOracle, ball

DEFAULT_EIG_TOL = 1e-10
# the width to which bakry_emery_curvature_bisect brackets K
BISECT_TOL = 1e-9

# Centres are stacked in batches whose arrays hold at most this many entries
# (512 KiB of floats), so the kernel's temporaries stay bounded on any graph.
_BATCH_ENTRIES = 1 << 16


class FormError(GraphError):
    """Signals a malformed or inconsistent curvature form."""


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
    w the largest order; a smaller graph is padded with isolated vertices.
    Raises GraphError when the array would hold more than
    `MAX_ADJACENCY_ENTRIES` entries."""
    w = max((g.n for g in graphs), default=0)
    if len(graphs) * w * w > MAX_ADJACENCY_ENTRIES:
        raise GraphError(
            f"curvature needs a {len(graphs)} x {w} x {w} adjacency array, above its limit "
            f"of {MAX_ADJACENCY_ENTRIES} entries"
        )
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
    batch of centres).  `bakry_emery_curvature` runs the same assembly on
    one 2-ball, and the tests hold the two bit for bit equal; the reference
    route (`curvature_form`, `schur_reduce`, Cholesky bisection) is the
    kernel's independent check.
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
    kernel of `graph_curvature` run on the 2-ball of x as a graph of its
    own, so any neighbour oracle will do.  The ball holds every neighbour of
    sphere 1, so the degrees and spheres read off it are the graph's, and
    its sphere order is the sorted order the kernel gathers.  The witness is
    the minimal eigenvector on sphere 1, extended to sphere 2 by the Schur
    back-substitution f2 = -Q22^{-1} Q21 f1 = 2 (a12^T f1) / (1^T a12); it
    attains near-equality.  Isolated vertices return +inf (supremum over an
    empty constraint set).
    """
    _check_dimension(N)
    adj, bmap = ball(o, x)
    k = bmap.sphere.count(1)
    if k == 0:
        return CurvatureReport(math.inf, None)
    c = np.zeros(1, dtype=np.intp)  # the ball is graph 0, its centre vertex 0
    form = _graph_reduced_forms(adj[None], adj.sum(1)[None], c, c, N)[0]
    _check_scale(form, N)
    lam, vec = min_eigenpair(form)
    a12 = adj[1 : k + 1, k + 1 :]  # sphere 1 by sphere 2
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
    """Reduced forms, 1/N subtracted, of the centres xs of the graphs gs, all
    of one degree k, as an (m, k, k) stack, with each centre's spheres read
    off its graph's 0/1 adjacency and deg its graph's degrees; byte for byte
    the reference route's `curvature_form`, correction and `schur_reduce`."""
    m = len(xs)
    rows = adj[gs, xs]
    n1 = np.nonzero(rows)[1].reshape(m, -1)  # sorted sphere 1 of each centre
    k = n1.shape[1]
    g1 = gs[:, None]
    s2 = np.logical_or.reduce(adj[g1, n1], 1) > rows  # sphere 2: reached via sphere 1, not adjacent
    s2[np.arange(m), xs] = False  # and not the centre
    a11 = adj[g1[:, :, None], n1[:, :, None], n1[:, None, :]]
    in1 = a11.sum(2)  # degrees of sphere 1 within sphere 1; the rest but x lead to sphere 2
    # each entry of Q11 is a small quarter-integer, exact in floating point,
    # so building it elementwise gives the reference route's bits
    q = np.where(a11, -0.5, 0.5)
    q.reshape(m, -1)[:, :: k + 1] = in1 + 0.75 * (deg[g1, n1] - 1 - in1) + (5 - k) / 4.0
    if N != math.inf:
        q -= 1.0 / N
    n2 = np.add.reduce(s2, 1)
    for size in set(n2.tolist()) - {0}:
        # the centres of a stack share n2, so each keeps the shape of the
        # (k, n2) @ (n2, k) product `schur_reduce` forms
        sel = np.flatnonzero(n2 == size)
        idx2 = np.nonzero(s2[sel])[1].reshape(len(sel), 1, size)  # sorted sphere 2
        a12 = adj[g1[sel][:, :, None], n1[sel][:, :, None], idx2]
        q12 = 0.0 - a12 / 2.0
        q[sel] -= (q12 / (a12.sum(1) / 4.0)[:, None, :]) @ q12.transpose(0, 2, 1)
    return q


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


def curvature_form(o: Graph | NeighborOracle, x: Hashable) -> tuple[np.ndarray, int]:
    """Quadratic form Q with f^T Q f = Gamma_2(f)(x) for all f with f(x) = 0,
    and k = |S1|.  Q's basis is the 2-ball in `ball` order without the
    centre (whose value is gauged to zero): sphere 1, then sphere 2.

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
    return q, k


def schur_reduce(q: np.ndarray, k: int) -> np.ndarray:
    """Eliminate the sphere-2 block of a form whose first k basis vertices
    are sphere 1: the k x k array Q_eff = Q11 - Q12 Q22^{-1} Q21, or q
    itself when there is no sphere 2.

    For every sphere-1 vector f1, f1^T Q_eff f1 equals the minimum of
    (f1,f2)^T Q (f1,f2) over sphere-2 vectors f2.  The minimum exists
    because the sphere-2 block is diagonal with positive entries (one
    quarter of each sphere-2 vertex's sphere-1 degree), so Q22^{-1} is a
    division by its diagonal; any other block is rejected.
    """
    if len(q) == k:
        return q
    q12 = q[:k, k:]
    q22 = q[k:, k:]
    d = np.diag(q22)
    if np.count_nonzero(q22 - np.diag(d)) or not np.all(d > 0):
        raise FormError("sphere-2 block is not diagonal with positive entries")
    return q[:k, :k] - (q12 / d) @ q12.T


def _reference_reduced_form(o: Graph | NeighborOracle, x: Hashable, N: float) -> np.ndarray:
    """`curvature_form`, the dimension correction and `schur_reduce`.

    The correction (1/N)(Delta f)^2(x) with f(x) = 0 is (1/N)(sum of f on
    sphere 1)^2, that is 1/N subtracted from every sphere-1 entry.
    """
    q, k = curvature_form(o, x)
    if N != math.inf:
        q[:k, :k] -= 1.0 / N
    return schur_reduce(q, k)


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
    m = _reference_reduced_form(o, x, N)
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
