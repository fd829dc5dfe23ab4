"""Regularity detection, the closed-form curvature of amply regular graphs,
diamond detection with Theorem 2.4's check (`bcn_check`, which returns the
parts of a verdict), and the two-sphere partition inequalities.

A graph is edge-regular (n, d, alpha) when it is d-regular and every
adjacent pair has exactly alpha common neighbors, and amply regular
(d, alpha, beta) when additionally every pair at distance two has exactly
beta common neighbors.  Complete and empty graphs are excluded from the
amply regular class, as are graphs with no distance-two pair (beta is then
unwitnessed).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .graph import BallMap, Graph, GraphError


@dataclass(frozen=True)
class RegularityClass:
    """Detection outcome: one of not_regular, regular, edge_regular,
    amply_regular, with parameters where defined and a diagnostic naming
    the first pair that blocked the next-stronger class."""

    kind: str
    n: int | None = None
    d: int | None = None
    alpha: int | None = None
    beta: int | None = None
    diagnostic: str | None = None

    @property
    def is_regular(self) -> bool:
        return self.kind in ("regular", "edge_regular", "amply_regular")

    @property
    def is_edge_regular(self) -> bool:
        return self.kind in ("edge_regular", "amply_regular")

    @property
    def is_amply_regular(self) -> bool:
        return self.kind == "amply_regular"


def detect_regularity(g: Graph) -> RegularityClass:
    if g.n == 0:
        return RegularityClass("regular", n=0, d=0)
    degs = [g.degree(v) for v in range(g.n)]
    d = degs[0]
    for v, dv in enumerate(degs):
        if dv != d:
            return RegularityClass(
                "not_regular", n=g.n, diagnostic=f"deg({0})={d} but deg({v})={dv}"
            )
    if g.m == 0:
        return RegularityClass("regular", n=g.n, d=0, diagnostic="empty graph")
    # common neighbours are counted on adjacency bitmasks
    masks = [sum(1 << w for w in nbrs) for nbrs in g.adjacency]
    alpha = None
    for u, v in g.edges():
        c = (masks[u] & masks[v]).bit_count()
        if alpha is None:
            alpha = c
        elif c != alpha:
            return RegularityClass(
                "regular",
                n=g.n,
                d=d,
                diagnostic=f"edge (0-based) ({u},{v}) has {c} common neighbors, first edge has {alpha}",
            )
    if d == g.n - 1:
        return RegularityClass(
            "edge_regular", n=g.n, d=d, alpha=alpha, diagnostic="complete graph"
        )
    # distance-two pairs via neighbor-of-neighbor expansion
    beta = None
    for x in range(g.n):
        nbrs = set(g.adjacency[x])
        dist2 = {z for y in g.adjacency[x] for z in g.adjacency[y]} - nbrs - {x}
        for z in dist2:
            if z < x:
                continue
            c = (masks[x] & masks[z]).bit_count()
            if beta is None:
                beta = c
            elif c != beta:
                return RegularityClass(
                    "edge_regular",
                    n=g.n,
                    d=d,
                    alpha=alpha,
                    diagnostic=f"pair ({x},{z}) at distance 2 has {c} common neighbors, first pair has {beta}",
                )
    if beta is None:
        return RegularityClass(
            "edge_regular",
            n=g.n,
            d=d,
            alpha=alpha,
            diagnostic="no distance-2 pair; beta unwitnessed",
        )
    return RegularityClass("amply_regular", n=g.n, d=d, alpha=alpha, beta=beta)


def local_graph_spectrum(g: Graph) -> list[list[float]]:
    """The eigenvalues (ascending) of the adjacency matrix of each vertex's
    local graph, the subgraph induced by its neighbours in the order of
    `g.adjacency`, one list per vertex; g must be regular of degree >= 1.

    One `eigvalsh` call solves the (n, d, d) stack of local adjacency
    matrices, gathered from g's n x n adjacency, each matrix as a call of
    its own would.
    """
    if g.n == 0:
        return []
    d = len(g.adjacency[0])
    if any(len(nbrs) != d for nbrs in g.adjacency):
        raise GraphError("local spectra are taken of a regular graph only")
    if d == 0:
        raise GraphError("the vertices are isolated; their local graphs are empty")
    import numpy as np  # here, so that `curvlab regularity` loads no numpy

    nbrs = np.array(g.adjacency)
    adj = np.zeros((g.n, g.n), dtype=bool)
    adj.flat[(np.arange(g.n)[:, None] * g.n + nbrs).ravel()] = True
    return np.linalg.eigvalsh(adj[nbrs[:, :, None], nbrs[:, None, :]].astype(float)).tolist()


def arg_curvature_formula(
    d: int, alpha: int, beta: int, local_spectrum: Sequence[float]
) -> float:
    """Closed-form vertex curvature of an amply regular graph:
    2 + alpha/2 + min(0, (2d(beta-2) - alpha^2)/(2 beta)
                         + (2/beta) min over spectrum of (lam - alpha/2)^2).
    """
    if beta < 1:
        raise GraphError(f"formula requires beta >= 1, got {beta}")
    if not local_spectrum:
        raise GraphError("local spectrum must be nonempty")
    inner = (2.0 * d * (beta - 2) - alpha * alpha) / (2.0 * beta)
    inner += (2.0 / beta) * min((lam - alpha / 2.0) ** 2 for lam in local_spectrum)
    return 2.0 + alpha / 2.0 + min(0.0, inner)


def contains_induced_diamond(g: Graph) -> tuple[int, int, int, int] | None:
    """An induced K4-minus-an-edge witness (c, d, a, b), or None.

    Present exactly when some edge (c, d) has two non-adjacent common
    neighbors a, b; absence is equivalent to every vertex neighborhood
    inducing a disjoint union of cliques.  K4 alone does not count.
    """
    for c, dd in g.edges():
        common = sorted(set(g.adjacency[c]) & set(g.adjacency[dd]))
        for i, a in enumerate(common):
            for b in common[i + 1 :]:
                if not g.has_edge(a, b):
                    return (c, dd, a, b)
    return None


def bcn_check(g: Graph, reg: RegularityClass | None = None) -> tuple[bool, bool | None, dict]:
    """Theorem 2.4 on g as (applicable, holds, evidence); `reg` is g's
    regularity class when already known.

    The theorem applies to amply regular graphs with beta = 2 and
    d < alpha(alpha+3)/2, and a violation signals a bug.  Its conclusion is
    induced-diamond-freeness (each vertex neighborhood induces a disjoint
    union of cliques); subgraph containment would be falsified by rook's
    graphs such as K5 x K5, whose row cliques carry plenty of non-induced
    diamonds while their neighborhoods are still disjoint cliques.  The
    evidence is {"reason", "witness"}, the witness an induced diamond
    (c, d, a, b) or None.
    """
    reg = detect_regularity(g) if reg is None else reg
    if not reg.is_amply_regular or reg.beta != 2:
        reason = f"not amply regular with beta=2 ({reg.kind})"
        return False, None, {"reason": reason, "witness": None}
    bound = reg.alpha * (reg.alpha + 3) / 2.0
    if not reg.d < bound:
        reason = f"d={reg.d} not below alpha(alpha+3)/2={bound}"
        return False, None, {"reason": reason, "witness": None}
    witness = contains_induced_diamond(g)
    reason = "induced-diamond-free" if witness is None else "contains an induced diamond"
    return True, witness is None, {"reason": reason, "witness": witness}


def _edge_count(g: Graph, left: Iterable[int], right: set[int]) -> int:
    return sum(1 for u in left for v in g.adjacency[u] if v in right)


def _sphere_split(bmap: BallMap, X: frozenset) -> tuple[set, set]:
    """Sphere 1 (N1) of the 2-ball `bmap` and Xb, the complement of X in it."""
    n1 = set(bmap.sphere_vertices(1))
    if not n1:
        raise GraphError(f"center {bmap.vertices[0]} is isolated; sphere 1 is empty")
    if not X <= n1:
        raise GraphError("X must sit inside sphere 1 of the ball's center")
    return n1, n1 - X


def lemma1_gap(g: Graph, bmap: BallMap, X: frozenset, epsilon: float, K: float) -> float:
    """Slack of the partition inequality at the center x of the 2-ball
    `bmap` of g, for x satisfying CD(inf, K): LHS - RHS of

      (1-eps)^2 [ e(X,Xb) + sum_{z in N2} d_X(z) d_Xb(z) / d_N1(z) ]
        >= (1/4)(2K + d(x) - 3)(eps^2 |X| + |Xb|)
           + (1/4)(eps^2 e(X,N2) + e(Xb,N2))
           - (1/2)(eps |X| + |Xb|)^2

    where X lies in sphere 1 (N1) and Xb is its complement there.  The
    paper's Lemma 1 also splits sphere 2 (N2) into A and Ab, and its bracket
    reads e(X,Xb) + e(X,Ab) + e(Xb,A) - sum_{z in A} d_Xb(z)^2 / d_N1(z)
    - sum_{z in Ab} d_X(z)^2 / d_N1(z).  Since d_X(z) + d_Xb(z) = d_N1(z),
    each z in N2 adds d_X(z) d_Xb(z) / d_N1(z) to it on either side of the
    split, so the bracket is the one above whatever A is.
    """
    n1, Xb = _sphere_split(bmap, X)
    bracket = _edge_count(g, X, Xb)
    rhs = 0.25 * (2 * K + len(n1) - 3) * (epsilon**2 * len(X) + len(Xb))
    rhs -= 0.5 * (epsilon * len(X) + len(Xb)) ** 2
    for z in bmap.sphere_vertices(2):
        dx = sum(1 for w in g.adjacency[z] if w in X)
        dxb = sum(1 for w in g.adjacency[z] if w in Xb)
        bracket += dx * dxb / (dx + dxb)
        rhs += 0.25 * (epsilon**2 * dx + dxb)
    return (1 - epsilon) ** 2 * bracket - rhs


def corollary2_gap(
    g: Graph, bmap: BallMap, reg: RegularityClass, X: frozenset, A: frozenset, K: float
) -> float:
    """Slack of the edge-regular partition bound at the center of the
    2-ball `bmap` of g, where `reg` is g's regularity class:
    e(X,Xb) + e(X,Ab) + e(Xb,A) >= (2K + 2d - alpha - 4) |X||Xb| / (4d),
    with A in sphere 2 and Ab its complement there.
    """
    if not reg.is_edge_regular:
        raise GraphError(f"requires an edge-regular graph, detected {reg.kind}")
    _, Xb = _sphere_split(bmap, X)
    n2 = set(bmap.sphere_vertices(2))
    if not A <= n2:
        raise GraphError("A must sit inside sphere 2 of the ball's center")
    crossing = _edge_count(g, X, Xb) + _edge_count(g, X, n2 - A) + _edge_count(g, Xb, A)
    rhs = (2 * K + 2 * reg.d - reg.alpha - 4) * len(X) * len(Xb) / (4.0 * reg.d)
    return crossing - rhs


def diamond_bruteforce(g: Graph) -> bool:
    """4-subset scan for an induced K4-minus-an-edge, four vertices whose six
    pairs hold exactly five edges (oracle for contains_induced_diamond);
    capped at 12 vertices."""
    if g.n > 12:
        raise GraphError(f"diamond scan capped at 12 vertices, got {g.n}")
    return any(
        sum(g.has_edge(u, v) for u, v in combinations(quad, 2)) == 5
        for quad in combinations(range(g.n), 4)
    )
