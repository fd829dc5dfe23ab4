"""Edge-connectivity, minimum-cut certificates, and star-cut classification.

The global minimum cut uses Stoer-Wagner with unit weights and lowest-index
tie-breaking, so certificates are reproducible.  Restricted edge
connectivity (both cut sides of size at least two) runs unit-capacity
max-flows between vertex sets on the graph itself, capped at the best cut
so far; the pair enumeration is reduced to a provably sufficient family,
see `restricted_edge_connectivity`.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass

from .graph import Graph, GraphError, is_connected, reachable


@dataclass(frozen=True)
class CutCertificate:
    """A vertex bipartition witnessing a cut value.

    `cut_edges` is exactly the set of edges with one end in `side_L`,
    and `value` their count.
    """

    side_L: frozenset
    cut_edges: tuple[tuple[int, int], ...]
    value: int

    def verify(self, g: Graph) -> bool:
        """Recompute the cut from side_L and compare with the stored data."""
        if not (0 < len(self.side_L) < g.n):
            return False
        crossing = tuple(
            (u, v) for u, v in g.edges() if (u in self.side_L) != (v in self.side_L)
        )
        return crossing == tuple(sorted(self.cut_edges)) and len(crossing) == self.value


def _certificate(g: Graph, side: set[int]) -> CutCertificate:
    side_L = frozenset(side)
    cut = tuple((u, v) for u, v in g.edges() if (u in side_L) != (v in side_L))
    return CutCertificate(side_L, cut, len(cut))


def edge_connectivity(g: Graph) -> tuple[int, CutCertificate | None]:
    """Global minimum cut value with an achieving certificate.

    Single-vertex graphs return 0 with no certificate (no bipartition
    exists); disconnected graphs return 0 with vertex 0's component as side_L.
    """
    if g.n == 0:
        raise GraphError("edge connectivity of the empty graph is undefined")
    if g.n == 1:
        return 0, None
    component = reachable(g, 0)
    if len(component) < g.n:
        return 0, _certificate(g, component)
    # Stoer-Wagner with unit weights; supernodes carry their merged members.
    members = {v: [v] for v in range(g.n)}
    weight = {v: dict.fromkeys(g.adjacency[v], 1) for v in range(g.n)}
    best_value, best_side = None, None
    while len(members) > 1:
        # maximum adjacency ordering from the smallest active vertex: w holds
        # the weights into A of the vertices outside it, and the heap of
        # (-w, v) pops the largest weight, then the lowest index; an entry
        # whose weight has grown since, or whose vertex joined A, is stale
        t = min(members)
        w = {v: 0 for v in members if v != t}
        w.update(weight[t])
        heap = [(-c, v) for v, c in w.items()]
        heapq.heapify(heap)
        while w:
            negw, nxt = heapq.heappop(heap)
            if w.get(nxt) != -negw:
                continue
            cut_of_phase = w.pop(nxt)
            s, t = t, nxt
            for u, c in weight[nxt].items():
                if u in w:
                    w[u] += c
                    heapq.heappush(heap, (-w[u], u))
        if best_value is None or cut_of_phase < best_value:
            best_value, best_side = cut_of_phase, set(members[t])
        # merge t into s
        members[s].extend(members.pop(t))
        for u, c in weight.pop(t).items():
            if u != s:
                weight[u].pop(t)
                weight[u][s] = weight[s][u] = weight[u].get(s, 0) + c
        weight[s].pop(t, None)
    return best_value, _certificate(g, best_side)


def min_cut_bruteforce(g: Graph) -> tuple[int, list[CutCertificate]]:
    """All minimum cuts by enumerating the 2^(n-1) bipartitions.

    Certificates are canonicalized so side_L contains vertex 0.
    """
    if g.n > 20:
        raise GraphError(f"brute-force min cut capped at 20 vertices, got {g.n}")
    if g.n < 2:
        raise GraphError("need at least two vertices for a cut")
    edges = g.edges()
    best = None
    cuts: list[frozenset] = []
    for mask in range(2 ** (g.n - 1)):
        side = {0} | {v for v in range(1, g.n) if (mask >> (v - 1)) & 1}
        if len(side) == g.n:
            continue
        value = sum(1 for u, v in edges if (u in side) != (v in side))
        if best is None or value < best:
            best, cuts = value, [frozenset(side)]
        elif value == best:
            cuts.append(frozenset(side))
    return best, [_certificate(g, set(side)) for side in cuts]


def _max_flow(g: Graph, source: set[int], sink: set[int], limit: float = math.inf):
    """Unit-capacity max-flow between disjoint vertex sets (Edmonds-Karp).

    Each BFS on g's adjacency starts at every source vertex and stops at the
    first sink vertex; `used[u]` holds the heads of u's arcs with flow.
    Returns the flow and the residual graph's reachable set, the unique
    minimal source side of a minimum cut, or (limit, None) at `limit`.
    """
    used: dict[int, set[int]] = {}
    flow = 0
    while flow < limit:
        parent = dict.fromkeys(source)
        q = deque(source)
        hit = None
        while q and hit is None:
            u = q.popleft()
            full = used.get(u, ())
            for v in g.adjacency[u]:
                if v not in parent and v not in full:
                    parent[v] = u
                    if v in sink:
                        hit = v
                        break
                    q.append(v)
        if hit is None:
            return flow, set(parent)
        v = hit
        while parent[v] is not None:
            u = parent[v]
            if u in used.get(v, ()):
                used[v].remove(u)
            else:
                used.setdefault(u, set()).add(v)
            v = u
        flow += 1
    return limit, None


def restricted_edge_connectivity(g: Graph, below=math.inf) -> tuple[float, CutCertificate | None]:
    """Minimum cut of a connected graph over bipartitions with both sides of
    size at least two; a disconnected graph raises GraphError.

    A minimum such cut has each side either connected (hence containing an
    edge, and an edge at any prescribed crossing vertex) or equal to a
    non-adjacent vertex pair, whose cut value is the degree sum.  It is
    therefore enough to run max-flows from a fixed anchor edge to every
    disjoint edge, between edges at the two endpoints of the anchor, and
    to scan non-adjacent pairs directly.  Each flow stops at the best cut
    so far, which starts at `below`: a minimum under `below` is returned
    as it would be without the bound, and none gives (inf, None).
    """
    if g.n < 4:
        raise GraphError(f"restricted edge connectivity needs n >= 4, got {g.n}")
    if not is_connected(g):
        raise GraphError("restricted edge connectivity requires a connected graph")

    best: float = below
    best_side: set[int] | None = None

    def consider(value, side):
        nonlocal best, best_side
        if value < best:
            best, best_side = value, side

    # sides that are a non-adjacent vertex pair
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if w not in g.adjacency[u]:
                consider(g.degree(u) + g.degree(w), {u, w})

    edges = g.edges()  # not empty: g is connected with n >= 4
    a, b = edges[0]
    for f in edges:
        if a in f or b in f:
            continue
        consider(*_max_flow(g, {a, b}, set(f), best))
    for fa in ((a, c) for c in g.adjacency[a] if c != b):
        for fb in ((b, c) for c in g.adjacency[b] if c != a):
            if set(fa) & set(fb):
                continue
            consider(*_max_flow(g, set(fa), set(fb), best))

    if best_side is None:
        return math.inf, None
    return int(best), _certificate(g, best_side)


def classify_min_cuts(g: Graph, connectivity: tuple) -> CutCertificate | None:
    """A minimum cut with both sides of size at least two, or None when
    every minimum cut isolates a single vertex.

    For n <= 3 every bipartition has a singleton side, so there is none.
    Otherwise star cuts are the only minimum cuts iff the connectivity
    equals the minimum degree and no both-sides->=2 partition matches it.
    `connectivity` is g's `edge_connectivity` result.
    """
    if g.n < 2:
        raise GraphError("cut classification needs at least two vertices")
    if not is_connected(g):
        raise GraphError("cut classification requires a connected graph")
    if g.n <= 3:
        return None
    lam, cert = connectivity
    delta = min(g.degree(v) for v in range(g.n))
    if lam < delta:
        # certificate cannot be a star: a singleton side would cost >= delta
        return cert
    # lam_r >= lam always, so only a restricted cut of value lam matters;
    # the bound turns any larger one into None
    return restricted_edge_connectivity(g, below=lam + 1)[1]
