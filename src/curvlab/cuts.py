"""Edge-connectivity, minimum-cut certificates, and star-cut classification.

The global minimum cut uses Stoer-Wagner with unit weights and lowest-index
tie-breaking, so certificates are reproducible.  Restricted edge
connectivity (both cut sides of size at least two) scans non-adjacent
vertex pairs, then runs unit-capacity max-flows between vertex sets on the
graph itself, capped at the best cut so far, over one fixed order of
(source, sink) pairs, `_restricted_pairs`: the anchor edge to every edge
disjoint from it, then edges at the anchor's two ends.

Star-cut classification asks, when lambda equals the minimum degree delta,
for a minimum cut with both sides of size at least two.  It walks the same
pair order with every flow capped at lambda + 1 and stops at the first cut
of value lambda, which is the restricted search's own certificate.  A
decision from the side-size lemma, `_non_star_cut_exists`, tells first
whether a flow from the anchor edge can reach lambda at all; when it
cannot, only the crossing pairs are walked.
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


def _restricted_pairs(g: Graph, disjoint: bool = True):
    """The (source, sink) vertex sets of the restricted search's flows in
    order, with the anchor edge (a, b) = g's first edge: {a, b} to each edge
    disjoint from it unless `disjoint` is false, then the crossing pairs,
    an edge at a and one at b, not (a, b), that share no vertex.  The
    source's iteration order seeds `_max_flow`, so it fixes certificates."""
    edges = g.edges()
    a, b = edges[0]
    if disjoint:
        for f in edges:
            if a not in f and b not in f:
                yield {a, b}, set(f)
    for fa in ((a, c) for c in g.adjacency[a] if c != b):
        for fb in ((b, c) for c in g.adjacency[b] if c != a):
            if not set(fa) & set(fb):
                yield set(fa), set(fb)


def restricted_edge_connectivity(g: Graph) -> tuple[int, CutCertificate]:
    """Minimum cut of a connected graph over bipartitions with both sides of
    size at least two, with a certificate; a disconnected graph or one with
    fewer than four vertices raises GraphError.

    A minimum such cut has each side either connected (hence containing an
    edge, and an edge at any prescribed crossing vertex) or equal to a
    non-adjacent vertex pair, whose cut value is the degree sum.  So it is
    enough to scan non-adjacent pairs, then run a max-flow per pair of
    `_restricted_pairs` capped at the best cut so far; only a strictly
    smaller cut replaces the best.  With n >= 4 there is a non-adjacent
    pair or, in a complete graph, an edge disjoint from the anchor.
    """
    if g.n < 4:
        raise GraphError(f"restricted edge connectivity needs n >= 4, got {g.n}")
    if not is_connected(g):
        raise GraphError("restricted edge connectivity requires a connected graph")

    best, best_side = math.inf, None
    # sides that are a non-adjacent vertex pair
    for u in range(g.n):
        for w in range(u + 1, g.n):
            if w not in g.adjacency[u] and g.degree(u) + g.degree(w) < best:
                best, best_side = g.degree(u) + g.degree(w), {u, w}
    for source, sink in _restricted_pairs(g):
        value, side = _max_flow(g, source, sink, best)
        if value < best:
            best, best_side = value, side
    return best, _certificate(g, best_side)


def _non_star_cut_exists(g: Graph, delta: int) -> bool:
    """For g connected with n >= 4 and edge connectivity equal to its
    minimum degree delta.  False: no cut of value <= delta with both sides
    of size at least two keeps the anchor edge (a, b), g's first edge, in
    one side.  True: a cut of value delta with both sides that large exists.

    Side-size lemma: let Y be a side with |Y| = k and |dY| <= delta.  Each
    vertex of Y has at most k - 1 neighbours in Y, so at least
    delta - k + 1 cut edges, and k (delta - k + 1) <= |dY| <= delta, that
    is (k - 1)(delta - k) <= 0: k = 1 or k >= delta.  So both sides of a
    sought cut have size >= delta, and one of two cases holds.

    1. A side Y has k = delta >= 2.  The bound above is then tight: Y is
       a clique of degree-delta vertices with one cut edge each, so
       Y = N[t] - {w} for any t in Y and its outside neighbour w.  Such a
       set is a clique iff every non-adjacent pair inside N(t) contains
       w; the scan below tests this for each t of degree delta, and the
       other side has n - delta >= 2 vertices.  No flow is needed.
    2. The side Y without the anchor has k > delta.  At most delta
       vertices of Y meet a cut edge, so some t in Y meets none and N[t]
       lies inside Y, while a, b do not.  The flow from {a, b} to N[t] is
       then at most delta.  Conversely a flow of value <= delta between
       {a, b} and a disjoint N[t], which has at least two vertices, gives
       a cut with both sides of size >= 2.

    A cut that the anchor crosses is left to the crossing pairs of
    `_restricted_pairs`.  Every flow stops at delta + 1.
    """
    adj = g.adjacency
    if delta >= 2 and g.n - delta >= 2:
        for t in range(g.n):
            # w must be the one neighbour of t whose degree may exceed delta
            irregular = [u for u in adj[t] if len(adj[u]) != delta]
            if len(adj[t]) != delta or len(irregular) > 1:
                continue
            inner = set(adj[t])
            # missing[u]: how many of the other vertices of N(t) u misses
            missing = {u: delta - 1 - len(inner.intersection(adj[u])) for u in adj[t]}
            non_edges = sum(missing.values()) // 2
            if any(missing[w] == non_edges for w in irregular or adj[t]):
                return True
    a, b = g.edges()[0]
    for t in range(g.n):
        sink = {t, *adj[t]}
        if a not in sink and b not in sink:
            if _max_flow(g, {a, b}, sink, delta + 1)[0] <= delta:
                return True
    return False


def classify_min_cuts(g: Graph, connectivity: tuple) -> CutCertificate | None:
    """A minimum cut with both sides of size at least two, or None when
    every minimum cut isolates a single vertex.  `connectivity` is g's
    `edge_connectivity` result.

    For n <= 3 every bipartition has a singleton side, so there is none.
    When lambda is below the minimum degree delta the given certificate
    is already non-star.  When lambda = delta the answer is the
    certificate of `restricted_edge_connectivity` if its value is lambda,
    else None, found by one sweep over `_restricted_pairs` that stops at
    its first flow of value lambda:

    - a non-adjacent pair side costs 2 delta > lambda, so never wins;
    - every restricted cut costs >= lambda and only a smaller one
      replaces the best, so the search keeps its first flow of value lambda;
    - under any cap above lambda such a flow makes the same augmentations
      and ends at the same residual side, so lambda + 1 is cap enough;
    - when `_non_star_cut_exists` says no, every flow to an edge disjoint
      from the anchor exceeds delta, so only the crossing pairs are walked.
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
    for source, sink in _restricted_pairs(g, disjoint=_non_star_cut_exists(g, delta)):
        value, side = _max_flow(g, source, sink, lam + 1)
        if value <= lam:
            return _certificate(g, side)
    return None
