"""Edge-connectivity, minimum-cut certificates, and star-cut classification.

The global minimum cut uses Stoer-Wagner with unit weights and lowest-index
tie-breaking, so certificates are reproducible.  Its value lambda is found
first by dominating-set flows (Matula, "Determining edge connectivity in
O(nm)", FOCS 1987), and the phases stop at the first one whose cut is
lambda, the cut a full run keeps.  Restricted edge connectivity (both cut
sides of size at least two) scans non-adjacent vertex pairs, then runs
unit-capacity max-flows between vertex sets on the graph itself, capped at
the best cut so far, over one fixed order of (source, sink) pairs,
`_restricted_pairs`: the anchor edge to every edge disjoint from it, then
edges at the anchor's two ends.

Star-cut classification asks, when lambda equals the minimum degree delta,
for a minimum cut with both sides of size at least two.  It walks the same
pair order with every flow capped at lambda + 1 and stops at the first cut
of value lambda, which is the restricted search's own certificate.  The
side-size lemma first decides whether a flow from the anchor edge can reach
lambda at all; when it cannot, only the crossing pairs are walked, or a
third vertex settles that there is no such cut with fewer flows.

Side-size lemma: let Y be a side with |Y| = k and |dY| <= delta.  Each
vertex of Y has at most k - 1 neighbours in Y, so at least delta - k + 1
cut edges, and k (delta - k + 1) <= |dY| <= delta, that is
(k - 1)(delta - k) <= 0: k = 1 or k >= delta.  With k = delta the bound is
tight (case 1, `_delta_clique_side`).  With k > delta at most |dY| <= delta
vertices of Y meet a cut edge, so some t in Y meets none and the closed
neighbourhood N[t] lies inside Y (case 2).

- Exact lambda (`edge_connectivity`): D is a dominating set built in
  index order, and each vertex that joins it after the first runs a flow
  to the vertices before it.  A cut of value below delta has k > delta on
  both sides (a single vertex costs at least delta, and k = delta makes
  the bound tight at delta), so each side holds some N[t] and hence a
  vertex of D.  The first vertex of D on the side opposite D's first
  vertex has a flow to the vertices before it, all on the other side, of
  at most that cut.  Every flow is at least lambda, so lambda is the
  minimum of delta and the flows.
- Anchor pair (Esfahanian and Hakimi, "On computing a conditional
  edge-connectivity of a graph", IPL 1988): a cut of value delta with both
  sides larger than delta that keeps a and b on one side has some N[t]
  on the other, so the flow from {a, b} to an N[t] that misses both is at
  most delta (`_non_star_cut_exists`).  Conversely such a flow gives a cut
  with both sides of size at least two.
- Vertex triple (`classify_min_cuts`): of any three vertices a, b, c two
  lie on one side of every bipartition.  A cut that separates a from b
  keeps c with one of them, so when no delta-clique side exists and no
  such cut keeps {a, b} together, the pairs {a, c} and {b, c} decide
  every remaining one.
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

    lambda is found first by dominating-set flows (Matula): walking the
    vertices in index order, each vertex v that no vertex of the set D built
    so far dominates runs one flow from {v} to D, capped at the least value
    so far, and joins D; lambda is the minimum of delta and those flows.
    Each flow is at least lambda.  A cut of value below delta has both
    sides larger than delta (the side-size lemma), so each side holds a
    whole closed neighbourhood N[t] and, D dominating, a vertex of D; the
    first vertex of D on the side opposite D's first vertex then has a
    flow to the vertices of D before it no larger than that cut.

    The Stoer-Wagner phases then stop at the first phase whose cut equals
    lambda.  A full run replaces its best cut only by a strictly smaller
    one, so it keeps that phase's cut too, and the certificate is the same.
    """
    if g.n == 0:
        raise GraphError("edge connectivity of the empty graph is undefined")
    if g.n == 1:
        return 0, None
    component = reachable(g, 0)
    if len(component) < g.n:
        return 0, _certificate(g, component)
    lam = min(g.degree(v) for v in range(g.n))
    dominating: set[int] = set()
    dominated: set[int] = set()
    for v in range(g.n):
        if v not in dominated:
            if dominating:
                lam = min(lam, _max_flow(g, {v}, dominating, lam)[0])
            dominating.add(v)
            dominated.update(g.adjacency[v], (v,))
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
            if best_value == lam:
                break
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
    an edge at a and one at b, not (a, b), that share no vertex.  The pair
    order fixes certificates, since a search keeps the first pair with its
    least flow; the order inside a source set does not: below its cap,
    `_max_flow` returns the unique minimal source side of a minimum cut,
    whatever order it augments in."""
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


def _delta_clique_side(g: Graph, delta: int) -> bool:
    """Whether a cut of value delta has a side of exactly delta >= 2
    vertices and another of at least two: case 1 of the side-size lemma
    (module docstring).  Such a side is a clique of degree-delta vertices
    with one cut edge each, so Y = N[t] - {w} for any t in Y and its
    outside neighbour w, and N[t] - {w} is a clique iff every non-adjacent
    pair inside N(t) contains w.  The scan tests this for each t of degree
    delta; no flow is needed.
    """
    adj = g.adjacency
    if delta < 2 or g.n - delta < 2:
        return False
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
    return False


def _non_star_cut_exists(g: Graph, delta: int, a: int, b: int) -> bool:
    """Whether the flow from {a, b} to some closed neighbourhood N[t] that
    misses both is at most delta, for distinct vertices a, b of g, with
    every flow stopped at delta + 1.

    True: a cut of value <= delta with both sides of size at least two
    exists, since N[t] has at least two vertices.  False: no cut of value
    <= delta has a and b on one side and more than delta vertices on the
    other, case 2 of the side-size lemma (module docstring).
    """
    adj = g.adjacency
    near = {a, b, *adj[a], *adj[b]}
    return any(
        _max_flow(g, {a, b}, {t, *adj[t]}, delta + 1)[0] <= delta
        for t in range(g.n)
        if t not in near
    )


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
    - when neither `_delta_clique_side` nor `_non_star_cut_exists` for the
      anchor edge (a, b) says yes, every non-star minimum cut separates a
      from b, so every flow to an edge disjoint from the anchor exceeds
      delta and only the crossing pairs are walked.

    In that last case a third vertex c, the lowest common neighbour of a
    and b or else the lowest other vertex, lies on a's or on b's side of
    every such cut, so `_non_star_cut_exists` for {a, c} and for {b, c}
    decides whether one exists.  Those flows run instead of the crossing
    pairs when they are fewer, counted before any flow runs; on a yes the
    crossing pairs are walked for the witness all the same.
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
    a, b = g.edges()[0]
    anchor_side = _delta_clique_side(g, delta) or _non_star_cut_exists(g, delta, a, b)
    if not anchor_side:
        adj = g.adjacency
        common = set(adj[a]).intersection(adj[b])
        c = min(common) if common else next(v for v in range(g.n) if v not in (a, b))
        crossing = (len(adj[a]) - 1) * (len(adj[b]) - 1) - len(common)
        # N[t] misses u and c iff t lies outside N[u] and N[c]
        near_c = {c, *adj[c]}
        triple = sum(g.n - len(near_c.union(adj[u], (u,))) for u in (a, b))
        if triple < crossing and not any(_non_star_cut_exists(g, delta, u, c) for u in (a, b)):
            return None
    for source, sink in _restricted_pairs(g, disjoint=anchor_side):
        value, side = _max_flow(g, source, sink, lam + 1)
        if value <= lam:
            return _certificate(g, side)
    return None
