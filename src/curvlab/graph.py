"""Immutable simple graphs, lazy neighbor oracles, and 2-ball extraction.

Finite graphs use canonical integer vertex indices 0..n-1 with sorted
adjacency tuples and are their own neighbor oracles.  Infinite (but locally
finite) graphs are exposed only through :class:`NeighborOracle`, which
local operations take alike; whole-graph operations reject oracles.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Hashable, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np


class GraphError(ValueError):
    """Raised for malformed graph constructions or out-of-contract queries."""


# The largest vertex count of a graph curvlab builds.  A cycle this long
# takes about 120 MiB as a Graph; a file or a generator spec that names a
# larger order is refused before anything is allocated per vertex.
MAX_ORDER = 1 << 18
# The largest edge count of a graph that a generator spec or a file builds,
# checked by `generators.generate` before it builds anything and by the
# `formats` readers before any adjacency set is built: hypercube:18 has
# 2,359,296 edges, and building K_2897, 4,194,856 edges, just above it,
# peaked near 460 MiB of resident memory under CPython 3.11.
MAX_EDGES = 1 << 22
# The largest dense adjacency array built, in entries (256 MiB of bools):
# `ball` for one 2-ball and `curvature.graph_curvature` for its stack.
MAX_ADJACENCY_ENTRIES = 1 << 28


@dataclass(frozen=True)
class Graph:
    """Finite simple undirected graph.

    Invariants: no self-loops, no duplicate neighbors, symmetric adjacency,
    every neighbor index in [0, n).  Instances are immutable and hashable.
    """

    n: int
    adjacency: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(len(nbrs) for nbrs in self.adjacency) // 2

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (u, v) pairs with u < v, lexicographically sorted."""
        return [(u, v) for u in range(self.n) for v in self.adjacency[u] if u < v]


def from_edge_list(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a Graph from an edge list, deduplicating and symmetrizing.

    Raises GraphError for self-loops, endpoints outside [0, n) or an order
    n above MAX_ORDER, which is checked before `edges` is read.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    if n > MAX_ORDER:
        raise GraphError(f"graph order {n} is above the maximum order MAX_ORDER = {MAX_ORDER}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return Graph(n, tuple(tuple(sorted(s)) for s in nbrs))


def induced_subgraph(g: Graph, vertices: Sequence[int]) -> Graph:
    """Induced subgraph on `vertices`, relabeled to 0..len-1 in given order."""
    index = {v: i for i, v in enumerate(vertices)}
    edges = [
        (index[u], index[v])
        for u in vertices
        for v in g.adjacency[u]
        if u < v and v in index
    ]
    return from_edge_list(len(vertices), edges)


class NeighborOracle:
    """Lazy adjacency interface for (possibly infinite) locally finite graphs.

    Vertex identifiers are opaque hashable, comparable values.  The wrapped
    function must return a finite iterable of distinct neighbors and be
    symmetric; symmetry is not enforced here but is checked by tests.
    """

    def __init__(self, neighbor_fn: Callable[[Hashable], Iterable[Hashable]]):
        self._fn = neighbor_fn

    def neighbors(self, v: Hashable) -> tuple:
        return tuple(self._fn(v))


@dataclass(frozen=True)
class BallMap:
    """Vertex bookkeeping for an extracted ball.

    `vertices[i]` is the original identifier of row and column i of the
    ball's adjacency and `sphere[i]` its distance from the center (0, 1,
    or 2).  Index 0 is the center, sphere-1 vertices follow in sorted
    order, then sphere-2 sorted.
    """

    vertices: tuple
    sphere: tuple[int, ...]

    def sphere_vertices(self, k: int) -> tuple:
        return tuple(v for v, s in zip(self.vertices, self.sphere) if s == k)


def ball(o: Graph | NeighborOracle, x: Hashable) -> tuple[np.ndarray, BallMap]:
    """The 0/1 adjacency of the subgraph induced on the radius-2 ball around
    x, as a bool array, and the ball's vertex bookkeeping.

    The center maps to index 0, sphere-1 vertices next (sorted), sphere-2
    last (sorted); this ordering is the basis contract for curvature forms.
    Raises GraphError when the array would hold more than
    MAX_ADJACENCY_ENTRIES entries.
    """
    import numpy as np  # here, so that the commands without curvature load no numpy

    n1 = sorted(set(o.neighbors(x)) - {x})
    n2 = sorted({z for y in n1 for z in o.neighbors(y)} - set(n1) - {x})
    spheres = [[x], n1, n2]
    ordered = [v for sph in spheres for v in sph]
    index = {v: i for i, v in enumerate(ordered)}
    size = len(ordered)
    if size * size > MAX_ADJACENCY_ENTRIES:
        raise GraphError(
            f"the 2-ball of {x!r} needs a {size} x {size} adjacency array, above its limit "
            f"of {MAX_ADJACENCY_ENTRIES} entries"
        )
    cells = []
    for i, v in enumerate(ordered):
        for w in o.neighbors(v):
            j = index.get(w)
            if j is not None and i < j:
                cells += (i * size + j, j * size + i)
    adj = np.zeros(size * size, dtype=bool)
    adj[cells] = True
    sphere_tags = tuple(s for s, sph in enumerate(spheres) for _ in sph)
    return adj.reshape(size, size), BallMap(tuple(ordered), sphere_tags)


def reachable(g: Graph, s: int) -> set[int]:
    """The vertices of s's component, found by breadth-first search."""
    seen = {s}
    q = deque([s])
    while q:
        u = q.popleft()
        for v in g.adjacency[u]:
            if v not in seen:
                seen.add(v)
                q.append(v)
    return seen


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(reachable(g, 0)) == g.n


def girth(g: Graph) -> float:
    """Length of a shortest cycle; math.inf for forests.

    For each edge (u,v), a shortest u-v path avoiding that edge plus the
    edge itself is a shortest cycle through it; minimizing over edges is
    exact because every cycle contains an edge.
    """
    best = math.inf
    for u, v in g.edges():
        # BFS from u to v in g minus the edge (u,v)
        dist = {u: 0}
        q = deque([u])
        found = None
        while q and found is None:
            a = q.popleft()
            if dist[a] + 1 >= best:
                break
            for b in g.adjacency[a]:
                if a == u and b == v:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    if b == v:
                        found = dist[b]
                        break
                    q.append(b)
        if found is not None:
            best = min(best, found + 1)
    return best
