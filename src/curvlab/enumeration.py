"""Exhaustive small-graph enumeration up to isomorphism.

Graphs are generated level by level: every graph on k+1 vertices arises
from some graph on k vertices by appending a vertex of maximum degree
(delete any vertex of maximum degree to see it).  So extending every
k-vertex representative by each neighborhood whose new vertex has
maximum degree, and deduplicating, yields all isomorphism classes; the
other neighborhoods are never built.  Deduplication buckets candidates
by a color-refinement invariant and settles ties with a backtracking
isomorphism test, which also separates refinement-equivalent pairs such
as C3+C3 versus C6.  The representative of a class is the first of its
candidates, which is the same with or without the degree rule (see
`all_graphs`).
"""

from __future__ import annotations

from functools import lru_cache

from .graph import Graph, GraphError, from_edge_list, is_connected

# counts of graphs on n=1.. vertices, used as self-checks in the tests:
# all graphs      1, 2, 4, 11, 34, 156, 1044, 12346
# connected       1, 1, 2, 6, 21, 112, 853, 11117
MAX_ENUMERATION_N = 9


def _refine(g: Graph) -> tuple[list[int], tuple]:
    """Stable color-refinement colors of g and the invariant built from them.

    Vertices start with their degree as color; each round recolors by the
    sorted multiset of neighbor colors, with color ids re-indexed by sorted
    signature, so the invariant (the stable color histogram and the sorted
    edge color pairs) is equal for isomorphic graphs.
    """
    colors = [g.degree(v) for v in range(g.n)]
    for _ in range(g.n):
        sigs = [
            (colors[v], tuple(sorted(colors[u] for u in g.adjacency[v])))
            for v in range(g.n)
        ]
        palette = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [palette[s] for s in sigs]
        if new == colors:
            break
        colors = new
    hist = tuple(sorted(colors))
    edge_colors = tuple(
        sorted((min(colors[u], colors[v]), max(colors[u], colors[v])) for u, v in g.edges())
    )
    return colors, (g.n, g.m, hist, edge_colors)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism by backtracking over color-compatible assignments."""
    if g.n != h.n or g.m != h.m:
        return False
    cg, key_g = _refine(g)
    ch, key_h = _refine(h)
    return key_g == key_h and _match(g, cg, h, ch)


def _match(g: Graph, cg: list[int], h: Graph, ch: list[int]) -> bool:
    """Search for an isomorphism g -> h mapping each vertex to one of the
    same stable color; the graphs must share their refinement invariant."""
    # assign rare-colored, high-degree vertices first
    color_count = {c: cg.count(c) for c in set(cg)}
    order = sorted(range(g.n), key=lambda v: (color_count[cg[v]], -g.degree(v), v))
    targets: dict[int, list[int]] = {}
    for v in range(h.n):
        targets.setdefault(ch[v], []).append(v)
    return _extend(0, order, g, cg, h, targets, {}, [False] * h.n)


def _extend(
    i: int, order: list[int], g: Graph, cg: list[int], h: Graph,
    targets: dict[int, list[int]], mapping: dict[int, int], used: list[bool],
) -> bool:
    """Extend the partial isomorphism `mapping` of order[:i] to all of g; a
    module-level recursion, so a search leaves no reference cycle behind."""
    if i == g.n:
        return True
    v = order[i]
    for w in targets.get(cg[v], ()):
        if used[w]:
            continue
        ok = True
        for u in g.adjacency[v]:
            if u in mapping and not h.has_edge(w, mapping[u]):
                ok = False
                break
        if ok:
            # forward checks put mapped neighbors of v inside N(w); equal
            # counts then force non-edges to map to non-edges as well
            mapped_nbrs = sum(1 for u in g.adjacency[v] if u in mapping)
            back_nbrs = sum(1 for u2 in h.adjacency[w] if used[u2])
            if mapped_nbrs != back_nbrs:
                ok = False
        if ok:
            mapping[v] = w
            used[w] = True
            if _extend(i + 1, order, g, cg, h, targets, mapping, used):
                return True
            del mapping[v]
            used[w] = False
    return False


def _extensions(g: Graph) -> list[Graph]:
    """The graphs obtained by adding one vertex whose degree is maximum in
    the result, in ascending order of its neighborhood mask; the new vertex
    g.n exceeds every old one, so appending it keeps rows sorted."""
    degrees = [len(row) for row in g.adjacency]
    out = []
    for mask in range(1 << g.n):
        k = mask.bit_count()
        picked = [(mask >> v) & 1 for v in range(g.n)]
        if any(d + p > k for d, p in zip(degrees, picked)):
            continue
        rows = tuple(row + (g.n,) if p else row for row, p in zip(g.adjacency, picked))
        out.append(Graph(g.n + 1, rows + (tuple(v for v in range(g.n) if picked[v]),)))
    return out


@lru_cache(maxsize=None)
def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    if n < 1:
        raise GraphError(f"enumeration needs n >= 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise GraphError(
            f"enumeration capped at {MAX_ENUMERATION_N} vertices, got {n}"
        )
    if n == 1:
        return (from_edge_list(1, []),)
    # each candidate is refined once; a bucket keeps its representatives'
    # colors for the backtracking match against later candidates
    buckets: dict[tuple, list[tuple[Graph, list[int]]]] = {}
    for g in all_graphs(n - 1):
        for cand in _extensions(g):
            colors, key = _refine(cand)
            bucket = buckets.setdefault(key, [])
            if not any(_match(cand, colors, rep, rep_colors) for rep, rep_colors in bucket):
                bucket.append((cand, colors))
    reps = [g for bucket in buckets.values() for g, _ in bucket]
    # The representative of a class is its first candidate in (parent,
    # mask) order, and this sort fixes the parent order of level n + 1.
    # The degree rule of `_extensions` drops no first candidate: if an old
    # vertex u has larger degree than the new one in a candidate C built on
    # g, then C - u has fewer edges than g, so its representative g' sorts
    # before g, and the neighborhood of u carried over to g' builds a graph
    # isomorphic to C from g', which comes earlier.  So a dropped candidate
    # is never the first of its class, and each class keeps the
    # representative that extending by every mask would give.
    reps.sort(key=lambda g: (g.m, g.adjacency))
    return tuple(reps)


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    return tuple(g for g in all_graphs(n) if is_connected(g))


def connected_graphs_upto(max_n: int):
    """Yield (label, graph) for all connected graphs with 1 <= n <= max_n."""
    for n in range(1, max_n + 1):
        for i, g in enumerate(connected_graphs(n)):
            yield f"n{n}#{i}", g
