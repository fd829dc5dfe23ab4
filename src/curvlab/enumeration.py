"""Exhaustive small-graph enumeration up to isomorphism.

Graphs are generated level by level, and a level is kept as one tuple of
adjacency bitmask rows per graph: bit u of row v is set when uv is an
edge.  A `Graph` is built only when `all_graphs` or `connected_graphs`
returns one.

Every graph on k+1 vertices arises from some graph on k vertices by
appending a vertex of maximum degree (delete any vertex of maximum degree
to see it).  So extending every k-vertex representative g by each
neighbourhood mask M whose new vertex has maximum degree, and
deduplicating, yields all isomorphism classes; the other masks are never
listed.  Of those masks only the least of each orbit under Aut(g) is
kept.  Deduplication buckets candidates by a colour-refinement invariant
and settles ties with a backtracking isomorphism test, which also
separates refinement-equivalent pairs such as C3+C3 versus C6.

The representative of a class is the first of its candidates in (parent,
mask) order, with the parents in the order of their level; extending by
all 2^k masks would give the same one, because neither rule drops a first
candidate:
- Degree rule.  If an old vertex u has larger degree than the new one in
  a candidate C built on g, then C - u has fewer edges than g, so its
  representative g' sorts before g (a level is sorted by edge count
  first), and the neighbourhood of u carried over to g' builds a graph
  isomorphic to C from g', which comes earlier.
- Orbit rule.  If an automorphism s of g maps M to a smaller mask s(M),
  then s(M) passes the degree rule too (s keeps every degree and |M|),
  and s extended by the new vertex is an isomorphism g+M -> g+s(M), so
  the same parent builds an isomorphic candidate earlier.
So a dropped candidate is never the first of its class.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations

from .graph import Graph, GraphError

# counts of graphs on n=1.. vertices, used as self-checks in the tests:
# all graphs      1, 2, 4, 11, 34, 156, 1044, 12346
# connected       1, 1, 2, 6, 21, 112, 853, 11117
MAX_ENUMERATION_N = 9


@lru_cache(maxsize=None)
def _members(n: int) -> list[tuple[int, ...]]:
    """The vertices of each mask below 2^n, as sorted tuples; the graphs
    built from one table share their equal neighbour tuples."""
    return [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]


def _rows(g: Graph) -> tuple[int, ...]:
    """The adjacency bitmask rows of g."""
    return tuple(sum(1 << u for u in nbrs) for nbrs in g.adjacency)


def _refine(rows: tuple[int, ...]) -> tuple[list[int], int]:
    """Stable colour-refinement colours of a graph and the invariant built
    from them.

    Vertices start with the rank of their degree as colour; each round
    recolours v by its signature (colour, |N(v) & C_1|, ..., |N(v) & C_k|)
    over the colour classes C_i, with colour ids re-indexed by sorted
    signature.  A round that splits no class ends the refinement.  A
    signature is packed into one int, a field of n.bit_length() bits per
    entry, and the invariant packs k and the sorted stable signatures, so
    it is equal for isomorphic graphs; ints rather than tuples leave no
    short-lived tuples behind in the interpreter's free lists.
    """
    width = len(rows).bit_length()
    degrees = [row.bit_count() for row in rows]
    rank = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colours = [rank[d] for d in degrees]
    k = len(rank)
    while True:
        cells = [0] * k
        for v, c in enumerate(colours):
            cells[c] |= 1 << v
        sigs = []
        for c, row in zip(colours, rows):
            sig = c
            for cell in cells:
                sig = sig << width | (row & cell).bit_count()
            sigs.append(sig)
        palette = sorted(set(sigs))
        if len(palette) == k:
            key = k
            for sig in sorted(sigs):
                key = key << (k + 1) * width | sig
            return colours, key
        k = len(palette)
        rank = {sig: i for i, sig in enumerate(palette)}
        colours = [rank[sig] for sig in sigs]


def _plan(rows: tuple[int, ...], colours: list[int]) -> tuple[list[int], list[list[int]]]:
    """The order a search maps vertices in (rare colours and high degrees
    first) and, for each step, the vertices mapped before it that are its
    neighbours."""
    size = Counter(colours)
    order = sorted(range(len(rows)), key=lambda v: (size[colours[v]], -rows[v].bit_count(), v))
    back = [[u for u in order[:i] if rows[v] >> u & 1] for i, v in enumerate(order)]
    return order, back


def _cells(colours: list[int]) -> dict[int, list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colours):
        cells.setdefault(c, []).append(v)
    return cells


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism by backtracking over colour-compatible assignments.

    Sized for the enumeration's small graphs: a refinement round packs a
    signature of k + 1 fields per vertex, so it costs about n * k^2 * log n
    bit operations with k colour classes."""
    if g.n != h.n or g.m != h.m:
        return False
    g_rows, h_rows = _rows(g), _rows(h)
    cg, key_g = _refine(g_rows)
    ch, key_h = _refine(h_rows)
    return key_g == key_h and _match(g_rows, cg, h_rows, ch)


def _match(g: tuple[int, ...], cg: list[int], h: tuple[int, ...], ch: list[int]) -> bool:
    """Search for an isomorphism g -> h mapping each vertex to one of the
    same stable colour; the graphs must share their refinement invariant."""
    order, back = _plan(g, cg)
    cells = _cells(ch)
    targets = [cells.get(cg[v], ()) for v in order]
    return _extend(0, order, back, targets, h, [0] * len(g), 0)


def _extend(
    i: int, order: list[int], back: list[list[int]], targets: list, h: tuple[int, ...],
    image: list[int], used: int,
) -> bool:
    """Extend the partial isomorphism `image` of order[:i], whose image is
    the mask `used`, to all vertices, leaving it in `image` on success.
    w can take v when N(w) & used is exactly the image of v's mapped
    neighbours, so edges and non-edges to the mapped part both agree.  A
    module-level recursion, so a search leaves no reference cycle behind."""
    if i == len(order):
        return True
    v = order[i]
    want = 0
    for u in back[i]:
        want |= 1 << image[u]
    for w in targets[i]:
        bit = 1 << w
        if used & bit or h[w] & used != want:
            continue
        image[v] = w
        if _extend(i + 1, order, back, targets, h, image, used | bit):
            return True
    return False


def _automorphisms(rows: tuple[int, ...]) -> list[list[int]]:
    """Generators of the automorphism group of a graph, as vertex images;
    none when the stable colouring is discrete.

    Walking the search order from its end, step i looks for one
    automorphism that fixes order[:i] and maps v = order[i] to w, for each
    w of v's colour not yet in v's orbit under the generators found so
    far.  These are coset representatives of each point stabiliser in the
    one above it, so together they generate the whole group."""
    colours, _ = _refine(rows)
    order, back = _plan(rows, colours)
    cells = _cells(colours)
    targets = [cells[colours[v]] for v in order]
    gens: list[list[int]] = []
    fixed = (1 << len(rows)) - 1
    for i in range(len(order) - 1, -1, -1):
        v = order[i]
        fixed ^= 1 << v  # the vertices order[:i]
        orbit = {v}
        for w in targets[i]:
            if w in orbit or fixed >> w & 1 or rows[w] & fixed != rows[v] & fixed:
                continue
            image = list(range(len(rows)))
            image[v] = w
            if _extend(i + 1, order, back, targets, rows, image, fixed | 1 << w):
                gens.append(image)
                orbit = _orbit(v, gens)
    return gens


def _orbit(v: int, gens: list[list[int]]) -> set[int]:
    orbit = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for p in gens:
            if p[u] not in orbit:
                orbit.add(p[u])
                stack.append(p[u])
    return orbit


def _masks(rows: tuple[int, ...]) -> list[int]:
    """The neighbourhood masks of a new vertex whose degree is maximum in
    the result, ascending: for each size s at least the maximum degree,
    the s-subsets of the vertices of degree below s."""
    degrees = [row.bit_count() for row in rows]
    masks = []
    for s in range(max(degrees), len(rows) + 1):
        free = [1 << v for v, d in enumerate(degrees) if d < s]
        masks.extend(map(sum, combinations(free, s)))
    masks.sort()
    return masks


def _pruned_masks(rows: tuple[int, ...]) -> list[int]:
    """The masks of `_masks` that are least in their orbit under the
    automorphisms of the graph.  The listed masks are closed under them,
    so walking them in ascending order, a mask not yet reached from a
    smaller one starts a new orbit."""
    masks = _masks(rows)
    gens = _automorphisms(rows)
    if not gens:
        return masks
    bits = [[1 << p[v] for v in range(len(rows))] for p in gens]
    members = _members(len(rows))
    kept = []
    seen: set[int] = set()
    for mask in masks:
        if mask in seen:
            continue
        kept.append(mask)
        seen.add(mask)
        stack = [mask]
        while stack:
            x = stack.pop()
            for image in bits:
                y = sum(image[v] for v in members[x])
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return kept


def _child(parent: tuple[int, ...], mask: int) -> tuple[int, ...]:
    """The rows of `parent` plus a last vertex with neighbourhood `mask`;
    the rows it leaves alone are the parent's own ints."""
    new = 1 << len(parent)
    return (*[row | new if mask >> v & 1 else row for v, row in enumerate(parent)], mask)


def _graph(rows: tuple[int, ...]) -> Graph:
    members = _members(len(rows))
    return Graph(len(rows), tuple(members[r] for r in rows))


def _extensions(g: Graph) -> list[Graph]:
    """The candidates built on g before orbit pruning, in mask order, as
    graphs; the tests hold them against extending g by every mask."""
    rows = _rows(g)
    return [_graph(_child(rows, mask)) for mask in _masks(rows)]


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[tuple[int, ...], ...]:
    """The bitmask rows of one graph per isomorphism class on n vertices,
    sorted by (edge count, adjacency tuples)."""
    if n < 1:
        raise GraphError(f"enumeration needs n >= 1, got {n}")
    if n > MAX_ENUMERATION_N:
        raise GraphError(
            f"enumeration capped at {MAX_ENUMERATION_N} vertices, got {n}"
        )
    if n == 1:
        return ((0,),)
    # each candidate is refined once; a bucket keeps its representatives'
    # colours for the backtracking match against later candidates
    buckets: dict[int, list[tuple[tuple[int, ...], list[int]]]] = {}
    for parent in _level(n - 1):
        for mask in _pruned_masks(parent):
            rows = _child(parent, mask)
            colours, key = _refine(rows)
            bucket = buckets.setdefault(key, [])
            if not any(_match(rows, colours, rep, rep_colours) for rep, rep_colours in bucket):
                bucket.append((rows, colours))
    members = _members(n)
    reps = [rows for bucket in buckets.values() for rows, _ in bucket]
    # the order of Graph.adjacency tuples, which fixes the parent order of
    # level n + 1
    reps.sort(key=lambda rows: (sum(map(int.bit_count, rows)), [members[r] for r in rows]))
    return tuple(reps)


def _connected(rows: tuple[int, ...]) -> bool:
    """Whether a breadth-first search from vertex 0 reaches every vertex."""
    seen = frontier = 1
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= rows[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & ~seen
        seen |= reach
    return seen == (1 << len(rows)) - 1


def all_graphs(n: int) -> tuple[Graph, ...]:
    """All graphs on exactly n vertices, one per isomorphism class."""
    return tuple(map(_graph, _level(n)))


def connected_graphs(n: int) -> tuple[Graph, ...]:
    """All connected graphs on exactly n vertices, one per isomorphism class."""
    return tuple(map(_graph, filter(_connected, _level(n))))


def connected_graphs_upto(max_n: int):
    """Yield (label, graph) for all connected graphs with 1 <= n <= max_n.

    Every level is built before the first graph is yielded, so processes
    forked after that (`workers.for_each`) share the levels rather than
    building them again.
    """
    orders = range(1, max_n + 1)
    if orders:
        _level(orders[-1])
    for n in orders:
        for i, g in enumerate(connected_graphs(n)):
            yield f"n{n}#{i}", g
