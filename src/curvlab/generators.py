"""Named graph families, finite and infinite, plus the string-spec parser.

Finite specs yield :class:`Graph` with documented vertex labelings; the two
infinite families (the integer line and its Cartesian product with a
complete graph) yield :class:`NeighborOracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .formats import parse_integer
from .graph import MAX_EDGES, MAX_ORDER, Graph, GraphError, NeighborOracle, from_edge_list


@dataclass(frozen=True)
class FamilySpec:
    """Tagged union of graph family names with parameters.

    `kind` is a key of `_FAMILIES` or "cartesian_product"; `args` holds
    integer parameters, or the two factor FamilySpecs of a product.
    """

    kind: str
    args: tuple = ()


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    d = 2
    while d * d <= q:
        if q % d == 0:
            return False
        d += 1
    return True


def path_graph(n: int) -> Graph:
    _require(n >= 1, f"path needs n >= 1, got {n}")
    return from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    _require(n >= 3, f"cycle needs n >= 3, got {n}")
    return from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    _require(n >= 1, f"complete needs n >= 1, got {n}")
    return from_edge_list(n, combinations(range(n), 2))


def complete_bipartite(m: int, n: int) -> Graph:
    _require(m >= 1 and n >= 1, f"complete_bipartite needs m,n >= 1, got {m},{n}")
    return from_edge_list(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def hypercube(d: int) -> Graph:
    """d-cube; vertices are bitmasks 0..2^d-1, edges at Hamming distance 1."""
    _require(d >= 1, f"hypercube needs d >= 1, got {d}")
    edges = [(v, v ^ (1 << b)) for v in range(1 << d) for b in range(d) if v < v ^ (1 << b)]
    return from_edge_list(1 << d, edges)


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5..9, spokes i -- i+5."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, i + 5) for i in range(5)]
    return from_edge_list(10, edges)


def triangular(n: int) -> Graph:
    """Line graph of K_n: vertices are the 2-subsets of [n] in lexicographic
    order, adjacent when they share an element."""
    _require(n >= 3, f"triangular needs n >= 3, got {n}")
    pairs = list(combinations(range(n), 2))
    index = {p: i for i, p in enumerate(pairs)}
    edges = [
        (index[p], index[q])
        for p, q in combinations(pairs, 2)
        if set(p) & set(q)
    ]
    return from_edge_list(len(pairs), edges)


def hamming2(q: int) -> Graph:
    """Rook's graph K_q x K_q; vertex (i,j) has index i*q + j."""
    _require(q >= 2, f"hamming2 needs q >= 2, got {q}")
    return cartesian_product(complete_graph(q), complete_graph(q))


def paley(q: int) -> Graph:
    """Paley graph on a prime q = 1 mod 4; i ~ j iff i-j is a nonzero square."""
    if not (_is_prime(q) and q % 4 == 1):
        raise GraphError(f"paley requires a prime q = 1 mod 4, got {q}")
    squares = {(x * x) % q for x in range(1, q)}
    edges = [(i, j) for i in range(q) for j in range(i + 1, q) if (j - i) % q in squares]
    return from_edge_list(q, edges)


def _box(a, b):
    """The neighbour rule of the box product of two graphs with `.neighbors`:
    (u, v) is adjacent to (w, v) for w ~ u, then to (u, w) for w ~ v."""

    def nbrs(x):
        u, v = x
        return [(w, v) for w in a.neighbors(u)] + [(u, w) for w in b.neighbors(v)]

    return nbrs


def cartesian_product(a: Graph, b: Graph) -> Graph:
    """Box product; vertex (u, v) has index u * b.n + v."""
    nbrs, k = _box(a, b), b.n
    # each edge arrives from both ends; keep it from the smaller one
    edges = [
        (u * k + v, s * k + t)
        for u in range(a.n) for v in range(k) for s, t in nbrs((u, v)) if (u, v) < (s, t)
    ]
    return from_edge_list(a.n * k, edges)


def beta1_counterexample() -> Graph:
    """Two Petersen copies, edge (0,1) deleted in each, spliced by two edges.

    Cubic on 20 vertices with girth 5, hence amply regular (3, 0, 1), and
    the two splice edges form a 2-edge cut.
    """
    p = petersen()
    edges = []
    for u, v in p.edges():
        if (u, v) == (0, 1):
            continue
        edges.append((u, v))
        edges.append((u + 10, v + 10))
    edges += [(0, 10), (1, 11)]
    return from_edge_list(20, edges)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def integer_line() -> NeighborOracle:
    """The two-sided infinite path on the integers; a query at anything but
    an int raises GraphError."""

    def nbrs(v):
        _require(_is_int(v), f"{v!r} is not a vertex of the integer line: expected an int")
        return (v - 1, v + 1)

    return NeighborOracle(nbrs)


def line_times_complete(k: int) -> NeighborOracle:
    """Cartesian product of the integer line with K_k; vertices (i, c) with
    ints i and 0 <= c < k, and a query at anything else raises GraphError."""
    _require(k >= 1, f"line_times_complete needs k >= 1, got {k}")
    box = _box(integer_line(), complete_graph(k))

    def nbrs(x):
        _require(
            isinstance(x, tuple) and len(x) == 2 and all(map(_is_int, x)) and 0 <= x[1] < k,
            f"{x!r} is not a vertex of zxk:{k}: expected a pair (i, c) of ints with 0 <= c < {k}",
        )
        return box(x)

    return NeighborOracle(nbrs)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise GraphError(msg)


# kind -> (constructor, number of integer parameters, size): size maps the
# parameters to the vertex and edge counts of the finite graph that the
# constructor builds, which for zxk:k is its K_k factor; "cartesian_product",
# whose parameters are two factor specs, is the one kind handled apart
_FAMILIES = {
    "path": (path_graph, 1, lambda n: (n, n - 1)),
    "cycle": (cycle_graph, 1, lambda n: (n, n)),
    "complete": (complete_graph, 1, lambda n: (n, n * (n - 1) // 2)),
    "complete_bipartite": (complete_bipartite, 2, lambda m, n: (m + n, m * n)),
    # capped at 2^64, far above MAX_ORDER, so that a huge d builds no huge int
    "hypercube": (hypercube, 1, lambda d: (2 ** min(d, 64), d * 2 ** (min(d, 64) - 1))),
    "petersen": (petersen, 0, lambda: (10, 15)),
    "triangular": (triangular, 1, lambda n: (n * (n - 1) // 2, n * (n - 1) * (n - 2) // 2)),
    "hamming2": (hamming2, 1, lambda q: (q * q, q * q * (q - 1))),
    "paley": (paley, 1, lambda q: (q, q * (q - 1) // 4)),
    "beta1_counterexample": (beta1_counterexample, 0, lambda: (20, 30)),
    "integer_line": (integer_line, 0, lambda: (0, 0)),
    "line_times_complete": (line_times_complete, 1, lambda k: (k, k * (k - 1) // 2)),
}


def _size(spec: FamilySpec) -> tuple[int, int]:
    """The vertex and edge counts of what `generate` builds for a spec, read
    off its parameters; a product's come from its factors' specs."""
    if spec.kind == "cartesian_product":
        if len(spec.args) != 2 or not all(isinstance(s, FamilySpec) for s in spec.args):
            raise GraphError("cartesian_product takes two factor FamilySpecs")
        (n1, m1), (n2, m2) = map(_size, spec.args)
        return n1 * n2, m1 * n2 + m2 * n1
    if spec.kind not in _FAMILIES:
        raise GraphError(f"unknown family kind {spec.kind!r}")
    _check_arity(spec.kind, len(spec.args))
    return _FAMILIES[spec.kind][2](*spec.args)


def _spelling(spec: FamilySpec) -> str:
    """The spec as `parse_family_spec` reads it, with canonical family names."""
    if spec.kind == "cartesian_product":
        return "product:" + "+".join(map(_spelling, spec.args))
    return f"{spec.kind}:{','.join(map(str, spec.args))}" if spec.args else spec.kind


def generate(spec: FamilySpec | str):
    """Materialize a family spec: Graph for finite, NeighborOracle for infinite.

    A spec that would build more than MAX_ORDER vertices or MAX_EDGES edges
    is refused before anything is built.
    """
    if isinstance(spec, str):
        spec = parse_family_spec(spec)
    n, m = _size(spec)
    if n > MAX_ORDER:
        raise GraphError(
            f"{_spelling(spec)} builds more vertices than the maximum order MAX_ORDER = {MAX_ORDER}"
        )
    if m > MAX_EDGES:
        raise GraphError(
            f"{_spelling(spec)} builds more edges than the maximum size MAX_EDGES = {MAX_EDGES}"
        )
    if spec.kind == "cartesian_product":
        parts = [generate(s) for s in spec.args]
        if not all(isinstance(p, Graph) for p in parts):
            raise GraphError("cartesian_product supports finite factors only")
        return cartesian_product(*parts)
    return _FAMILIES[spec.kind][0](*spec.args)


def _check_arity(kind: str, got: int) -> None:
    expected = _FAMILIES[kind][1]
    if got != expected:
        raise GraphError(f"family {kind!r} takes {expected} parameter(s), got {got}")


_ALIASES = {
    "zxk": "line_times_complete",
    "line": "integer_line",
    "beta1": "beta1_counterexample",
    "kbip": "complete_bipartite",
}


def parse_family_spec(text: str) -> FamilySpec:
    """Parse CLI strings like "hypercube:4", "paley:13", "zxk:3".

    Products use a '+' between two non-nested factor specs:
    "product:cycle:5+complete:2".
    """
    text = text.strip()
    if text.startswith("product:"):
        body = text[len("product:") :]
        if "+" not in body:
            raise GraphError(f"product spec needs two '+'-separated factors: {text!r}")
        left, right = body.split("+", 1)
        return FamilySpec(
            "cartesian_product", (parse_family_spec(left), parse_family_spec(right))
        )
    name, _, argtext = text.partition(":")
    name = _ALIASES.get(name, name)
    if name not in _FAMILIES:
        raise GraphError(f"unknown graph family {name!r}")
    if not argtext:
        args: tuple = ()
    else:
        try:
            args = tuple(map(parse_integer, argtext.split(",")))
        except ValueError as exc:
            raise GraphError(f"bad parameters in spec {text!r}") from exc
    _check_arity(name, len(args))
    if any(a <= 0 for a in args):
        raise GraphError(f"parameters must be positive in {text!r}")
    return FamilySpec(name, args)
