"""Benchmark workloads: the corpus each one scans and the benchmark's own
copy of every graph in it.

Each workload yields a `Corpus`: the `--source` argument for `curvlab
check`, the graph ids the report must name in corpus order, and for every
id a networkx graph labelled the way the program labels it.  The output
checks in `checks.py` run against these copies, never against curvlab's
own data structures.  The one exception is `exhaustive7`, whose ids index
curvlab's enumeration order: there the copies are taken from the program's
enumeration, which `checks.check_enumeration` matches one to one, up to
isomorphism, with `networkx.graph_atlas_g()`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import networkx as nx

WORKLOADS = ("exhaustive7", "regular-g6", "amply-cuts")

EXHAUSTIVE_N = 7

# regular-g6: for every degree d in 3..8 and every even order d < n <= 30,
# REGULAR_PER_CELL connected random d-regular graphs, plus the cubic graphs
# of girth >= 5 below (randomly relabelled), so that the literature value
# K = 2 - d is exercised.  The seed picks the graphs and the file order.
REGULAR_DEGREES = range(3, 9)
REGULAR_MAX_N = 30
REGULAR_PER_CELL = 3
GIRTH5_CUBIC = {
    "petersen": nx.petersen_graph,
    "heawood": nx.heawood_graph,
    "moebius_kantor": nx.moebius_kantor_graph,
    "pappus": nx.pappus_graph,
    "dodecahedral": nx.dodecahedral_graph,
    "desargues": nx.desargues_graph,
    "mcgee": lambda: nx.LCF_graph(24, [12, 7, -7], 8),
    "tutte_coxeter": lambda: nx.LCF_graph(30, [-13, -9, 7, -7, 9, 13], 5),
}
REGULAR_FILE = "regular.g6"

# amply-cuts: amply regular families with beta >= 2, so that T1.4 runs the
# star-cut classification on every graph.  The seed only shuffles the order.
AMPLY_SPECS = (
    "hamming2:3",
    "hamming2:4",
    "hamming2:5",
    "hamming2:6",
    "triangular:5",
    "triangular:6",
    "triangular:7",
    "triangular:8",
    "triangular:9",
    "paley:13",
    "paley:17",
    "paley:29",
    "hypercube:3",
    "hypercube:4",
    "hypercube:5",
    "hypercube:6",
    "hypercube:7",
    "product:hamming2:3+complete:3",
    "product:hamming2:4+complete:4",
    "product:cycle:4+hypercube:3",
    "product:complete:2+hypercube:4",
    "product:complete:5+complete:5",
)


@dataclass
class Corpus:
    """What one workload scans and what its report is checked against."""

    source: str
    ids: list[str]
    graphs: dict[str, nx.Graph]
    # literature curvature values, by graph id, where one is known
    expected_K: dict[str, float] = field(default_factory=dict)
    # exhaustive enumeration bound, 0 for the other workloads
    max_n: int = 0


def make_corpus(name: str, seed: int, workdir: Path) -> Corpus:
    """Build the inputs of one workload from the seed; files go to workdir."""
    if name == "exhaustive7":
        return exhaustive(EXHAUSTIVE_N)
    if name == "regular-g6":
        return regular(seed, workdir / REGULAR_FILE)
    if name == "amply-cuts":
        return amply(seed)
    raise ValueError(f"unknown workload {name!r}")


def exhaustive(max_n: int) -> Corpus:
    from curvlab.enumeration import connected_graphs_upto

    ids, graphs = [], {}
    for gid, g in connected_graphs_upto(max_n):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        ids.append(gid)
        graphs[gid] = h
    corpus = Corpus(f"exhaustive:{max_n}", ids, graphs, max_n=max_n)
    corpus.expected_K = {gid: k for gid in ids if (k := literature_K(graphs[gid])) is not None}
    return corpus


def regular_graphs(seed: int, per_cell: int = REGULAR_PER_CELL, max_n: int = REGULAR_MAX_N):
    """The regular-g6 graphs, in file order."""
    rng = random.Random(seed)
    graphs = []
    for d in REGULAR_DEGREES:
        for n in range(d + 1 + (d + 1) % 2, max_n + 1, 2):
            for _ in range(per_cell):
                while True:
                    g = nx.random_regular_graph(d, n, seed=rng.randrange(2**32))
                    if nx.is_connected(g):
                        break
                graphs.append(g)
    for build in GIRTH5_CUBIC.values():
        g = build()
        perm = list(range(g.number_of_nodes()))
        rng.shuffle(perm)
        graphs.append(nx.relabel_nodes(g, dict(zip(sorted(g), perm))))
    rng.shuffle(graphs)
    return graphs


def regular(
    seed: int, path: Path, per_cell: int = REGULAR_PER_CELL, max_n: int = REGULAR_MAX_N
) -> Corpus:
    lines = [
        nx.to_graph6_bytes(g, nodes=range(len(g)), header=False).decode().strip()
        for g in regular_graphs(seed, per_cell, max_n)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    ids, graphs = [], {}
    for lineno, line in enumerate(lines, start=1):
        gid = f"{path.name}:{lineno}"
        ids.append(gid)
        # re-read from the file text: the copy is exactly what the program parses
        graphs[gid] = nx.from_graph6_bytes(line.encode())
    corpus = Corpus(str(path), ids, graphs)
    corpus.expected_K = {gid: k for gid in ids if (k := literature_K(graphs[gid])) is not None}
    return corpus


def amply(seed: int, specs=AMPLY_SPECS) -> Corpus:
    order = list(specs)
    random.Random(seed).shuffle(order)
    graphs = {spec: family(spec) for spec in order}
    corpus = Corpus("gen:" + ";".join(order), order, graphs)
    for spec in order:
        k = family_K(spec)
        if k is None:
            k = literature_K(graphs[spec])
        if k is not None:
            corpus.expected_K[spec] = k
    return corpus


# --- independent graph constructions, labelled as curvlab documents its families


def family(spec: str) -> nx.Graph:
    """The graph of a generator spec, built here from its definition."""
    if spec.startswith("product:"):
        left, right = spec[len("product:") :].split("+", 1)
        return box_product(family(left), family(right))
    kind, _, arg = spec.partition(":")
    k = int(arg)
    if kind == "complete":
        return nx.complete_graph(k)
    if kind == "cycle":
        return nx.cycle_graph(k)
    if kind == "hypercube":
        # vertices are bitmasks, adjacent at Hamming distance one
        g = nx.Graph()
        g.add_nodes_from(range(1 << k))
        g.add_edges_from((v, v ^ (1 << b)) for v in range(1 << k) for b in range(k))
        return g
    if kind == "hamming2":
        # K_q x K_q with (i, j) at index i*q + j
        return box_product(nx.complete_graph(k), nx.complete_graph(k))
    if kind == "triangular":
        # 2-subsets of [k] in lexicographic order, adjacent when they meet
        pairs = list(combinations(range(k), 2))
        g = nx.Graph()
        g.add_nodes_from(range(len(pairs)))
        g.add_edges_from(
            (i, j) for (i, p), (j, q) in combinations(enumerate(pairs), 2) if set(p) & set(q)
        )
        return g
    if kind == "paley":
        squares = {(x * x) % k for x in range(1, k)}
        g = nx.Graph()
        g.add_nodes_from(range(k))
        g.add_edges_from((i, j) for i, j in combinations(range(k), 2) if (j - i) % k in squares)
        return g
    raise ValueError(f"no construction for spec {spec!r}")


def box_product(a: nx.Graph, b: nx.Graph) -> nx.Graph:
    """Cartesian product with (u, v) at index u * |b| + v."""
    nb = b.number_of_nodes()
    g = nx.Graph()
    g.add_nodes_from(range(a.number_of_nodes() * nb))
    for u in a:
        for v in b:
            g.add_edges_from((u * nb + v, u * nb + w) for w in b[v])
            g.add_edges_from((u * nb + v, w * nb + v) for w in a[u])
    return g


# --- curvature values from the literature (Bakry-Emery, N = infinity)


def complete_K(n: int) -> float:
    """K(K_n) = 1 + n/2."""
    return 1.0 + n / 2.0


def literature_K(g: nx.Graph) -> float | None:
    """K where the graph's shape alone fixes it: complete graphs, 1 + n/2;
    the 4-cycle Q_2, 2; the prism K_2 x K_3, min(K(K_2), K(K_3)) = 2;
    d-regular graphs of girth >= 5, 2 - d.  Larger hypercubes and products
    are recognised by their spec in `family_K`."""
    n = g.number_of_nodes()
    if n < 2:
        return None
    if g.number_of_edges() == n * (n - 1) // 2:
        return complete_K(n)
    degrees = {deg for _, deg in g.degree()}
    if len(degrees) != 1:
        return None
    (d,) = degrees
    if n == 4 and d == 2:
        return 2.0
    if n == 6 and d == 3:
        prism = box_product(nx.complete_graph(2), nx.complete_graph(3))
        if nx.is_isomorphic(g, prism):
            return min(complete_K(2), complete_K(3))
    if nx.girth(g) >= 5:
        return 2.0 - d
    return None


def family_K(spec: str) -> float | None:
    """K of a generator spec from K(K_n) = 1 + n/2, K(Q_d) = 2, the cycle
    values and K(G x H) = min(K(G), K(H)); None where none of these apply."""
    if spec.startswith("product:"):
        left, right = spec[len("product:") :].split("+", 1)
        a, b = family_K(left), family_K(right)
        return None if a is None or b is None else min(a, b)
    kind, _, arg = spec.partition(":")
    k = int(arg)
    if kind == "complete" and k >= 2:
        return complete_K(k)
    if kind == "hypercube":
        return 2.0
    if kind == "hamming2":
        return complete_K(k)  # K_q x K_q
    if kind == "cycle":
        return {3: complete_K(3), 4: 2.0}.get(k, 0.0)
    return None
