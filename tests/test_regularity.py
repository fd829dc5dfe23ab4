import math
import random
from collections import deque
from itertools import chain, combinations

import numpy as np
import pytest

from curvlab.curvature import bakry_emery_curvature, graph_curvature
from curvlab.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    generate,
    hamming2,
    hypercube,
    paley,
    path_graph,
    petersen,
    triangular,
)
from curvlab.graph import Graph, GraphError, ball, from_edge_list
from curvlab.regularity import (
    arg_curvature_formula,
    bcn_check,
    contains_induced_diamond,
    corollary2_gap,
    detect_regularity,
    diamond_bruteforce,
    lemma1_gap,
    local_graph_spectrum,
)
from conftest import random_graph


def test_detect_examples():
    reg = detect_regularity(cycle_graph(4))
    assert (reg.kind, reg.d, reg.alpha, reg.beta) == ("amply_regular", 2, 0, 2)
    reg = detect_regularity(petersen())
    assert (reg.kind, reg.d, reg.alpha, reg.beta) == ("amply_regular", 3, 0, 1)
    reg = detect_regularity(complete_graph(5))
    assert reg.kind == "edge_regular" and (reg.n, reg.d, reg.alpha) == (5, 4, 3)
    assert "complete" in reg.diagnostic


def test_detect_known_families():
    assert detect_regularity(hamming2(3)).beta == 2
    assert detect_regularity(triangular(5)).alpha == 3
    assert detect_regularity(paley(13)).beta == 3
    assert detect_regularity(hypercube(4)).beta == 2
    assert detect_regularity(complete_bipartite(3, 3)).beta == 3


def test_detect_irregular_and_diagnostics():
    reg = detect_regularity(path_graph(3))
    assert reg.kind == "not_regular" and reg.diagnostic
    # union of two triangles: 2-regular, alpha = 1, no distance-2 pairs
    two_k3 = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    reg = detect_regularity(two_k3)
    assert reg.kind == "edge_regular" and "beta unwitnessed" in reg.diagnostic
    # C6: regular, alpha = 0, but distance-2 common neighbor counts are 1
    assert detect_regularity(cycle_graph(6)).beta == 1
    # K4 minus an edge: degrees 3, 2, 3, 2
    k4_minus = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    reg = detect_regularity(k4_minus)
    assert reg.kind == "not_regular"
    # regular but alpha varies: the prism's triangle edges have one common
    # neighbour, its rungs none
    reg = detect_regularity(generate("product:cycle:3+complete:2"))
    assert (reg.kind, reg.n, reg.d) == ("regular", 6, 3)
    assert reg.diagnostic == "edge (0-based) (0,2) has 1 common neighbors, first edge has 0"
    # the empty graph is regular of degree 0
    reg = detect_regularity(from_edge_list(0, []))
    assert (reg.kind, reg.n, reg.d) == ("regular", 0, 0)


def distance_matrix(g: Graph) -> list[list[float]]:
    """All-pairs BFS distances; math.inf where unreachable."""
    dist = [[math.inf] * g.n for _ in range(g.n)]
    for s in range(g.n):
        row = dist[s]
        row[s] = 0
        q = deque([s])
        while q:
            u = q.popleft()
            for v in g.adjacency[u]:
                if row[v] is math.inf or row[v] > row[u] + 1:
                    row[v] = row[u] + 1
                    q.append(v)
    return dist


def test_distance_matrix_examples():
    assert distance_matrix(petersen())[0][7] == 2
    dist = distance_matrix(from_edge_list(4, [(0, 1), (2, 3)]))
    assert dist[0][1] == 1 and dist[0][2] == math.inf


def test_parameters_reverify_by_distance_matrix(corpus):
    # recount alpha and beta from scratch with the distance matrix
    for name, g in sorted(corpus.items()):
        reg = detect_regularity(g)
        if not reg.is_edge_regular:
            continue
        dist = distance_matrix(g)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                common = len(set(g.adjacency[u]) & set(g.adjacency[v]))
                if dist[u][v] == 1:
                    assert common == reg.alpha, name
                elif dist[u][v] == 2 and reg.is_amply_regular:
                    assert common == reg.beta, name


def test_local_spectrum_examples():
    assert local_graph_spectrum(cycle_graph(4))[0] == pytest.approx([0.0, 0.0])
    assert local_graph_spectrum(complete_graph(4))[1] == pytest.approx([-1.0, -1.0, 2.0])
    assert local_graph_spectrum(petersen())[5] == pytest.approx([0.0, 0.0, 0.0])
    assert local_graph_spectrum(from_edge_list(0, [])) == []
    with pytest.raises(GraphError):
        local_graph_spectrum(from_edge_list(2, []))
    with pytest.raises(GraphError):
        local_graph_spectrum(from_edge_list(3, [(0, 1), (1, 2)]))


def test_stacked_local_spectra_equal_one_solve_per_vertex(amply):
    # the stacked solve must give each vertex's spectrum bit for bit as its
    # own eigvalsh call on the local adjacency matrix built from sets
    for name, g in sorted(amply.items()):
        spectra = local_graph_spectrum(g)
        assert len(spectra) == g.n, name
        for x, spectrum in enumerate(spectra):
            nbrs = g.adjacency[x]
            rows = [set(g.adjacency[u]) for u in nbrs]
            a = np.array([[float(v in row) for v in nbrs] for row in rows])
            alone = np.linalg.eigvalsh(a)
            assert np.array(spectrum).tobytes() == alone.tobytes(), (name, x)


def test_formula_examples():
    assert arg_curvature_formula(2, 0, 2, [0.0]) == pytest.approx(2.0)
    assert arg_curvature_formula(3, 0, 3, [0.0, 0.0, 0.0]) == pytest.approx(2.0)
    assert arg_curvature_formula(3, 0, 1, [0.0, 0.0, 0.0]) == pytest.approx(-1.0)
    with pytest.raises(GraphError):
        arg_curvature_formula(3, 0, 0, [0.0])
    with pytest.raises(GraphError):
        arg_curvature_formula(3, 0, 2, [])


def test_formula_matches_eigensolver_everywhere(amply):
    for name, g in sorted(amply.items()):
        reg = detect_regularity(g)
        assert reg.is_amply_regular, name
        for x, spectrum in enumerate(local_graph_spectrum(g)):
            formula = arg_curvature_formula(reg.d, reg.alpha, reg.beta, spectrum)
            assert abs(formula - bakry_emery_curvature(g, x).K) <= 1e-8, (name, x)


def test_contains_diamond_examples():
    assert contains_induced_diamond(complete_graph(4)) is None
    assert contains_induced_diamond(cycle_graph(5)) is None
    assert contains_induced_diamond(cycle_graph(4)) is None
    k4_minus_edge = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    assert contains_induced_diamond(k4_minus_edge) == (0, 1, 2, 3)


def test_diamond_witness_is_a_diamond():
    rng = random.Random(61)
    hits = 0
    while hits < 40:
        g = random_graph(rng, rng.randint(4, 10), 0.5)
        witness = contains_induced_diamond(g)
        if witness is None:
            continue
        hits += 1
        c, d, a, b = witness
        assert g.has_edge(c, d) and not g.has_edge(a, b)
        for w in (a, b):
            assert g.has_edge(c, w) and g.has_edge(d, w)


def test_diamond_vs_bruteforce():
    rng = random.Random(62)
    for _ in range(300):
        g = random_graph(rng, rng.randint(4, 12), rng.choice([0.25, 0.45, 0.65]))
        assert (contains_induced_diamond(g) is not None) == diamond_bruteforce(g)


def test_diamond_bruteforce_cap():
    with pytest.raises(GraphError, match="diamond scan capped at 12 vertices, got 13"):
        diamond_bruteforce(cycle_graph(13))


def test_bcn_examples():
    applicable, _, _ = bcn_check(cycle_graph(4))
    assert not applicable  # d=2 not below alpha(alpha+3)/2 = 0
    applicable, _, _ = bcn_check(hamming2(3))
    assert not applicable  # 4 < 2 is false
    applicable, holds, evidence = bcn_check(petersen())
    assert not applicable and holds is None  # beta = 1
    assert evidence == {"reason": "not amply regular with beta=2 (amply_regular)", "witness": None}


def test_bcn_inapplicable_cases():
    # hypercubes have beta = 2 but alpha = 0, so d < 0 fails
    applicable, holds, evidence = bcn_check(hypercube(3))
    assert not applicable and holds is None
    assert evidence == {"reason": "d=3 not below alpha(alpha+3)/2=0.0", "witness": None}
    # the octahedron T(4) = K_{2,2,2} has beta = 4
    applicable, _, _ = bcn_check(triangular(4))
    assert not applicable


def test_bcn_applicable_on_large_rook_graph():
    # K5 x K5 is amply regular (8, 3, 2) with 8 < 3*6/2 = 9: applicable.
    # Its row cliques contain K4-minus-an-edge as a subgraph, but every
    # neighborhood induces two disjoint cliques, so the induced check holds.
    g = hamming2(5)
    verdict = bcn_check(g)
    assert verdict == (True, True, {"reason": "induced-diamond-free", "witness": None})
    # row 0 spans the clique {0, ..., 4}, so K4 and its diamonds sit in g
    assert all(g.has_edge(u, v) for u, v in combinations(range(5), 2))


def test_induced_diamond_semantics():
    assert contains_induced_diamond(complete_graph(4)) is None
    diamond = from_edge_list(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    witness = contains_induced_diamond(diamond)
    assert witness is not None
    c, d, a, b = witness
    assert diamond.has_edge(c, d) and not diamond.has_edge(a, b)


def test_lemma1_gap_c4_hand_value():
    g = cycle_graph(4)
    _, bmap = ball(g, 0)
    X = frozenset(bmap.sphere_vertices(1))
    assert lemma1_gap(g, bmap, X, 1.0, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_lemma1_gap_rejects_bad_partition():
    g = cycle_graph(4)
    _, bmap = ball(g, 0)
    with pytest.raises(GraphError):
        lemma1_gap(g, bmap, frozenset({2}), 0.0, 0.0)


def test_partition_gaps_reject_isolated_center():
    # an isolated centre has K = inf and empty spheres, where the gaps'
    # (2K + ...) * 0 terms would read NaN; both gaps reject it instead
    g = from_edge_list(3, [(0, 1)])
    [(_, ks)] = graph_curvature([g])
    K = ks[2]
    assert K == math.inf
    _, bmap = ball(g, 2)
    with pytest.raises(GraphError, match="isolated"):
        lemma1_gap(g, bmap, frozenset(), 0.5, K)
    # the class of a triangle gets past corollary2_gap's edge-regularity check
    triangle = detect_regularity(complete_graph(3))
    with pytest.raises(GraphError, match="isolated"):
        corollary2_gap(g, bmap, triangle, frozenset(), frozenset(), K)


def _subsets(vertices):
    return [
        frozenset(c)
        for c in chain.from_iterable(
            combinations(vertices, r) for r in range(len(vertices) + 1)
        )
    ]


def _e(g, P, Q):
    """The number of edges between P and Q, read off the edge list."""
    return sum(1 for u, v in g.edges() if (u in P and v in Q) or (u in Q and v in P))


def test_lemma1_a_form_matches_direct_recount(corpus):
    # The paper states Lemma 1 with a split A, Ab of sphere 2; lemma1_gap
    # drops A by the identity in its docstring.  Recount the paper's form
    # from the edge list for every X and every A.
    K = -1.0
    checked = 0
    centres = [(petersen(), 0)]
    centres += [(corpus[name], x) for name in ("bull", "rand2") for x in range(corpus[name].n)]
    for g, x in centres:
        _, bmap = ball(g, x)
        n1 = set(bmap.sphere_vertices(1))
        n2 = set(bmap.sphere_vertices(2))
        for X in _subsets(n1):
            Xb = n1 - X
            eps = 1.7 if len(X) % 2 else -0.6
            gap = lemma1_gap(g, bmap, X, eps, K)
            for A in _subsets(n2):
                Ab = n2 - A
                ratio = sum(_e(g, Xb, {z}) ** 2 / _e(g, n1, {z}) for z in A)
                ratio += sum(_e(g, X, {z}) ** 2 / _e(g, n1, {z}) for z in Ab)
                lhs = (1 - eps) ** 2 * (_e(g, X, Xb) + _e(g, X, Ab) + _e(g, Xb, A) - ratio)
                rhs = (
                    0.25 * (2 * K + len(n1) - 3) * (eps**2 * len(X) + len(Xb))
                    + 0.25 * (eps**2 * _e(g, X, n2) + _e(g, Xb, n2))
                    - 0.5 * (eps * len(X) + len(Xb)) ** 2
                )
                assert gap == pytest.approx(lhs - rhs, abs=1e-12), (x, sorted(X), sorted(A))
                checked += 1
    assert checked == 1280


def test_corollary2_gap_examples():
    g = cycle_graph(4)
    reg = detect_regularity(g)
    _, bmap = ball(g, 0)
    n1 = bmap.sphere_vertices(1)
    n2 = bmap.sphere_vertices(2)
    # X empty: LHS counts only e(Xb, A) >= 0 and RHS vanishes
    gap = corollary2_gap(g, bmap, reg, frozenset(), frozenset(n2), 2.0)
    assert gap >= 0.0
    # |X| = 1, A = N2, K = 2: e(X,Xb)=0, e(X,Ab)=0, e(Xb,A)=1, so
    # LHS = 1 and RHS = (4 + 4 - 0 - 4)/(4*2) = 1/2
    gap = corollary2_gap(g, bmap, reg, frozenset({n1[0]}), frozenset(n2), 2.0)
    assert gap == pytest.approx(0.5)
    with pytest.raises(GraphError, match="sphere 2"):
        corollary2_gap(g, bmap, reg, frozenset(), frozenset({n1[0]}), 2.0)


def test_corollary2_rejects_irregular():
    g = path_graph(4)
    _, bmap = ball(g, 1)
    with pytest.raises(GraphError):
        corollary2_gap(g, bmap, detect_regularity(g), frozenset(), frozenset(), 0.0)
