import random
from collections import Counter
from dataclasses import replace
from itertools import combinations

import networkx as nx
import pytest

from curvlab import cuts
from curvlab.cuts import (
    CutCertificate,
    _max_flow,
    classify_min_cuts,
    edge_connectivity,
    min_cut_bruteforce,
    restricted_edge_connectivity,
)
from curvlab.enumeration import all_graphs, connected_graphs_upto
from curvlab.generators import (
    beta1_counterexample,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hamming2,
    hypercube,
    path_graph,
    petersen,
    triangular,
)
from curvlab.graph import GraphError, from_edge_list, is_connected
from conftest import amply_corpus, random_graph


def brute_set_cut(g, source, sink):
    """Minimum cut between two vertex sets by enumerating the other vertices'
    sides, with the intersection of the minimum source sides (the minimal one)."""
    rest = [v for v in range(g.n) if v not in source and v not in sink]
    best, minimal = None, None
    for mask in range(2 ** len(rest)):
        side = set(source) | {v for i, v in enumerate(rest) if (mask >> i) & 1}
        val = sum(1 for u, v in g.edges() if (u in side) != (v in side))
        if best is None or val < best:
            best, minimal = val, side
        elif val == best:
            minimal = minimal & side
    return best, minimal


def brute_restricted(g):
    best = None
    for mask in range(1, 2 ** (g.n - 1)):
        side = {0} | {v for v in range(1, g.n) if (mask >> (v - 1)) & 1}
        if len(side) < 2 or g.n - len(side) < 2:
            continue
        val = sum(1 for u, v in g.edges() if (u in side) != (v in side))
        best = val if best is None else min(best, val)
    return best


def test_edge_connectivity_examples():
    assert edge_connectivity(cycle_graph(4))[0] == 2
    assert edge_connectivity(petersen())[0] == 3
    assert edge_connectivity(hypercube(3))[0] == 3
    assert edge_connectivity(path_graph(2))[0] == 1
    assert edge_connectivity(beta1_counterexample())[0] == 2


def test_edge_connectivity_trivial_cases():
    assert edge_connectivity(from_edge_list(1, [])) == (0, None)
    with pytest.raises(GraphError):
        edge_connectivity(from_edge_list(0, []))
    # a disconnected graph: lambda 0, cut off by vertex 0's component
    disconnected = 0
    for n in range(2, 7):
        for g in all_graphs(n):
            reached = {0}
            while len(grown := reached.union(*(g.adjacency[v] for v in reached))) > len(reached):
                reached = grown
            if len(reached) == n:
                continue
            disconnected += 1
            lam, cert = edge_connectivity(g)
            assert lam == 0 and sorted(cert.side_L) == sorted(reached), g.adjacency
            assert cert.verify(g)
    assert disconnected == (2 - 1) + (4 - 2) + (11 - 6) + (34 - 21) + (156 - 112)


def test_certificates_verify(corpus):
    for name, g in sorted(corpus.items()):
        lam, cert = edge_connectivity(g)
        assert cert is not None and cert.verify(g), name
        assert cert.value == lam


C4_CUT = CutCertificate(frozenset({0, 1}), ((0, 3), (1, 2)), 2)


def test_corrupted_certificates_do_not_verify():
    g = cycle_graph(4)
    assert C4_CUT.verify(g)
    for bad in (
        replace(C4_CUT, side_L=frozenset()),
        replace(C4_CUT, side_L=frozenset(range(4))),
        replace(C4_CUT, value=1),
        replace(C4_CUT, value=3),
        replace(C4_CUT, cut_edges=((0, 3),)),
        replace(C4_CUT, cut_edges=((1, 2),), value=1),
    ):
        assert not bad.verify(g), bad


def test_reversed_cut_edges_still_verify():
    # verify compares the cut edges sorted, so their order is free
    assert replace(C4_CUT, cut_edges=((1, 2), (0, 3))).verify(cycle_graph(4))


def test_min_cut_bruteforce_c4():
    lam, cuts = min_cut_bruteforce(cycle_graph(4))
    assert lam == 2 and len(cuts) == 6
    sides = {tuple(sorted(c.side_L)) for c in cuts}
    # four vertex stars (as their complements containing 0) and both
    # opposite-edge bipartitions
    assert (0, 1) in sides and (0, 3) in sides
    assert all(c.verify(cycle_graph(4)) for c in cuts)


def test_min_cut_bruteforce_k4_stars_only():
    lam, cuts = min_cut_bruteforce(complete_graph(4))
    assert lam == 3 and len(cuts) == 4
    assert all(len(c.side_L) in (1, 3) for c in cuts)


def test_min_cut_bruteforce_p2():
    lam, cuts = min_cut_bruteforce(path_graph(2))
    assert lam == 1 and len(cuts) == 1


def test_min_cut_bruteforce_caps():
    with pytest.raises(GraphError):
        min_cut_bruteforce(from_edge_list(21, []))


def test_cut_searches_reject_a_single_vertex():
    g = path_graph(1)
    with pytest.raises(GraphError, match="need at least two vertices for a cut"):
        min_cut_bruteforce(g)
    with pytest.raises(GraphError, match="cut classification needs at least two vertices"):
        classify_min_cuts(g, edge_connectivity(g))


def test_stoer_wagner_vs_bruteforce_exhaustive():
    for gid, g in connected_graphs_upto(7):
        if g.n < 2:
            continue
        lam, cert = edge_connectivity(g)
        blam, _ = min_cut_bruteforce(g)
        assert lam == blam, gid
        assert cert.verify(g), gid


def test_stoer_wagner_vs_bruteforce_random():
    rng = random.Random(101)
    for _ in range(400):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.2, 0.4, 0.6, 0.9]))
        lam, cert = edge_connectivity(g)
        blam, _ = min_cut_bruteforce(g)
        assert lam == blam
        if cert is not None:
            assert cert.verify(g)


def test_lambda_at_most_min_degree():
    rng = random.Random(55)
    for _ in range(200):
        g = random_graph(rng, rng.randint(2, 10), 0.5)
        lam, _ = edge_connectivity(g)
        assert lam <= min(g.degree(v) for v in range(g.n))


def test_restricted_examples():
    assert restricted_edge_connectivity(cycle_graph(4))[0] == 2
    assert restricted_edge_connectivity(hypercube(3))[0] == 4
    lam_r, cert = restricted_edge_connectivity(petersen())
    assert lam_r == brute_restricted(petersen())
    assert cert.verify(petersen())


def test_restricted_needs_four_vertices():
    with pytest.raises(GraphError):
        restricted_edge_connectivity(complete_graph(3))


def test_restricted_vs_bruteforce_random():
    for g in (g for n in (4, 5, 6) for g in all_graphs(n) if not is_connected(g)):
        with pytest.raises(GraphError, match="requires a connected graph"):
            restricted_edge_connectivity(g)
    rng = random.Random(202)
    for _ in range(400):
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.15, 0.35, 0.55, 0.8]))
        if not is_connected(g):
            with pytest.raises(GraphError, match="requires a connected graph"):
                restricted_edge_connectivity(g)
            continue
        lam_r, cert = restricted_edge_connectivity(g)
        expected = brute_restricted(g)
        assert lam_r == expected, (g.adjacency, lam_r, expected)
        assert cert.verify(g)
        assert len(cert.side_L) >= 2 and g.n - len(cert.side_L) >= 2


def test_restricted_star_graph():
    star = complete_bipartite(1, 4)
    lam_r, cert = restricted_edge_connectivity(star)
    assert lam_r == 2
    assert len(cert.side_L) == 2


def test_classify_examples():
    witness = classify_min_cuts(cycle_graph(4), edge_connectivity(cycle_graph(4)))
    assert witness is not None and len(witness.side_L) == 2
    # n <= 3 is handled directly
    for g in (complete_graph(4), hypercube(4), path_graph(3), path_graph(2)):
        assert classify_min_cuts(g, edge_connectivity(g)) is None


def test_classify_agrees_with_enumeration():
    rng = random.Random(303)
    count = 0
    while count < 120:
        g = random_graph(rng, rng.randint(4, 9), rng.choice([0.3, 0.5, 0.7]))
        if not is_connected(g):
            continue
        count += 1
        lam, cuts = min_cut_bruteforce(g)
        non_star = [
            c for c in cuts if 2 <= len(c.side_L) <= g.n - 2
        ]
        expected = not non_star
        witness = classify_min_cuts(g, edge_connectivity(g))
        assert (witness is None) == expected, g.adjacency
        if not expected:
            assert witness.value == lam
            assert 2 <= len(witness.side_L) <= g.n - 2


def test_classify_beta1_splice_has_non_star_cut():
    g = beta1_counterexample()
    witness = classify_min_cuts(g, edge_connectivity(g))
    assert witness is not None and witness.value == 2


def test_max_flow_vs_bruteforce_set_cut():
    rng = random.Random(404)
    for _ in range(300):
        n = rng.randint(2, 10)
        g = random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.9]))
        order = rng.sample(range(n), n)
        k = rng.randint(1, min(3, n - 1))
        source, sink = set(order[:k]), set(order[k : k + rng.randint(1, min(3, n - k))])
        value, minimal = brute_set_cut(g, source, sink)
        assert _max_flow(g, source, sink) == (value, minimal), (g.adjacency, source, sink)
        assert _max_flow(g, source, sink, value + 1) == (value, minimal)
        limit = rng.randint(0, value)
        assert _max_flow(g, source, sink, limit) == (limit, None)


@pytest.mark.parametrize(
    "g, d",
    [(hypercube(k), k) for k in range(3, 8)]
    + [(hamming2(q), 2 * (q - 1)) for q in range(3, 7)]
    + [(triangular(n), 2 * (n - 2)) for n in range(5, 10)],
)
def test_edge_connectivity_of_large_amply_regular_graphs(g, d):
    # beyond the brute-force cap; these families are d-edge-connected
    lam, cert = edge_connectivity(g)
    assert lam == d and cert.verify(g)


def counted_flows(monkeypatch):
    """The list that every later `_max_flow` call appends its arguments to."""
    calls = []
    original = cuts._max_flow

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cuts, "_max_flow", counted)
    return calls


def networkx_lambda(g):
    return nx.edge_connectivity(nx.Graph(g.edges()))


def two_blocks(rng, n):
    """Two random dense blocks joined by a few random edges, vertices
    shuffled: lambda is often below delta with both sides large."""
    m = rng.randint(4, n - 4)
    p = rng.choice([0.7, 0.85, 1.0])
    name = rng.sample(range(n), n)
    edges = {
        (name[u], name[v])
        for part in (range(m), range(m, n))
        for u, v in combinations(part, 2)
        if rng.random() < p
    }
    edges |= {(name[rng.randrange(m)], name[rng.randrange(m, n)]) for _ in range(rng.randint(1, 6))}
    return from_edge_list(n, [tuple(sorted(e)) for e in edges])


def test_lambda_matches_networkx_on_random_graphs():
    # lambda is decided by dominating-set flows before Stoer-Wagner runs
    rng = random.Random(505)
    checked = below_delta = 0
    while checked < 200:
        n = rng.randint(9, 40)
        if checked % 2:
            g = random_graph(rng, n, rng.choice([2.5 / n, 4 / n, 0.3, 0.6]))
        else:
            g = two_blocks(rng, n)
        if not is_connected(g):
            continue
        lam, cert = edge_connectivity(g)
        assert lam == networkx_lambda(g) and cert.verify(g), g.adjacency
        checked += 1
        below_delta += lam < min(g.degree(v) for v in range(n))
    assert below_delta > 40


@pytest.mark.parametrize("m", [6, 9, 13])
def test_lambda_below_delta_with_two_large_sides(m):
    # two cliques joined by j < m - 1 edges have lambda = j < delta = m - 1,
    # and only flows between dominating vertices on both sides see it;
    # the relabellings move the dominating set's first vertices around
    rng = random.Random(m)
    for j in (1, 2, m - 3, m - 2):
        matching = [(i, (i * 5) % m) for i in range(j)]
        for labels in (None, rng.sample(range(2 * m), 2 * m), [v // 2 + (v % 2) * m for v in range(2 * m)]):
            g = cliques_joined(m, matching, labels)
            lam, cert = edge_connectivity(g)
            assert lam == j == networkx_lambda(g) and cert.verify(g)
            assert classify_min_cuts(g, (lam, cert)) == cert


def test_lambda_flow_count_on_hypercube7(monkeypatch):
    # one flow per vertex that joins the dominating set after the first;
    # Stoer-Wagner runs no flow, and its first phase already cuts lambda
    calls = counted_flows(monkeypatch)
    assert edge_connectivity(hypercube(7))[0] == 7
    assert len(calls) <= 63


@pytest.mark.parametrize("k", range(3, 7))
def test_restricted_edge_connectivity_of_hypercubes(k):
    lam_r, cert = restricted_edge_connectivity(hypercube(k))
    assert lam_r == 2 * k - 2 and cert.verify(hypercube(k))
    assert 2 <= len(cert.side_L) <= 2**k - 2


# Certificates depend on Stoer-Wagner's tie-breaking and on the order of
# the restricted search, and the reports print them, so they are pinned.
N7_SEVERAL_MIN_CUTS = {
    "n7#14": [(0, 3), (0, 5), (1, 4), (1, 6), (2, 5), (2, 6), (4, 6)],
    "n7#307": [(0, 3), (0, 6), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5), (2, 6), (3, 6), (4, 5)],
    "n7#543": [
        (0, 2), (0, 4), (0, 6), (1, 3), (1, 5), (1, 6),
        (2, 4), (2, 6), (3, 5), (3, 6), (4, 6), (5, 6),
    ],
}


@pytest.mark.parametrize(
    "g, side_L, cut_edges",
    [
        (petersen(), [9], ((4, 9), (6, 9), (7, 9))),
        (hypercube(4), [15], ((7, 15), (11, 15), (13, 15), (14, 15))),
        (beta1_counterexample(), list(range(10, 20)), ((0, 10), (1, 11))),
        (from_edge_list(7, N7_SEVERAL_MIN_CUTS["n7#14"]), [1, 4, 6], ((2, 6),)),
        (from_edge_list(7, N7_SEVERAL_MIN_CUTS["n7#307"]), [1, 2, 4, 5], ((1, 6), (2, 6))),
        (from_edge_list(7, N7_SEVERAL_MIN_CUTS["n7#543"]), [5], ((1, 5), (3, 5), (5, 6))),
    ],
)
def test_edge_connectivity_certificates_pinned(g, side_L, cut_edges):
    lam, cert = edge_connectivity(g)
    assert (sorted(cert.side_L), cert.cut_edges, lam) == (side_L, cut_edges, len(cut_edges))


def test_several_min_cut_pins_are_exhaustive_graphs():
    graphs = dict(connected_graphs_upto(7))
    for gid, edges in N7_SEVERAL_MIN_CUTS.items():
        assert graphs[gid].edges() == edges
        assert len(min_cut_bruteforce(graphs[gid])[1]) >= 4


def test_classify_witnesses_pinned():
    g = beta1_counterexample()
    witness = classify_min_cuts(g, edge_connectivity(g))
    assert (sorted(witness.side_L), witness.cut_edges) == (list(range(10, 20)), ((0, 10), (1, 11)))
    g = cycle_graph(4)
    witness = classify_min_cuts(g, edge_connectivity(g))
    assert (sorted(witness.side_L), witness.cut_edges) == ([0, 1], ((0, 3), (1, 2)))


def cliques_joined(m, matching, labels=None):
    """Two copies of K_m, on 0..m-1 and m..2m-1, joined by the edges
    (i, m + j) of `matching`; `labels` renames vertex v to labels[v]."""
    edges = [(u, v) for part in (range(m), range(m, 2 * m)) for u, v in combinations(part, 2)]
    edges += [(i, m + j) for i, j in matching]
    name = labels or list(range(2 * m))
    return from_edge_list(2 * m, [(name[u], name[v]) for u, v in edges])


def lambda_equals_delta_graphs():
    """Connected graphs with n >= 4 and lambda = delta: n <= 7 exhaustive,
    the amply corpus, beta1 and two cliques joined by matchings."""
    graphs = [g for _, g in connected_graphs_upto(7) if g.n >= 4]
    graphs += list(amply_corpus().values()) + [beta1_counterexample()]
    graphs += [cliques_joined(m, [(i, i) for i in range(j)]) for m in (3, 4, 5, 6) for j in (m - 1, m)]
    graphs += [cliques_joined(5, [(0, 1), (1, 0), (2, 3), (3, 2)])]
    for g in graphs:
        lam, cert = edge_connectivity(g)
        if lam == min(g.degree(v) for v in range(g.n)):
            yield g, (lam, cert)


def test_classify_decides_as_the_restricted_search():
    # classification returns the exhaustive restricted search's certificate
    # when its value is lambda, and None otherwise
    checked = non_star = 0
    for g, connectivity in lambda_equals_delta_graphs():
        lam_r, cert_r = restricted_edge_connectivity(g)
        expected = cert_r if lam_r == connectivity[0] else None
        assert classify_min_cuts(g, connectivity) == expected, g.adjacency
        checked += 1
        non_star += expected is not None
    assert (checked, non_star) == (1011, 202)


def test_non_star_decision_is_one_sided():
    # for any vertex pair {u, w}, no: every non-star minimum cut separates u
    # from w or has exactly delta vertices on the side without them, which
    # the delta-clique scan finds; yes: some non-star minimum cut exists.
    # A cut that the anchor crosses is the sweep's to find, so the anchor's
    # no may hide one.
    outcomes = Counter()
    pairs = 0
    for g, (lam, _) in lambda_equals_delta_graphs():
        if g.n > 20:
            continue
        value, min_cuts = min_cut_bruteforce(g)
        assert value == lam, g.adjacency
        non_star = [c.side_L for c in min_cuts if 2 <= len(c.side_L) <= g.n - 2]
        clique_side = cuts._delta_clique_side(g, lam)
        for u, w in combinations(range(g.n), 2) if g.n <= 16 else [(0, g.n - 1), (1, g.n // 2)]:
            pairs += 1
            if cuts._non_star_cut_exists(g, lam, u, w):
                assert non_star, g.adjacency
                continue
            for side in non_star:
                far = side if u not in side else set(range(g.n)) - side
                assert (u in side) != (w in side) or (len(far) == lam and clique_side), (g.adjacency, u, w)
        a, b = g.edges()[0]
        decision = clique_side or cuts._non_star_cut_exists(g, lam, a, b)
        outcomes[decision, bool(non_star)] += 1
    # one graph, of order 7, has non-star minimum cuts that all cross its anchor
    assert outcomes == {(False, False): 805, (False, True): 1, (True, True): 201}
    assert pairs == 20704


@pytest.mark.parametrize(
    "labels, side, pair",
    [
        ([0, 2, 3, 4, 5, 1, 6, 7, 8, 9], [0, 2, 3, 4, 5], (0, 2)),
        ([0, 3, 4, 5, 6, 1, 2, 7, 8, 9], [0, 3, 4, 5, 6], (1, 2)),
    ],
)
def test_triple_decides_a_cut_that_separates_the_anchor(monkeypatch, labels, side, pair):
    # two K_5 joined by four matching edges, relabelled so that the anchor
    # edge (0, 1) is a matching edge: the one non-star minimum cut separates
    # 0 from 1, and c = 2 (0 and 1 share no neighbour) sides with 0, then 1
    g = cliques_joined(5, [(0, 0), (1, 1), (2, 2), (3, 3)], labels=labels)
    lam, min_cuts = min_cut_bruteforce(g)
    assert [sorted(c.side_L) for c in min_cuts if 2 <= len(c.side_L) <= g.n - 2] == [side]
    assert not cuts._delta_clique_side(g, lam)
    assert not cuts._non_star_cut_exists(g, lam, 0, 1)
    assert [cuts._non_star_cut_exists(g, lam, u, 2) for u in (0, 1)] == [pair == (0, 2), pair == (1, 2)]
    connectivity, restricted = edge_connectivity(g), restricted_edge_connectivity(g)
    calls = counted_flows(monkeypatch)
    witness = classify_min_cuts(g, connectivity)
    assert witness == restricted[1] and witness.value == lam
    # the anchor's closed-neighbourhood sinks all meet N[0] or N[1], so the
    # first flow is the deciding pair's, before the crossing pairs
    assert sorted(calls[0][1]) == list(pair)


def sink_families(g, side):
    """The sink families able to find the cut (side, rest), by definition:
    the decision's 1 when a side has delta vertices and 2 when the anchor
    edge lies in one side and the other contains a closed neighbourhood,
    and the sweep's crossing pairs, 3, when the anchor edge crosses."""
    delta = min(g.degree(v) for v in range(g.n))
    a, b = g.edges()[0]
    rest = set(range(g.n)) - side
    found = set()
    if delta in (len(side), len(rest)):
        found.add(1)
    if (a in side) != (b in side):
        found.add(3)
    else:
        far = rest if a in side else side
        if any({t, *g.adjacency[t]} <= far for t in far):
            found.add(2)
    return found


@pytest.mark.parametrize(
    "family, g",
    [
        # a triangle hung on K_5 by one edge per vertex
        (1, from_edge_list(8, list(combinations(range(5), 2)) + [(5, 6), (5, 7), (6, 7), (2, 5), (3, 6), (4, 7)])),
        # two K_5 joined by four matching edges, vertex 0 unmatched
        (2, cliques_joined(5, [(1, 1), (2, 2), (3, 3), (4, 4)])),
        # the same graph relabelled so that the anchor edge (0, 1) is a matching edge
        (3, cliques_joined(5, [(0, 0), (1, 1), (2, 2), (3, 3)], labels=[0, 2, 3, 4, 5, 1, 6, 7, 8, 9])),
    ],
)
def test_each_sink_family_alone_finds_a_cut(family, g):
    lam, cuts_found = min_cut_bruteforce(g)
    assert lam == min(g.degree(v) for v in range(g.n))
    non_star = [set(c.side_L) for c in cuts_found if 2 <= len(c.side_L) <= g.n - 2]
    assert non_star and set().union(*(sink_families(g, side) for side in non_star)) == {family}
    witness = classify_min_cuts(g, edge_connectivity(g))
    assert witness.value == lam and set(witness.side_L) in [*non_star, *(set(range(g.n)) - s for s in non_star)]


def test_classification_flow_count_on_hypercube7(monkeypatch):
    # one flow per closed-neighbourhood sink plus (delta - 1)^2 at the anchor's
    # ends; the sweep over every disjoint edge made 471
    g = hypercube(7)
    connectivity = edge_connectivity(g)
    calls = counted_flows(monkeypatch)
    assert classify_min_cuts(g, connectivity) is None
    assert len(calls) <= g.n + (7 - 1) ** 2


def test_classification_flow_count_on_triangular9(monkeypatch):
    # the anchor's 15 closed-neighbourhood flows and 15 for each pair of the
    # triple replace 169 crossing flows: 177 flows before the triple rule
    g = triangular(9)
    connectivity = edge_connectivity(g)
    calls = counted_flows(monkeypatch)
    assert classify_min_cuts(g, connectivity) is None
    assert len(calls) <= 45


def test_classification_flow_count_up_to_seven_vertices(monkeypatch):
    # one sweep that stops at its first cut of value lambda, with the triple
    # rule; without it the sweep made 4,874 flows here, and deciding first
    # and then running the whole restricted search made 5,771
    graphs = [g for _, g in connected_graphs_upto(7) if g.n >= 4]
    connectivity = [edge_connectivity(g) for g in graphs]
    calls = counted_flows(monkeypatch)
    for g, c in zip(graphs, connectivity):
        classify_min_cuts(g, c)
    assert len(graphs) == 992 and len(calls) <= 3058
