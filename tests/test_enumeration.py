import gc
import hashlib
from functools import lru_cache
from itertools import combinations, permutations

import pytest

from curvlab.enumeration import (
    _extensions,
    _masks,
    _pruned_masks,
    _refine,
    _rows,
    all_graphs,
    connected_graphs,
    connected_graphs_upto,
    is_isomorphic,
)
from curvlab.generators import cycle_graph, petersen
from curvlab.graph import Graph, GraphError, from_edge_list

# published counts of isomorphism classes per vertex count
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}

# sha256 of repr([g.adjacency for g in all_graphs(n)]), recorded when every
# k-vertex representative was extended by all 2^k neighborhoods: graph ids
# and report certificates depend on the representatives and their order
REPRESENTATIVE_SHA256 = {
    1: "713bb2ae9152b9af4defb606b892235524b8d60af0c347fc81ae3fb047470c1f",
    2: "bed29f8d691600e1229fe5e930dc4cdf1b5bb5aec246b39b608ee208900df1b4",
    3: "37d1784f4e7f0a1416f1e430724b1cd06a202cb6959fbd19e752da4e437c4a74",
    4: "9231725d2122a678b4b95f9089a09fa82762fbe45551b0bab02934da4278c4f3",
    5: "ad9c00111228fc1003e59932d2dc4d8afad50c3001c3148be4347791d3871f2c",
    6: "72a45457b1b7a77dca2d19d028b70dde88181267620172950d6585bb6c7b7a72",
    7: "7c24e2a862dd7d8fab368797caacb86082b504db378c90986b5752974ceb551e",
    8: "f39183170f28aedcd36ebdca408a079c3482203b2d8396fb2ed08c95d0e99628",
}


def _all_masks(g):
    """g plus a vertex n with each of the 2^n neighborhoods, in mask order."""
    n = g.n
    return [
        from_edge_list(n + 1, g.edges() + [(v, n) for v in range(n) if (mask >> v) & 1])
        for mask in range(1 << n)
    ]


@lru_cache(maxsize=None)
def _relabelled_pair_weights(n):
    """Pair index of each vertex pair, and for each of the n! relabellings p
    the weight of every pair after p; the pairs (0, 1), (0, 2), ... weigh
    2^(P-1), 2^(P-2), ..., so a sum of weights reads a bit string."""
    pairs = list(combinations(range(n), 2))
    weight = {pair: 1 << (len(pairs) - 1 - i) for i, pair in enumerate(pairs)}
    index = {pair: i for i, pair in enumerate(pairs)}
    tables = [
        tuple(weight[min(p[u], p[v]), max(p[u], p[v])] for u, v in pairs)
        for p in permutations(range(n))
    ]
    return index, tables


def _canonical_form(g):
    """Brute-force canonical form: the least upper-triangle adjacency bit
    string of g over all n! relabellings, read as a binary number."""
    index, tables = _relabelled_pair_weights(g.n)
    edges = [index[e] for e in g.edges()]
    return min(sum(table[e] for e in edges) for table in tables)


@pytest.mark.parametrize("n", sorted(ALL_COUNTS))
def test_counts_match_published_sequences(n):
    assert len(all_graphs(n)) == ALL_COUNTS[n]
    assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]


@pytest.mark.parametrize("n", sorted(REPRESENTATIVE_SHA256))
def test_representatives_pinned(n):
    adjacency = [g.adjacency for g in all_graphs(n)]
    assert hashlib.sha256(repr(adjacency).encode()).hexdigest() == REPRESENTATIVE_SHA256[n]


def test_extensions_match_edge_list_construction():
    for n in range(1, 5):
        for g in all_graphs(n):
            expected = [
                h for h in _all_masks(g) if h.degree(n) == max(map(h.degree, range(n + 1)))
            ]
            assert _extensions(g) == expected


def test_extension_candidate_count():
    assert sum(len(_extensions(g)) for g in all_graphs(6)) == 2690


def test_orbit_pruned_candidate_count():
    assert sum(len(_pruned_masks(_rows(g))) for g in all_graphs(6)) == 1401


def _permuted_mask(p, mask):
    return sum(1 << p[v] for v in range(len(p)) if mask >> v & 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_pruned_masks_are_the_orbit_minima(n):
    # the automorphisms come from trying all n! relabellings: a mask is
    # dropped exactly when one of them maps it to a smaller mask
    for g in all_graphs(n):
        rows = _rows(g)
        automorphisms = [
            p
            for p in permutations(range(n))
            if all(_permuted_mask(p, rows[v]) == rows[p[v]] for v in range(n))
        ]
        assert _pruned_masks(rows) == [
            m for m in _masks(rows) if all(_permuted_mask(p, m) >= m for p in automorphisms)
        ]


@pytest.mark.parametrize("n", range(2, 7))
def test_degree_rule_against_brute_force_canonical_forms(n):
    reps = all_graphs(n)
    forms = [_canonical_form(g) for g in reps]
    assert len(set(forms)) == len(reps) == ALL_COUNTS[n]
    # walk every neighborhood in (parent index, mask) order: a dropped one
    # must repeat the class of a kept one met earlier, and each class's
    # first candidate must be its representative
    kept_forms = set()
    first = {}
    for g in all_graphs(n - 1):
        kept = set(_extensions(g))
        for cand in _all_masks(g):
            form = _canonical_form(cand)
            first.setdefault(form, cand)
            if cand in kept:
                kept_forms.add(form)
            else:
                assert form in kept_forms
    assert kept_forms == set(forms)
    assert all(first[form] == g for form, g in zip(forms, reps))


def test_representatives_are_pairwise_non_isomorphic():
    graphs = all_graphs(5)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1 :]:
            assert not is_isomorphic(g, h)


def test_is_isomorphic_relabeling():
    c6 = cycle_graph(6)
    shuffled = from_edge_list(6, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 5), (5, 0)])
    assert is_isomorphic(c6, shuffled)


def test_is_isomorphic_separates_wl_equivalent_pair():
    # C6 and two triangles agree under color refinement but are not
    # isomorphic; the backtracking stage must separate them
    c6 = cycle_graph(6)
    two_c3 = from_edge_list(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert _refine(_rows(c6))[1] == _refine(_rows(two_c3))[1]
    assert not is_isomorphic(c6, two_c3)


def test_is_isomorphic_vertex_transitive():
    p = petersen()
    relabeled = from_edge_list(
        10, [(9 - u, 9 - v) for u, v in p.edges()]
    )
    assert is_isomorphic(p, relabeled)


def test_isomorphism_search_frees_graphs_without_the_cycle_collector():
    # the backtracking search keeps its state in arguments, not in a
    # recursive closure, so no reference cycle holds the two graphs
    def alive():
        return sum(isinstance(o, Graph) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        for _ in range(10):
            assert is_isomorphic(petersen(), petersen())
        assert alive() == before
    finally:
        gc.enable()


def test_upto_iteration_labels():
    items = list(connected_graphs_upto(4))
    assert len(items) == 1 + 1 + 2 + 6
    assert items[0][0] == "n1#0"
    assert all(g.n <= 4 for _, g in items)


def test_enumeration_caps():
    with pytest.raises(GraphError):
        all_graphs(10)
    with pytest.raises(GraphError):
        all_graphs(0)
