import pytest

from curvlab.enumeration import (
    _extensions,
    _refine,
    all_graphs,
    connected_graphs,
    connected_graphs_upto,
    is_isomorphic,
)
from curvlab.generators import cycle_graph, petersen
from curvlab.graph import GraphError, from_edge_list

# published counts of isomorphism classes per vertex count
ALL_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853}


@pytest.mark.parametrize("n", sorted(ALL_COUNTS))
def test_counts_match_published_sequences(n):
    assert len(all_graphs(n)) == ALL_COUNTS[n]
    assert len(connected_graphs(n)) == CONNECTED_COUNTS[n]


def test_extensions_match_edge_list_construction():
    for n in range(1, 5):
        for g in all_graphs(n):
            expected = [
                from_edge_list(n + 1, g.edges() + [(v, n) for v in range(n) if (mask >> v) & 1])
                for mask in range(1 << n)
            ]
            assert _extensions(g) == expected


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
    assert _refine(c6)[1] == _refine(two_c3)[1]
    assert not is_isomorphic(c6, two_c3)


def test_is_isomorphic_vertex_transitive():
    p = petersen()
    relabeled = from_edge_list(
        10, [(9 - u, 9 - v) for u, v in p.edges()]
    )
    assert is_isomorphic(p, relabeled)


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
