import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from curvlab.curvature import _adjacency
from curvlab.enumeration import connected_graphs_upto
from curvlab.graph import (
    GraphError,
    ball,
    from_edge_list,
    girth,
    induced_subgraph,
    is_connected,
)
from curvlab.generators import (
    cartesian_product,
    complete_graph,
    cycle_graph,
    integer_line,
    line_times_complete,
    path_graph,
    petersen,
)
from conftest import random_graph


def test_from_edge_list_basic():
    g = from_edge_list(2, [(0, 1)])
    assert g.n == 2 and g.m == 1 and g.adjacency == ((1,), (0,))
    c4 = from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert all(c4.degree(v) == 2 for v in range(4))


def test_from_edge_list_deduplicates():
    g = from_edge_list(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_self_loop_rejected():
    with pytest.raises(GraphError):
        from_edge_list(3, [(0, 0)])


def test_out_of_range_rejected():
    with pytest.raises(GraphError):
        from_edge_list(2, [(0, 2)])
    with pytest.raises(GraphError):
        from_edge_list(2, [(-1, 0)])


def test_negative_vertex_count_rejected():
    with pytest.raises(GraphError, match="vertex count must be non-negative, got -1"):
        from_edge_list(-1, [])


@given(st.integers(1, 9), st.data())
def test_adjacency_symmetric(n, data):
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    raw = data.draw(st.lists(pairs, max_size=20))
    edges = [(u, v) for u, v in raw if u != v]
    g = from_edge_list(n, edges)
    for u in range(n):
        for v in g.adjacency[u]:
            assert u in g.adjacency[v]
        assert list(g.adjacency[u]) == sorted(set(g.adjacency[u]))


def test_c4_degrees_connectivity_girth():
    g = cycle_graph(4)
    assert all(g.degree(v) == 2 for v in range(g.n))
    assert is_connected(g) and girth(g) == 4


def test_petersen_degrees_girth():
    g = petersen()
    assert all(g.degree(v) == 3 for v in range(g.n))
    assert girth(g) == 5


def test_disconnected_connectivity_girth():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert girth(g) == math.inf


def test_girth_of_forest_is_infinite():
    assert girth(path_graph(5)) == math.inf


def test_ball_integer_line():
    adj, bmap = ball(integer_line(), 0)
    assert adj.shape == (5, 5) and adj.dtype == bool
    assert bmap.vertices == (0, -1, 1, -2, 2)
    assert bmap.sphere == (0, 1, 1, 2, 2)
    # path structure: index of -1 is 1, of 1 is 2, etc.
    assert adj[0, 1] and adj[0, 2]
    assert adj[1, 3] and adj[2, 4]
    assert (adj == adj.T).all() and adj.sum() == 2 * 4


def test_ball_petersen_covers_graph():
    p = petersen()
    adj, bmap = ball(p, 0)
    assert adj.shape == (10, 10)  # diameter 2


def test_ball_complete_has_empty_second_sphere():
    adj, bmap = ball(complete_graph(5), 2)
    assert adj.shape == (5, 5)
    assert bmap.sphere_vertices(2) == ()


def test_ball_matches_induced_subgraph():
    rng = random.Random(99)
    for _ in range(50):
        g = random_graph(rng, rng.randint(2, 10), 0.4)
        x = rng.randrange(g.n)
        adj, bmap = ball(g, x)
        assert adj.dtype == bool
        assert np.array_equal(adj, _adjacency([induced_subgraph(g, bmap.vertices)])[0])
    # every vertex of the connected graphs with n <= 6
    for _, g in connected_graphs_upto(6):
        for x in range(g.n):
            adj, bmap = ball(g, x)
            expected = _adjacency([induced_subgraph(g, bmap.vertices)])[0]
            assert np.array_equal(adj, expected), (g.adjacency, x)


def test_ball_reads_oracle_adjacency():
    # on infinite oracles: edge (i, j) exactly when vertices[j] neighbors vertices[i]
    for o, x in [(integer_line(), -3)] + [
        (line_times_complete(k), (2, k - 1)) for k in range(1, 5)
    ]:
        adj, bmap = ball(o, x)
        vs = bmap.vertices
        expected = {
            (i, j) for i, v in enumerate(vs) for j, w in enumerate(vs) if w in o.neighbors(v)
        }
        assert set(zip(*np.nonzero(adj))) == expected


def test_cartesian_product_degrees():
    rng = random.Random(4)
    for _ in range(20):
        a = random_graph(rng, rng.randint(1, 5), 0.5)
        b = random_graph(rng, rng.randint(1, 5), 0.5)
        prod = cartesian_product(a, b)
        assert prod.n == a.n * b.n
        for u in range(a.n):
            for v in range(b.n):
                assert prod.degree(u * b.n + v) == a.degree(u) + b.degree(v)


def test_is_connected_two_edges():
    assert not is_connected(from_edge_list(4, [(0, 1), (2, 3)]))
    assert is_connected(path_graph(4))
