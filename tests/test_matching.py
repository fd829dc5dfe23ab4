import random

import pytest

from curvlab.enumeration import connected_graphs_upto
from curvlab.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen,
)
from curvlab.graph import GraphError, from_edge_list
from curvlab.matching import Matching, matching_bruteforce, maximum_matching, tutte_violation
from conftest import random_graph


def test_c4_perfect():
    m = maximum_matching(cycle_graph(4))
    assert m.size == 2 and m.is_perfect
    assert m.verify(cycle_graph(4))


@pytest.mark.parametrize(
    "edges, is_perfect",
    [
        (((0, 2),), False),  # not an edge of C4
        (((0, 1), (1, 2)), False),  # both edges cover vertex 1
        (((0, 0),), False),
        (((0, 1), (2, 3)), False),  # perfect, flagged not
        (((0, 1),), True),  # not perfect, flagged perfect
    ],
)
def test_corrupted_matchings_do_not_verify(edges, is_perfect):
    assert not Matching(edges, is_perfect).verify(cycle_graph(4))


def test_star_not_perfect():
    m = maximum_matching(complete_bipartite(1, 3))
    assert m.size == 1 and not m.is_perfect


def test_petersen_perfect():
    m = maximum_matching(petersen())
    assert m.size == 5 and m.is_perfect
    assert m.size == matching_bruteforce(petersen())


def test_bruteforce_examples():
    assert matching_bruteforce(cycle_graph(5)) == 2
    assert matching_bruteforce(complete_graph(4)) == 2
    assert matching_bruteforce(cycle_graph(6)) == 3


def test_bruteforce_cap():
    with pytest.raises(GraphError):
        matching_bruteforce(complete_graph(8))  # 28 edges


def test_odd_cycles_need_blossoms():
    for n in [3, 5, 7, 9, 11, 13]:
        assert maximum_matching(cycle_graph(n)).size == n // 2


def test_blossom_vs_bruteforce_random():
    rng = random.Random(71)
    checked = 0
    while checked < 500:
        g = random_graph(rng, rng.randint(1, 13), rng.choice([0.15, 0.3, 0.5]))
        if g.m > 20:
            continue
        checked += 1
        m = maximum_matching(g)
        assert m.verify(g)
        assert m.size == matching_bruteforce(g), g.adjacency


def test_blossom_vs_bruteforce_exhaustive():
    for gid, g in connected_graphs_upto(6):
        if g.m > 20:
            continue
        assert maximum_matching(g).size == matching_bruteforce(g), gid


def test_deterministic():
    g = petersen()
    assert maximum_matching(g) == maximum_matching(g)


def test_tutte_examples():
    assert tutte_violation(complete_bipartite(1, 3)) == (0,)
    assert tutte_violation(cycle_graph(4)) is None
    bowtie = from_edge_list(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert tutte_violation(bowtie) == ()  # odd order: S = empty set works


def test_tutte_cap():
    with pytest.raises(GraphError):
        tutte_violation(from_edge_list(17, []))


def test_tutte_matches_blossom():
    rng = random.Random(72)
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 12), rng.choice([0.2, 0.4, 0.6]))
        perfect = maximum_matching(g).is_perfect
        assert (tutte_violation(g) is None) == perfect, g.adjacency
