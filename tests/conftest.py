"""Shared corpora and helpers for the test suite."""

from __future__ import annotations

import math
import random
from typing import NamedTuple

import numpy as np
import pytest

from curvlab import workers
from curvlab.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    hamming2,
    hypercube,
    paley,
    path_graph,
    petersen,
    triangular,
)
from curvlab.graph import Graph, ball, from_edge_list, is_connected
from curvlab.regularity import RegularityClass
from curvlab.reports import THEOREM_IDS
from curvlab.theorems import scan


def amply_corpus() -> dict[str, Graph]:
    """The amply regular graphs used for cross-checks throughout."""
    corpus = {
        "C4": cycle_graph(4),
        "K33": complete_bipartite(3, 3),
        "K44": complete_bipartite(4, 4),
        "T5": triangular(5),
        "T6": triangular(6),
        "T7": triangular(7),
        "paley13": paley(13),
        "petersen": petersen(),
    }
    for d in range(2, 7):
        corpus[f"Q{d}"] = hypercube(d)
    for q in range(3, 6):
        corpus[f"hamming2({q})"] = hamming2(q)
    return corpus


def mixed_corpus() -> dict[str, Graph]:
    """Amply regular corpus plus irregular and sparse extras."""
    corpus = amply_corpus()
    corpus.update(
        {
            "P3": path_graph(3),
            "P6": path_graph(6),
            "C5": cycle_graph(5),
            "K2": complete_graph(2),
            "K5": complete_graph(5),
            "star3": complete_bipartite(1, 3),
            "bull": from_edge_list(5, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 4)]),
        }
    )
    rng = random.Random(20240601)
    made = 0
    while made < 6:
        n = rng.randint(5, 9)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.45
        ]
        g = from_edge_list(n, edges)
        if is_connected(g) and g.m > 0:
            corpus[f"rand{made}"] = g
            made += 1
    return corpus


def scan_pairs(graphs, theorem_ids=THEOREM_IDS) -> list:
    """Every (graph, verdicts) pair of a `theorems.scan` of the (gid, Graph)
    pairs `graphs`, in corpus order."""
    pairs = []
    scan(graphs, theorem_ids, list, pairs.extend)
    return pairs


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return from_edge_list(n, edges)


# a leading coefficient of the Lemma 1 quadratic within this of zero is
# read as zero: masks such as X = sphere 1 at the vertices of T7 have
# a = -1.4e-14 with b = 0 exactly
FLAT = 1e-9


class PartitionMinima(NamedTuple):
    """The exact minima of the partition gaps at one vertex, over every
    split of its spheres, with a split that attains each."""

    masks: int  # the number of X examined, 2^|S1|
    lemma1: float  # over every X in S1 and every real eps; -inf if unbounded
    X: frozenset
    eps: float
    corollary2: float | None  # over every X in S1 and A in S2; None unless edge-regular
    X2: frozenset
    A: frozenset


def partition_minima(g: Graph, x: int, K: float, reg: RegularityClass) -> PartitionMinima:
    """Minimise both partition gaps at x over all 2^|S1| splits X at once,
    read off the 0/1 adjacency of x's 2-ball.

    The Lemma 1 gap is a eps^2 + b eps + c with a, b and c read off X; its
    infimum over real eps is c - b^2/4a when a > 0, c when a and b vanish
    and -inf otherwise.  The Corollary 2 crossing count adds d_Xb(z) for z
    in A and d_X(z) otherwise, so A = {z : d_Xb(z) < d_X(z)} minimises it.
    """
    adj, bmap = ball(g, x)
    tags = np.array(bmap.sphere)
    s1, s2 = np.flatnonzero(tags == 1), np.flatnonzero(tags == 2)
    d = len(s1)
    in_x = ((np.arange(2**d)[:, None] >> np.arange(d)) & 1).astype(float)
    in_xb = 1.0 - in_x
    a12 = adj[np.ix_(s1, s2)].astype(float)
    cut = np.einsum("ri,ij,rj->r", in_x, adj[np.ix_(s1, s1)].astype(float), in_xb)
    dx, dxb = in_x @ a12, in_xb @ a12
    size = in_x.sum(axis=1)
    bracket = cut + (dx * dxb / (dx + dxb)).sum(axis=1)
    c0 = (2 * K + d - 3) / 4
    a = bracket - c0 * size - dx.sum(axis=1) / 4 + size**2 / 2
    b = size * (d - size) - 2 * bracket
    c = bracket - c0 * (d - size) - dxb.sum(axis=1) / 4 + (d - size) ** 2 / 2
    flat = np.abs(a) <= FLAT
    curved = np.where(flat, 1.0, a)
    lemma = np.where(flat, c, c - b * b / (4 * curved))
    lemma[(a < -FLAT) | (flat & (np.abs(b) > FLAT))] = -math.inf
    eps = np.where(flat, 0.0, -b / (2 * curved))

    def split(row: np.ndarray, sphere: np.ndarray) -> frozenset:
        return frozenset(bmap.vertices[i] for i in sphere[row.astype(bool)])

    r = int(np.argmin(lemma))
    minima = (2**d, float(lemma[r]), split(in_x[r], s1), float(eps[r]))
    if not reg.is_edge_regular:
        return PartitionMinima(*minima, None, frozenset(), frozenset())
    crossing = cut + np.minimum(dx, dxb).sum(axis=1)
    cor = crossing - (2 * K + 2 * reg.d - reg.alpha - 4) * size * (d - size) / (4.0 * reg.d)
    r = int(np.argmin(cor))
    return PartitionMinima(
        *minima, float(cor[r]), split(in_x[r], s1), split(dxb[r] < dx[r], s2)
    )


@pytest.fixture(scope="session")
def amply():
    return amply_corpus()


@pytest.fixture(scope="session")
def corpus():
    return mixed_corpus()


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) makes k the usable CPUs, and so the workers of a scan.  A test
    that counts calls or objects in its own process pins one, since a forked
    worker's are not seen here."""
    return lambda k: monkeypatch.setattr(workers, "usable_cpus", lambda: k)
