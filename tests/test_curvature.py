import math
import random
import warnings

import numpy as np
import pytest
import scipy.optimize

from curvlab import curvature, theorems
from curvlab.curvature import (
    FormError,
    bakry_emery_curvature,
    bakry_emery_curvature_bisect,
    check_cd,
    curvature_form,
    graph_curvature,
    min_eigenpair,
    schur_reduce,
)
from curvlab.enumeration import connected_graphs_upto
from curvlab.graph import ball, from_edge_list, induced_subgraph
from curvlab.generators import (
    complete_graph,
    cycle_graph,
    hypercube,
    integer_line,
    line_times_complete,
    petersen,
)
from curvlab.local_ops import gamma2_at, ph_sides
from conftest import random_graph


def test_form_k2():
    g = from_edge_list(2, [(0, 1)])
    q, k = curvature_form(g, 0)
    assert k == 1
    assert q == pytest.approx(np.array([[1.0]]))


def test_form_c5_second_sphere_block():
    q, k = curvature_form(cycle_graph(5), 0)
    assert k == 2 and q.shape == (4, 4)
    assert q[2:, 2:] == pytest.approx(np.diag([0.25, 0.25]))


def _polarized_gamma2(o, x, basis, vertices):
    """Q[i][j] = (Gamma_2(e_i + e_j) - Gamma_2(e_i) - Gamma_2(e_j)) / 2 at x,
    evaluated by the direct composition in `gamma2_at`."""
    zero = dict.fromkeys(vertices, 0.0)

    def g2(*support):
        f = dict(zero)
        for v in support:
            f[v] += 1.0
        return gamma2_at(o, f, f, x)

    diag = [g2(v) for v in basis]
    return np.array(
        [
            [0.5 * (g2(u, v) - diag[i] - diag[j]) for j, v in enumerate(basis)]
            for i, u in enumerate(basis)
        ]
    )


def test_form_matches_gamma2_and_polarization(corpus):
    # every entry, every vertex, every connected graph with n <= 6, one
    # vertex of each corpus graph (balls of up to 25 vertices) and one infinite
    # oracle; the entries are quarter-integers, so equality is exact
    rng = random.Random(42)
    graphs = [g for _, g in connected_graphs_upto(6) if g.n > 1]
    cases = [(g, x) for g in graphs for x in range(g.n)]
    for _, g in sorted(corpus.items()):
        x = rng.randrange(g.n)
        if g.adjacency[x]:
            cases.append((g, x))
    cases.append((line_times_complete(3), (0, 0)))
    for o, x in cases:
        q, k = curvature_form(o, x)
        _, bmap = ball(o, x)
        basis = bmap.vertices[1:]  # the form's basis: the ball without its centre
        assert k == bmap.sphere.count(1)
        polarized = _polarized_gamma2(o, x, basis, bmap.vertices)
        assert np.array_equal(q, polarized), (x, q, polarized)
        # quadratic contract on random functions
        for _ in range(3):
            f = {v: rng.uniform(-2, 2) for v in basis}
            f[x] = 0.0
            expected = gamma2_at(o, f, f, x)
            vec = np.array([f[v] for v in basis])
            assert abs(vec @ q @ vec - expected) <= 1e-9 * (1 + abs(expected))


def test_form_rejects_isolated_vertex():
    g = from_edge_list(3, [(0, 1)])
    with pytest.raises(FormError):
        curvature_form(g, 2)


def test_schur_reduce_k2_unchanged():
    q, k = curvature_form(from_edge_list(2, [(0, 1)]), 0)
    assert schur_reduce(q, k) is q


def test_schur_reduce_c5():
    q = schur_reduce(*curvature_form(cycle_graph(5), 0))
    assert q == pytest.approx(np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_schur_reduction_is_partial_minimum():
    # reduced value = min over sphere-2 values, checked by an independent
    # numerical minimizer; equality at the back-substituted point
    rng = random.Random(8)
    for name_g in [cycle_graph(5), cycle_graph(6), petersen(), hypercube(3)]:
        q, k = curvature_form(name_g, 0)
        red = schur_reduce(q, k)
        n2 = len(q) - k
        if n2 == 0:
            continue
        f1 = np.array([rng.uniform(-2, 2) for _ in range(k)])
        target = float(f1 @ red @ f1)

        def total(f2, f1=f1, q=q):
            f = np.concatenate([f1, f2])
            return float(f @ q @ f)

        # random sphere-2 assignments never beat the reduction
        for _ in range(50):
            f2 = np.array([rng.uniform(-3, 3) for _ in range(n2)])
            assert total(f2) >= target - 1e-9
        res = scipy.optimize.minimize(total, np.zeros(n2), tol=1e-12)
        assert res.fun == pytest.approx(target, abs=1e-8)
        # back-substitution attains the minimum
        q22 = q[k:, k:]
        q21 = q[k:, :k]
        f2_star = -np.linalg.solve(q22, q21 @ f1)
        assert total(f2_star) == pytest.approx(target, abs=1e-9)


def test_schur_rejects_bad_block():
    bad = np.array([[1.0, 0.0], [0.0, -0.5]])
    with pytest.raises(FormError):
        schur_reduce(bad, 1)


def test_schur_rejects_non_diagonal_sphere2_block():
    # positive definite, but not the diagonal block a curvature form has
    m = np.array([[1.0, -0.5, 0.0], [-0.5, 1.0, 0.25], [0.0, 0.25, 1.0]])
    with pytest.raises(FormError, match="not diagonal"):
        schur_reduce(m, 1)


def test_min_eigenpair_examples():
    lam, v = min_eigenpair(np.array([[0.5, 0.5], [0.5, 0.5]]))
    assert lam == pytest.approx(0.0, abs=1e-12)
    assert abs(v[0] + v[1]) < 1e-9  # proportional to (1, -1)
    lam, _ = min_eigenpair(np.eye(3))
    assert lam == pytest.approx(1.0)
    lam, _ = min_eigenpair(np.diag([-2.0, 5.0]))
    assert lam == pytest.approx(-2.0)


def test_min_eigenpair_residual_contract():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = rng.integers(1, 8)
        a = rng.normal(size=(dim, dim))
        m = (a + a.T) / 2
        lam, v = min_eigenpair(m)
        assert np.linalg.norm(m @ v - lam * v) <= 1e-10 * (1 + np.linalg.norm(m))
        assert np.linalg.norm(v) == pytest.approx(1.0)


def test_min_eigenpair_rejects_asymmetric():
    with pytest.raises(FormError):
        min_eigenpair(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_min_eigenpair_rejects_a_non_square_matrix():
    with pytest.raises(FormError, match=r"expected a square matrix, got shape \(2, 3\)"):
        min_eigenpair(np.zeros((2, 3)))


def test_curvature_ground_truths():
    assert bakry_emery_curvature(integer_line(), 0).K == pytest.approx(0.0, abs=1e-8)
    for k in range(1, 6):
        rep = bakry_emery_curvature(line_times_complete(k), (0, 0))
        assert rep.K == pytest.approx(0.0, abs=1e-8)
    for n in range(2, 9):
        rep = bakry_emery_curvature(complete_graph(n), 0)
        assert rep.K == pytest.approx((n + 2) / 2, abs=1e-8)
    for d in range(1, 7):
        [(value, _)] = graph_curvature([hypercube(d)])
        assert value == pytest.approx(2.0, abs=1e-8)
    assert bakry_emery_curvature(cycle_graph(5), 0).K == pytest.approx(
        0.0, abs=1e-10
    )


def test_graph_curvature_c4_and_petersen():
    [(value, ks)] = graph_curvature([cycle_graph(4)])
    assert value == pytest.approx(2.0, abs=1e-10)
    assert all(K == pytest.approx(2.0, abs=1e-10) for K in ks)
    [(value, ks)] = graph_curvature([petersen()])
    assert max(ks) - min(ks) < 1e-10  # vertex-transitive
    assert value == pytest.approx(-1.0, abs=1e-8)


def test_isolated_vertex_sentinel():
    g = from_edge_list(1, [])
    assert graph_curvature([g]) == [(math.inf, (math.inf,))]
    assert bakry_emery_curvature_bisect(g, 0, math.inf) == math.inf


KERNEL_GRAPHS = [g for _, g in connected_graphs_upto(6)] + [
    from_edge_list(1, []),
    from_edge_list(4, [(0, 1), (1, 2)]),  # vertex 3 is isolated
    hypercube(7),  # 128 centres of degree 7: two batches
]


@pytest.mark.parametrize("batch", [curvature._BATCH_ENTRIES, 1])
def test_graph_curvature_bitwise_equals_per_vertex_path(corpus, monkeypatch, batch):
    # the kernel on the whole graph gives the kernel on each 2-ball's K bit
    # for bit, also when every centre is a batch of its own
    monkeypatch.setattr(curvature, "_BATCH_ENTRIES", batch)
    for g in KERNEL_GRAPHS + [g for _, g in sorted(corpus.items())]:
        for N in (math.inf, 3.0):
            [(kmin, ks)] = graph_curvature([g], N)
            ref = tuple(bakry_emery_curvature(g, x, N).K for x in range(g.n))
            assert ks == ref, (g.adjacency, N)
            assert np.array(ks).tobytes() == np.array(ref).tobytes()  # signed zeros too
            assert kmin == min(ref)


@pytest.mark.parametrize("batch", [curvature._BATCH_ENTRIES, 1])
def test_graph_curvature_on_a_list_bitwise_equals_per_vertex_path(corpus, monkeypatch, batch):
    # one call on graphs of mixed orders, padded to the largest, gives each
    # graph's vertices the kernel on their 2-balls' K bit for bit: a graph
    # with an isolated vertex, a disconnected graph and one larger than a
    # scan's chunk among them
    big = hypercube(9)
    assert big.n > theorems._CHUNK_VERTICES
    graphs = [g for _, g in connected_graphs_upto(5)] + [
        from_edge_list(4, [(0, 1), (1, 2)]),
        from_edge_list(4, [(0, 1), (2, 3)]),
        big,
        from_edge_list(1, []),
    ]
    graphs += [g for _, g in sorted(corpus.items())]
    monkeypatch.setattr(curvature, "_BATCH_ENTRIES", batch)
    for N in (math.inf, 3.0):
        result = graph_curvature(graphs, N)
        assert len(result) == len(graphs)
        for g, (kmin, ks) in zip(graphs, result):
            ref = tuple(bakry_emery_curvature(g, x, N).K for x in range(g.n))
            assert np.array(ks).tobytes() == np.array(ref).tobytes(), (g.adjacency, N)
            assert np.array(kmin).tobytes() == np.array(min(ref)).tobytes()


def _graph_kernel_forms(graphs, N):
    """The kernel's reduced forms of all non-isolated vertices of the graphs,
    keyed by (graph index, vertex) and stacked by degree over all the graphs
    as `graph_curvature` stacks them."""
    adj = curvature._adjacency(graphs)
    deg = adj.sum(2)
    forms = {}
    for k in set(deg.ravel().tolist()) - {0}:
        gs, xs = np.nonzero(deg == k)
        stack = curvature._graph_reduced_forms(adj, deg, gs, xs, N)
        forms.update(zip(zip(gs.tolist(), xs.tolist()), stack))
    return forms


def test_kernel_reduced_forms_bitwise_equal_reference_route(corpus, monkeypatch):
    # the kernel's reduced form, over all the graphs at once and as
    # bakry_emery_curvature hands it to the eigensolver from the 2-ball, is
    # byte for byte the reference route's: curvature_form, 1/N subtracted
    # from sphere 1, then schur_reduce
    solved = []
    monkeypatch.setattr(curvature, "min_eigenpair", lambda m: solved.append(m) or min_eigenpair(m))

    def ball_form(o, x, N):
        solved.clear()
        bakry_emery_curvature(o, x, N)
        [form] = solved
        return form

    graphs = [g for _, g in connected_graphs_upto(6) if g.n > 1] + [hypercube(7)]
    graphs += [g for _, g in sorted(corpus.items())]
    pairs = 0
    for N in (math.inf, 3.0):
        whole = _graph_kernel_forms(graphs, N)
        for (i, x), stacked in whole.items():
            g = graphs[i]
            ref = curvature._reference_reduced_form(g, x, N)
            for form in (stacked, ball_form(g, x, N)):
                assert form.shape == ref.shape, (g.adjacency, x, N)
                assert form.tobytes() == ref.tobytes(), (g.adjacency, x, N)
            pairs += 1
        o = line_times_complete(3)
        ref = curvature._reference_reduced_form(o, (0, 0), N)
        assert ball_form(o, (0, 0), N).tobytes() == ref.tobytes()
    assert pairs == 2 * 1274  # every vertex of every graph, at both N


@pytest.mark.parametrize("N", [0.0, -1.0, math.nan])
def test_graph_curvature_rejects_nonpositive_dimension(N):
    with pytest.raises(FormError):
        graph_curvature([petersen()], N)


def test_empty_graph_rejected():
    with pytest.raises(Exception):
        graph_curvature([from_edge_list(0, [])])


# centres on infinite families, whose witnesses live on an oracle's 2-ball
ORACLE_CENTRES = [(integer_line(), x) for x in (0, -7)] + [
    (line_times_complete(k), x) for k in range(1, 5) for x in ((0, 0), (3, k - 1))
]


def test_witness_properties(corpus):
    cases = [
        (corpus[name], x)
        for name in ["C4", "C5", "petersen", "Q3", "T5", "K5"]
        for x in range(corpus[name].n)
    ]
    for o, x in cases + ORACLE_CENTRES:
        rep = bakry_emery_curvature(o, x)
        _, bmap = ball(o, x)
        assert set(rep.witness) == set(bmap.vertices)
        assert any(abs(t) > 1e-9 for t in rep.witness.values())
        # witness attains the curvature: Gamma_2 = K Gamma exactly
        lhs, rhs = ph_sides(o, rep.witness, x, rep.K)
        assert lhs - rhs == pytest.approx(0.0, abs=1e-9)


def test_duality_at_every_corpus_vertex(corpus):
    cases = [(g, x) for _, g in sorted(corpus.items()) for x in range(g.n)]
    for o, x in cases + ORACLE_CENTRES:
        rep = bakry_emery_curvature(o, x)
        holds, _ = check_cd(o, x, math.inf, rep.K - 1e-6)
        assert holds, (o, x)
        holds, witness = check_cd(o, x, math.inf, rep.K + 1e-6)
        assert not holds, (o, x)
        lhs, rhs = ph_sides(o, witness, x, rep.K + 1e-6)
        assert lhs < rhs, (o, x)


def test_check_cd_far_below_curvature():
    holds, _ = check_cd(petersen(), 0, math.inf, -1e6)
    assert holds


def test_check_cd_modes_agree():
    # the eigen decision of check_cd agrees with a Cholesky test of the
    # reference route's Q_eff - (K/2 - tol/2) I, which uses no eigensolver
    rng = random.Random(9)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 8), 0.5)
        x = rng.randrange(g.n)
        if not g.adjacency[x]:
            continue
        K = rng.uniform(-4, 4)
        eig, _ = check_cd(g, x, math.inf, K)
        m = curvature._reference_reduced_form(g, x, math.inf)
        bis = curvature._is_psd(m - (K / 2.0 - 1e-9 / 2.0) * np.eye(len(m)))
        assert eig == bis, (g.adjacency, x, K)


def test_bisection_matches_eigensolver(corpus):
    for name, g in sorted(corpus.items()):
        for x in range(g.n):
            for N in (math.inf, 3.0):
                direct = bakry_emery_curvature(g, x, N).K
                bisected = bakry_emery_curvature_bisect(g, x, N)
                assert abs(direct - bisected) <= 1e-7, (name, x, N)


@pytest.mark.parametrize("N", [1e-320, 5e-324, 1e-308])
def test_tiny_dimension_overflow_raises_on_every_route(N):
    # 1/N, and K about -2 deg(x) / N with it, overflows the floats; the
    # routes returned NaN (and the bisection looped) instead of an error
    g = cycle_graph(3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (
            lambda: graph_curvature([g], N),
            lambda: bakry_emery_curvature(g, 0, N),
            lambda: bakry_emery_curvature_bisect(g, 0, N),
        ):
            with pytest.raises(FormError, match=f"N = {N} is too small"):
                route()


@pytest.mark.parametrize("N", [1e-300, 1e-10])
def test_huge_curvature_bisection_stops_at_the_float_spacing(N):
    # |K| is so large that no two floats within BISECT_TOL bracket it
    g = cycle_graph(3)
    [(kmin, _)] = graph_curvature([g], N)
    assert math.isfinite(kmin) and kmin < -1e9
    assert bakry_emery_curvature(g, 0, N).K == kmin
    assert bakry_emery_curvature_bisect(g, 0, N) == pytest.approx(kmin, rel=1e-12)


def test_monotone_in_dimension():
    rng = random.Random(14)
    for _ in range(20):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        x = rng.randrange(g.n)
        if not g.adjacency[x]:
            continue
        dims = sorted(rng.uniform(0.5, 50) for _ in range(3)) + [math.inf]
        ks = [bakry_emery_curvature(g, x, N).K for N in dims]
        assert all(a <= b + 1e-9 for a, b in zip(ks, ks[1:])), (dims, ks)


def test_finite_dimension_k2():
    # on K2 the reduced form is 1x1 with Gamma_2 = 1, Delta f = f(y), so
    # CD(N, K) caps K at 2 (1 - 1/N)
    g = from_edge_list(2, [(0, 1)])
    for N in [1.0, 2.0, 4.0, 10.0]:
        rep = bakry_emery_curvature(g, 0, N)
        assert rep.K == pytest.approx(2.0 * (1.0 - 1.0 / N), abs=1e-10)


def test_locality_second_sphere_edges_irrelevant():
    rng = random.Random(23)
    for _ in range(30):
        g = random_graph(rng, rng.randint(3, 10), 0.4)
        x = rng.randrange(g.n)
        if not g.adjacency[x]:
            continue
        whole = bakry_emery_curvature(g, x).K
        adj, bmap = ball(g, x)
        bg = induced_subgraph(g, bmap.vertices)
        assert np.array_equal(adj, curvature._adjacency([bg])[0])
        local = bakry_emery_curvature(bg, 0).K
        assert whole == pytest.approx(local, abs=1e-9)
        # adding or removing sphere-2 internal edges changes nothing
        s2 = [i for i, s in enumerate(bmap.sphere) if s == 2]
        if len(s2) >= 2:
            u, v = s2[0], s2[1]
            edges = set(bg.edges()) ^ {(min(u, v), max(u, v))}
            modified = from_edge_list(bg.n, sorted(edges))
            assert bakry_emery_curvature(modified, 0).K == pytest.approx(
                whole, abs=1e-9
            )
