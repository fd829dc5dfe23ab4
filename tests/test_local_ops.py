import random

import pytest

from curvlab.graph import ball, from_edge_list
from curvlab.generators import cycle_graph, integer_line
from curvlab.local_ops import gamma2_at, gamma_at, laplacian_at, ph_sides
from conftest import random_graph


def fn_on_ball(g, x, values=None, rng=None):
    """A function on the 2-ball of x: given values, or random in [-2, 2]."""
    _, bmap = ball(g, x)
    if values is not None:
        return {v: values[i] for i, v in enumerate(bmap.vertices)}, bmap
    return {v: rng.uniform(-2, 2) for v in bmap.vertices}, bmap


def test_laplacian_k2():
    g = from_edge_list(2, [(0, 1)])
    assert laplacian_at(g, {0: 0.0, 1: 1.0}, 0) == 1.0


def test_laplacian_of_constant_vanishes():
    g = cycle_graph(5)
    f = {v: 3.7 for v in range(5)}
    assert laplacian_at(g, f, 2) == 0.0


def test_laplacian_indicator_neighbor():
    g = cycle_graph(4)
    f = {0: 0.0, 1: 1.0, 3: 0.0}
    assert laplacian_at(g, f, 0) == 1.0


def test_gamma_k2():
    g = from_edge_list(2, [(0, 1)])
    f = {0: 0.0, 1: 1.0}
    assert gamma_at(g, f, f, 0) == 0.5


def test_gamma_constant_is_zero():
    g = cycle_graph(6)
    f = {v: -1.25 for v in range(6)}
    h = {v: float(v) for v in range(6)}
    assert gamma_at(g, f, h, 3) == 0.0


def test_gamma_bilinear():
    rng = random.Random(12)
    g = random_graph(rng, 8, 0.5)
    f = {v: rng.uniform(-1, 1) for v in range(8)}
    h = {v: rng.uniform(-1, 1) for v in range(8)}
    x = 0
    assert gamma_at(g, {v: 2 * t for v, t in f.items()}, h, x) == pytest.approx(
        2 * gamma_at(g, f, h, x)
    )
    assert gamma_at(g, f, h, x) == pytest.approx(gamma_at(g, h, f, x))


def test_gamma_two_routes_agree():
    # Gamma(f)(x) = (1/2) sum (f(y) - f(x))^2
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 9), 0.5)
        x = rng.randrange(g.n)
        f = {v: rng.uniform(-3, 3) for v in range(g.n)}
        direct = 0.5 * sum((f[y] - f[x]) ** 2 for y in g.adjacency[x])
        assert gamma_at(g, f, f, x) == pytest.approx(direct, abs=1e-12)


def test_gamma2_k2():
    g = from_edge_list(2, [(0, 1)])
    f = {0: 0.0, 1: 1.0}
    assert gamma2_at(g, f, f, 0) == pytest.approx(1.0)


def test_gamma2_constant_is_zero():
    g = cycle_graph(5)
    f = {v: 2.0 for v in range(5)}
    assert gamma2_at(g, f, f, 0) == 0.0


def test_gamma2_symmetric_bilinear():
    rng = random.Random(31)
    g = random_graph(rng, 9, 0.4)
    x = 0
    f = {v: rng.uniform(-1, 1) for v in range(9)}
    h = {v: rng.uniform(-1, 1) for v in range(9)}
    w = {v: rng.uniform(-1, 1) for v in range(9)}
    assert gamma2_at(g, f, h, x) == pytest.approx(gamma2_at(g, h, f, x), abs=1e-12)
    combo = {v: 2 * f[v] + w[v] for v in range(9)}
    assert gamma2_at(g, combo, h, x) == pytest.approx(
        2 * gamma2_at(g, f, h, x) + gamma2_at(g, w, h, x), abs=1e-10
    )


def test_translation_invariance():
    rng = random.Random(77)
    for _ in range(30):
        g = random_graph(rng, rng.randint(2, 8), 0.6)
        x = rng.randrange(g.n)
        if not g.adjacency[x]:
            continue
        f = {v: rng.uniform(-2, 2) for v in range(g.n)}
        c = rng.uniform(-5, 5)
        shifted = {v: t + c for v, t in f.items()}
        assert laplacian_at(g, shifted, x) == pytest.approx(laplacian_at(g, f, x), abs=1e-12)
        assert gamma_at(g, shifted, shifted, x) == pytest.approx(
            gamma_at(g, f, f, x), abs=1e-12
        )
        assert gamma2_at(g, shifted, shifted, x) == pytest.approx(
            gamma2_at(g, f, f, x), abs=1e-12
        )


def test_two_sphere_identity():
    # Gamma_2(f)(x) = lhs + ((3 - d)/2) Gamma(f)(x) + (1/2)(Delta f(x))^2
    rng = random.Random(123)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 12), rng.choice([0.3, 0.5, 0.7]))
        x = rng.randrange(g.n)
        f = {v: rng.uniform(-2, 2) for v in range(g.n)}
        lhs, _ = ph_sides(g, f, x, 0.0)
        d = g.degree(x)
        predicted = (
            lhs
            + ((3.0 - d) / 2.0) * gamma_at(g, f, f, x)
            + 0.5 * laplacian_at(g, f, x) ** 2
        )
        actual = gamma2_at(g, f, f, x)
        assert abs(actual - predicted) <= 1e-9 * (1 + abs(actual))


def test_ph_sides_constant():
    g = cycle_graph(5)
    f = {v: 1.0 for v in range(5)}
    assert ph_sides(g, f, 0, 4.2) == (0.0, 0.0)


def test_ph_sides_k2_equality_at_curvature_two():
    g = from_edge_list(2, [(0, 1)])
    lhs, rhs = ph_sides(g, {0: 0.0, 1: 1.0}, 0, 2.0)
    assert lhs == pytest.approx(0.0) and rhs == pytest.approx(0.0)


def test_ph_sides_c5_nonnegative_at_zero():
    g = cycle_graph(5)
    f = {0: 0.0, 1: 1.0, 4: 0.0, 2: 2.0, 3: 0.0}
    lhs, rhs = ph_sides(g, f, 0, 0.0)
    assert lhs - rhs >= 0.0


def test_missing_values_raise():
    g = cycle_graph(5)
    with pytest.raises(KeyError):
        laplacian_at(g, {0: 0.0}, 0)
    with pytest.raises(KeyError):
        gamma_at(g, {0: 0.0, 1: 1.0}, {0: 0.0, 1: 1.0}, 0)
    with pytest.raises(KeyError):
        # 2-ball values are required, sphere-2 missing
        gamma2_at(g, {0: 0.0, 1: 1.0, 4: 1.0}, {0: 0.0, 1: 1.0, 4: 1.0}, 0)


def test_operators_work_on_infinite_oracle():
    # f(k) = k^2 at 0: Delta f = 2, Gamma(f) = 1, and Gamma at both
    # neighbors is 5 while Gamma(f, Delta f)(0) = 0, so Gamma_2 = 4
    o = integer_line()
    f = {k: float(k * k) for k in range(-2, 3)}
    assert laplacian_at(o, f, 0) == 2.0
    assert gamma_at(o, f, f, 0) == 1.0
    assert gamma2_at(o, f, f, 0) == pytest.approx(4.0)
