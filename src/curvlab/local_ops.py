"""Pointwise graph Laplacian, gradient form, and iterated gradient form.

Vertex functions are plain dicts from vertex identifier to float.  Lookups
outside the declared domain raise KeyError on purpose: a silent zero
default would mask wrong ball radii, and the operators are only defined
where the needed values exist.
"""

from __future__ import annotations

from typing import Hashable, Mapping

from .graph import Graph, NeighborOracle, ball

VertexFunction = Mapping[Hashable, float]


def laplacian_at(o: Graph | NeighborOracle, f: VertexFunction, x: Hashable) -> float:
    """Sum of f(y) - f(x) over neighbors y of x."""
    fx = f[x]
    return sum(f[y] - fx for y in o.neighbors(x))


def gamma_at(
    o: Graph | NeighborOracle, f: VertexFunction, g: VertexFunction, x: Hashable
) -> float:
    """Carre du champ: (1/2) sum over y ~ x of (f(y)-f(x)) (g(y)-g(x))."""
    fx, gx = f[x], g[x]
    return 0.5 * sum((f[y] - fx) * (g[y] - gx) for y in o.neighbors(x))


def gamma2_at(
    o: Graph | NeighborOracle, f: VertexFunction, g: VertexFunction, x: Hashable
) -> float:
    """Iterated form (1/2)(Delta Gamma(f,g) - Gamma(Delta f, g) - Gamma(f, Delta g)) at x.

    Evaluated by composing the definitions directly; needs f and g on the
    full 2-ball of x (Gamma at a neighbor reads that neighbor's neighbors).
    """
    gamma_x = gamma_at(o, f, g, x)
    delta_gamma = sum(gamma_at(o, f, g, y) - gamma_x for y in o.neighbors(x))

    # Delta f and Delta g as functions on {x} union N1(x)
    df = {y: laplacian_at(o, f, y) for y in (x, *o.neighbors(x))}
    dg = {y: laplacian_at(o, g, y) for y in (x, *o.neighbors(x))}
    return 0.5 * (delta_gamma - gamma_at(o, df, g, x) - gamma_at(o, f, dg, x))


def ph_sides(
    o: Graph | NeighborOracle, f: VertexFunction, x: Hashable, K: float
) -> tuple[float, float]:
    """Both sides of the pointwise two-sphere inequality equivalent to CD(inf, K).

    lhs sums, over sphere-2 vertices z and their sphere-1 neighbors y,
    (1/4)(f(z)-f(y))^2 - (1/2)(f(z)-f(y))(f(y)-f(x)), plus (f(y)-f(y'))^2
    over edges inside sphere 1.  rhs is ((2K + d(x) - 3)/2) Gamma(f)(x)
    - (1/2)(Delta f(x))^2.  CD(inf, K) holds at x iff lhs >= rhs for all f.
    """
    _, bmap = ball(o, x)
    n1 = bmap.sphere_vertices(1)
    n2 = bmap.sphere_vertices(2)
    n1_set = set(n1)
    fx = f[x]

    lhs = 0.0
    for z in n2:
        fz = f[z]
        for y in o.neighbors(z):
            if y in n1_set:
                fy = f[y]
                lhs += 0.25 * (fz - fy) ** 2 - 0.5 * (fz - fy) * (fy - fx)
    for y in n1:
        fy = f[y]
        for yp in o.neighbors(y):
            if yp in n1_set and y < yp:
                lhs += (fy - f[yp]) ** 2

    d = len(n1)
    rhs = ((2.0 * K + d - 3.0) / 2.0) * gamma_at(o, f, f, x)
    rhs -= 0.5 * laplacian_at(o, f, x) ** 2
    return lhs, rhs
