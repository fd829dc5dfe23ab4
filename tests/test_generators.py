import hashlib

import pytest

from curvlab import generators
from curvlab.generators import (
    FamilySpec,
    beta1_counterexample,
    complete_graph,
    generate,
    parse_family_spec,
)
from curvlab.curvature import bakry_emery_curvature
from curvlab.graph import (
    MAX_EDGES,
    MAX_ORDER,
    Graph,
    GraphError,
    NeighborOracle,
    ball,
    from_edge_list,
    girth,
    is_connected,
)


def test_hypercube3():
    g = generate("hypercube:3")
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in range(8))


def test_path_and_cycle():
    assert generate("path:5").m == 4
    g = generate("cycle:6")
    assert girth(g) == 6 and all(g.degree(v) == 2 for v in range(g.n))


def test_petersen_structure():
    g = generate("petersen")
    assert min(g.degree(v) for v in range(g.n)) == 3
    assert girth(g) == 5 and is_connected(g)


def test_complete_bipartite_labeling():
    g = generate("complete_bipartite:2,3")
    assert g.n == 5 and g.m == 6
    assert g.degree(0) == 3 and g.degree(2) == 2


def test_triangular_parameters():
    g = generate("triangular:5")
    assert g.n == 10
    assert all(g.degree(v) == 6 for v in range(g.n))


def test_hamming2_is_rook_graph():
    g = generate("hamming2:3")
    assert g.n == 9
    assert all(g.degree(v) == 4 for v in range(g.n))


def test_paley_13():
    g = generate("paley:13")
    assert all(g.degree(v) == 6 for v in range(13))


def test_paley_rejects_bad_parameters():
    with pytest.raises(GraphError):
        generate("paley:8")
    with pytest.raises(GraphError):
        generate("paley:7")  # prime but 3 mod 4
    with pytest.raises(GraphError, match="paley requires a prime q = 1 mod 4, got 1"):
        generate("paley:1")


def test_line_times_complete_degree():
    o = generate("zxk:3")
    assert isinstance(o, NeighborOracle)
    for v in [(0, 0), (5, 2), (-3, 1)]:
        assert len(o.neighbors(v)) == 4


def test_integer_line_oracle():
    o = generate("line")
    assert sorted(o.neighbors(0)) == [-1, 1]


@pytest.mark.parametrize(
    "spec, vertex",
    [
        ("zxk:3", (0, -1)),
        ("zxk:3", (0, 3)),
        ("zxk:3", (0, 5)),
        ("zxk:3", (0,)),
        ("zxk:3", (0, 1, 2)),
        ("zxk:3", (0.0, 1)),
        ("zxk:3", (True, 1)),
        ("zxk:3", 0),
        ("line", "-1"),
        ("line", 1.5),
        ("line", True),
        ("line", (0,)),
    ],
)
def test_oracles_reject_a_non_vertex(spec, vertex):
    # before, zxk:3 listed neighbours of (0, -1) that do not list it back and
    # raised IndexError at (0, 5); line answered for any value with a `-`
    o = generate(spec)
    for query in (ball, bakry_emery_curvature):
        with pytest.raises(GraphError, match=f"is not a vertex of {'the integer line' if spec == 'line' else spec}"):
            query(o, vertex)


def test_oracle_symmetry_sampled():
    for spec in ["line", "zxk:2", "zxk:4"]:
        o = generate(spec)
        start = 0 if spec == "line" else (0, 0)
        frontier = [start]
        seen = {start}
        for _ in range(3):
            new = []
            for v in frontier:
                for w in o.neighbors(v):
                    assert v in o.neighbors(w)
                    if w not in seen:
                        seen.add(w)
                        new.append(w)
            frontier = new


def test_beta1_counterexample_shape():
    g = beta1_counterexample()
    assert g.n == 20
    assert all(g.degree(v) == 3 for v in range(20))
    assert girth(g) == 5 and is_connected(g)


def test_cartesian_product_spec():
    g = generate("product:cycle:4+complete:2")
    assert isinstance(g, Graph)
    assert g.n == 8 and all(g.degree(v) == 3 for v in range(8))


# sha256 of repr([(spec, adjacency)]) and of zxk neighbour lists, measured
# when the products had three hand-written constructions: `product:`,
# `hamming2` and `zxk` must keep their labels and neighbour order
PRODUCT_SPECS = [f"hamming2:{q}" for q in range(2, 8)] + [
    "product:cycle:4+hypercube:3",
    "product:complete:2+hypercube:4",
    "product:complete:5+complete:5",
    "product:hamming2:3+complete:3",
    "product:hamming2:4+complete:4",
    "product:path:1+path:1",
    "product:cycle:3+complete:2",
    "product:petersen+path:3",
]


def test_product_families_pinned():
    adjacency = [(s, generate(s).adjacency) for s in PRODUCT_SPECS]
    assert hashlib.sha256(repr(adjacency).encode()).hexdigest() == (
        "f087d9207437c0c22c86a9049e26d7b6fdfc1562344c00aa0690b83883839b0a"
    )
    neighbours = [
        (k, (i, c), generate(f"zxk:{k}").neighbors((i, c)))
        for k in range(1, 5)
        for i in (-3, 0, 5)
        for c in range(k)
    ]
    assert hashlib.sha256(repr(neighbours).encode()).hexdigest() == (
        "acd48bf5028ee7cfdf7830d958b86d34a0d0c59eeb25f97b9f9f88ee52da22c1"
    )


def test_nested_product_object():
    spec = FamilySpec(
        "cartesian_product",
        (FamilySpec("path", (2,)), FamilySpec("path", (2,))),
    )
    g = generate(spec)
    assert girth(g) == 4  # P2 x P2 = C4


def test_spec_parsing_errors():
    with pytest.raises(GraphError):
        parse_family_spec("nonsense:3")
    with pytest.raises(GraphError):
        parse_family_spec("hypercube")  # missing parameter
    with pytest.raises(GraphError):
        parse_family_spec("hypercube:0")
    with pytest.raises(GraphError):
        parse_family_spec("hypercube:a")
    for text in ("hypercube:+3", "hypercube:1_0", "hypercube:\uff13", "paley: 13"):
        with pytest.raises(GraphError, match="bad parameters"):
            parse_family_spec(text)  # int() reads each parameter
    with pytest.raises(GraphError):
        parse_family_spec("petersen:3")  # takes no parameters
    with pytest.raises(GraphError, match="unknown graph family 'cartesian_product'"):
        parse_family_spec("cartesian_product:1,2")  # products are spelled product:A+B


def test_product_of_infinite_rejected():
    with pytest.raises(GraphError):
        generate(
            FamilySpec(
                "cartesian_product",
                (FamilySpec("integer_line"), FamilySpec("complete", (3,))),
            )
        )


@pytest.mark.parametrize(
    "spec, message",
    [
        (FamilySpec("path", ()), "family 'path' takes 1 parameter(s), got 0"),
        (FamilySpec("petersen", (3,)), "family 'petersen' takes 0 parameter(s), got 1"),
        (
            FamilySpec("complete_bipartite", (3,)),
            "family 'complete_bipartite' takes 2 parameter(s), got 1",
        ),
        (FamilySpec("cartesian_product", (1, 2)), "cartesian_product takes two factor FamilySpecs"),
        (
            FamilySpec("cartesian_product", (FamilySpec("path", (2,)),)),
            "cartesian_product takes two factor FamilySpecs",
        ),
        (FamilySpec("nonsense", (3,)), "unknown family kind 'nonsense'"),
    ],
)
def test_generate_checks_a_spec_it_is_handed(spec, message):
    # a FamilySpec built directly skips parse_family_spec; generate checks it
    with pytest.raises(GraphError) as err:
        generate(spec)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "spec",
    [
        "cycle:262145",
        "hypercube:19",
        "hypercube:100000000000000",
        "triangular:726",
        "hamming2:513",
        "kbip:1,262144",
        "paley:1000000000000000037",
        "zxk:262145",
        "product:path:513+path:512",
    ],
)
def test_generate_refuses_a_spec_above_the_maximum_order(spec):
    # the order is read off the spec (or a product's factors), so nothing of
    # the size of the graph is built, and a prime test never runs
    with pytest.raises(GraphError, match=f"maximum order MAX_ORDER = {MAX_ORDER}"):
        generate(spec)


@pytest.mark.parametrize(
    "spec",
    [
        "path:7", "cycle:9", "complete:6", "kbip:3,5", "hypercube:5", "petersen",
        "triangular:6", "hamming2:4", "paley:13", "beta1", "product:cycle:5+complete:3",
        "product:hypercube:2+product:path:3+petersen",
    ],
)
def test_size_read_off_a_spec_is_the_built_graphs(spec):
    g = generate(spec)
    assert generators._size(parse_family_spec(spec)) == (g.n, g.m)


def test_size_of_an_infinite_family_is_what_it_builds():
    assert generators._size(parse_family_spec("line")) == (0, 0)
    assert generators._size(parse_family_spec("zxk:7")) == (7, complete_graph(7).m)


@pytest.mark.parametrize(
    "spec",
    ["complete:2897", "kbip:2048,2049", "hamming2:500", "zxk:200000", "product:complete:1024+complete:9"],
)
def test_generate_refuses_a_spec_above_the_maximum_size(spec):
    with pytest.raises(GraphError, match=f"maximum size MAX_EDGES = {MAX_EDGES}"):
        generate(spec)


def test_maximum_size_admits_the_largest_hypercube():
    assert MAX_EDGES == 4194304
    assert generators._size(parse_family_spec("hypercube:18")) == (MAX_ORDER, 2359296)
    assert generators._size(parse_family_spec("kbip:2048,2048")) == (4096, MAX_EDGES)


def test_maximum_order_is_the_largest_accepted():
    assert MAX_ORDER == 262144 and from_edge_list(MAX_ORDER, ()).n == MAX_ORDER
    with pytest.raises(GraphError, match=f"graph order {MAX_ORDER + 1} is above"):
        from_edge_list(MAX_ORDER + 1, ())
    assert generate(f"kbip:1,{MAX_ORDER - 1}").n == MAX_ORDER
