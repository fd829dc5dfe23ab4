import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from curvlab import formats
from curvlab.enumeration import all_graphs
from curvlab.formats import (
    FormatError,
    _decode_size,
    _encode_size,
    iter_graph6_file,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from curvlab.generators import complete_graph, petersen
from curvlab.graph import from_edge_list
from conftest import random_graph


def reference_decode(line: str):
    """Independent bit-level graph6 decoder used as an oracle.

    Decodes the size prefix and the column-major upper-triangle bit vector
    with explicit integer arithmetic, sharing no code with the package.
    """
    vals = [ord(c) - 63 for c in line.strip()]
    assert all(0 <= v <= 63 for v in vals)
    if vals[0] != 63:
        n, vals = vals[0], vals[1:]
    elif vals[1] != 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        vals = vals[4:]
    else:
        n = 0
        for v in vals[2:8]:
            n = (n << 6) | v
        vals = vals[8:]
    bitstring = "".join(format(v, "06b") for v in vals)
    edges = []
    k = 0
    for col in range(1, n):
        for row in range(col):
            if bitstring[k] == "1":
                edges.append((row, col))
            k += 1
    return n, edges


def test_k4_is_c_tilde():
    g = parse_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert write_graph6(complete_graph(4)) == "C~"


def test_c4_is_cl():
    g = parse_graph6("Cl")
    assert g == from_edge_list(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert write_graph6(g) == "Cl"


def test_single_vertex_and_empty():
    assert parse_graph6("@").n == 1
    assert parse_graph6("?").n == 0
    assert write_graph6(from_edge_list(0, [])) == "?"
    assert write_graph6(from_edge_list(1, [])) == "@"


def test_header_ignored():
    assert parse_graph6(">>graph6<<C~") == complete_graph(4)
    assert parse_graph6(">>sparse6<<:Bc") == parse_graph6(":Bc")


@pytest.mark.parametrize(
    "line, message",
    [
        (">>graph6<<:Bc", "header >>graph6<< is not followed by a graph6 payload"),
        (">>sparse6<<Bw", "header >>sparse6<< is not followed by a sparse6 payload"),
        (">>graph6<<>>sparse6<<:Bc", "header >>graph6<< is not followed by a graph6 payload"),
        (">>sparse6<<>>graph6<<Bw", "header >>sparse6<< is not followed by a sparse6 payload"),
        (">>graph6<<>>graph6<<Bw", "header >>graph6<< is not followed by a graph6 payload"),
        (">>sparse6<<>>sparse6<<:Bc", "header >>sparse6<< is not followed by a sparse6 payload"),
        (">>sparse6<<", "header >>sparse6<< is not followed by a sparse6 payload"),
    ],
)
def test_header_must_match_its_payload_and_appear_once(line, message):
    # each of these parsed, the header read past or dropped
    with pytest.raises(FormatError, match=message):
        parse_graph6(line)


@pytest.mark.parametrize("line", ["3 3", "0 1", "9", "12 4 "])
def test_edge_list_text_is_named(line):
    # no graph6 or sparse6 line starts with an ASCII digit; these were read
    # as a bad size prefix ("bad byte 51")
    with pytest.raises(FormatError, match="a line that starts with a digit is edge-list text"):
        parse_graph6(line)
    with pytest.raises(FormatError, match="line 2: a line that starts with a digit"):
        iter_graph6_file(["Bw", line])


def test_petersen_roundtrip():
    p = petersen()
    assert parse_graph6(write_graph6(p)) == p


def test_reference_decoder_agrees():
    rng = random.Random(17)
    for _ in range(200):
        g = random_graph(rng, rng.randint(0, 12), rng.random())
        line = write_graph6(g)
        n, edges = reference_decode(line)
        assert n == g.n
        assert from_edge_list(n, edges) == g


@settings(max_examples=200)
@given(st.integers(0, 15), st.integers(0, 2**105 - 1))
def test_roundtrip_random(n, mask):
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = [p for i, p in enumerate(pairs) if (mask >> i) & 1]
    g = from_edge_list(n, edges)
    line = write_graph6(g)
    assert parse_graph6(line) == g
    assert write_graph6(parse_graph6(line)) == line


def test_large_n_prefix_roundtrip():
    g = from_edge_list(100, [(0, 99)])
    assert parse_graph6(write_graph6(g)) == g


def test_sparse6_documented_example():
    # ":Fa@x^" encodes 7 vertices with edges 0-1, 0-2, 1-2, 5-6
    g = parse_graph6(":Fa@x^")
    assert g.n == 7
    assert g.edges() == [(0, 1), (0, 2), (1, 2), (5, 6)]


# networkx.to_sparse6_bytes of a MultiGraph on 4 vertices with the edge 0-1
# twice, alone and followed by the path 1-2-3; merging the pair would read
# them as a graph with one edge fewer
@pytest.mark.parametrize("line", [":C_", ":C_m"])
def test_sparse6_rejects_parallel_edges(line):
    with pytest.raises(FormatError) as err:
        parse_graph6(line)
    assert str(err.value) == "parallel edge (0, 1) in sparse6 line"


def test_sparse6_rejects_data_after_the_edge_stream():
    # n = 5: the edge 0-1, then x = 7 >= n ends the stream, but the records
    # of the edges 1-2 and 0-2 follow; only the 1-bits that pad the last
    # byte may come after the end
    with pytest.raises(FormatError) as err:
        parse_graph6(":DCFGO")
    assert str(err.value) == "sparse6 data after the end of the edge stream at bit 8"


def test_sparse6_reads_every_networkx_line():
    # networkx pads the last byte with 1-bits, after a 0-bit when n is 2, 4,
    # 8 or 16, vertex n-2 has an edge and n-1 has none; the paths below are
    # such graphs, and n = 63, 64 and 65 change the size prefix and k
    rng = random.Random(6)
    graphs = [(n, g.edges()) for n in range(1, 7) for g in all_graphs(n)]
    for n in (2, 4, 8, 16, 32, 63, 64, 65):
        for _ in range(40):
            p = rng.random()
            graphs.append((n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
        graphs.append((n, [(v, v + 1) for v in range(n - 2)]))
    for n, edges in graphs:
        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(edges)
        line = nx.to_sparse6_bytes(nxg, header=False).decode("ascii").strip()
        g = parse_graph6(line)
        assert (g.n, g.edges()) == (n, sorted(edges)), line


def test_malformed_inputs():
    with pytest.raises(FormatError):
        parse_graph6("")
    with pytest.raises(FormatError):
        parse_graph6("C")  # truncated payload
    with pytest.raises(FormatError):
        parse_graph6("C" + chr(30))  # non-printable byte
    with pytest.raises(FormatError):
        parse_graph6("D?A")  # nonzero padding bits for n=5


@pytest.mark.parametrize("n", [0, 62, 63, 258047, 258048, 2**36 - 1])
def test_size_prefix_roundtrip_at_the_form_boundaries(n):
    assert _decode_size(_encode_size(n), 0)[0] == n


@pytest.mark.parametrize("n", [-1, 2**36])
def test_size_prefix_rejects_counts_outside_the_format(n):
    with pytest.raises(FormatError, match=f"vertex count {n} outside format range"):
        _encode_size(n)


def test_sparse6_reads_the_eight_byte_size_prefix():
    # the first order past the 4-byte prefix, with one edge to its last vertex
    n = 258048
    nxg = nx.Graph()
    nxg.add_nodes_from(range(n))
    nxg.add_edge(0, n - 1)
    line = nx.to_sparse6_bytes(nxg, header=False).decode("ascii").strip()
    assert line.startswith(":~~")
    g = parse_graph6(line)
    assert (g.n, g.edges()) == (n, [(0, n - 1)])


def test_trailing_bits_checked():
    # K2 is "A_" (bits 10 0000); flipping a padding bit must fail
    assert parse_graph6("A_").m == 1
    with pytest.raises(FormatError):
        parse_graph6("A`")


def test_file_iteration_reports_line_numbers():
    lines = ["C~", "Cl", "", "notvalid###"]
    with pytest.raises(FormatError) as err:
        iter_graph6_file(lines)
    assert "line 4" in str(err.value)
    good = iter_graph6_file(["C~", "", "Cl"])
    assert [lineno for lineno, _ in good] == [1, 3]


def test_edge_list_roundtrip():
    g = petersen()
    text = write_edge_list(g)
    assert parse_edge_list(text) == g
    assert text.splitlines()[0] == "10 15"


def test_edge_list_malformed():
    with pytest.raises(FormatError):
        parse_edge_list("3")
    with pytest.raises(FormatError):
        parse_edge_list("3 2\n0 1")
    with pytest.raises(FormatError):
        parse_edge_list("3 one\n0 1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 -1", "edge count must be non-negative, got -1"),
        ("3 1\n0 1 2", "odd number of endpoint tokens (3); each edge needs two"),
        ("3 2\n0 1", "expected 2 edges, found 1"),
        ("3 one\n0 1", "line 1: non-integer token 'one' in edge list"),
        ("3 1\n\n0 1.5", "line 3: non-integer token '1.5' in edge list"),
        # a non-ASCII byte as a file read with errors="surrogateescape" holds it
        (
            b"3 1\n0 \xff\n".decode("ascii", "surrogateescape"),
            r"line 2: non-integer token '\xff' in edge list",
        ),
        ("3 1\n0 \u00e9", r"line 2: non-integer token '\xc3\xa9' in edge list"),
        # int() reads each of these; an integer is -?[0-9]+ in ASCII
        ("3 1\n0 +1", "line 2: non-integer token '+1' in edge list"),
        ("3 1\n0 1_0", "line 2: non-integer token '1_0' in edge list"),
        ("3 1\n0 \uff13", r"line 2: non-integer token '\xef\xbc\x93' in edge list"),
        # a repeated edge would be merged and the graph read with fewer edges
        ("3 2\n0 1\n1 0\n", "line 3: edge (1, 0) repeats line 2"),
        ("4 3\n0 1 2 3\n\n3 2\n", "line 4: edge (3, 2) repeats line 2"),
    ],
)
def test_edge_list_errors_name_the_fault(text, message):
    with pytest.raises(FormatError) as err:
        parse_edge_list(text)
    assert str(err.value) == message


def test_edge_counts_above_max_edges_are_refused(monkeypatch):
    # the bound at a small MAX_EDGES: K_5 has 10 edges, which a graph6 line,
    # a sparse6 line and an edge-list header each name
    k5 = complete_graph(5)
    lines = (
        (parse_graph6, write_graph6(k5)),
        (parse_graph6, nx.to_sparse6_bytes(nx.complete_graph(5), header=False).decode().strip()),
        (parse_edge_list, write_edge_list(k5)),
    )
    monkeypatch.setattr(formats, "MAX_EDGES", 9)
    for parse, text in lines:
        with pytest.raises(FormatError, match="names 10 edges, more than the maximum size MAX_EDGES = 9"):
            parse(text)
    monkeypatch.setattr(formats, "MAX_EDGES", 10)
    assert all(parse(text).edges() == k5.edges() for parse, text in lines)


def test_graph6_edge_count_is_refused_before_the_pairs_are_read():
    # K_2898: order 2898 is "~?lQ", then 4,197,753 one-bits in 699,626
    # bytes; reading the payload as six list entries a byte peaked at 35 MiB
    line = "~?lQ" + "~" * 699_625 + "w"
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="names 4197753 edges, more than the maximum size"):
            parse_graph6(line)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(line)


@pytest.mark.parametrize(
    "line, message",
    [
        ("A`", "nonzero padding bits in graph6 payload"),
        ("Ba", "nonzero padding bits in graph6 payload"),
        ("B!_", "non-printable byte 33 in payload"),
        ("C~\x7f", "non-printable byte 127 in payload"),
        ("C", "graph6 payload has 0 bits, expected 6 (+<6 padding)"),
        ("A__", "graph6 payload has 12 bits, expected 1 (+<6 padding)"),
    ],
)
def test_graph6_payload_faults_are_named(line, message):
    with pytest.raises(FormatError) as err:
        parse_graph6(line)
    assert str(err.value) == message
