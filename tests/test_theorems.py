import gc
import itertools
from collections import Counter

import numpy as np
import pytest

from curvlab import curvature, cuts, graph, regularity, theorems
from curvlab.enumeration import connected_graphs_upto
from curvlab.formats import FormatError, parse_graph6, write_graph6
from curvlab.generators import (
    cycle_graph,
    hypercube,
    path_graph,
    petersen,
)
from curvlab.graph import GraphError, from_edge_list
from curvlab.theorems import (
    THEOREM_IDS,
    beta1_search,
    check_theorem,
    conjecture_scan,
    scan,
)
from curvlab.reports import render
from conftest import scan_pairs


def scanned(text, theorem_ids=THEOREM_IDS):
    """The number of graphs a scan of a corpus (in its CLI form) yields, and
    all their verdicts in order."""
    pairs = scan_pairs(theorems.corpus(text), theorem_ids)
    return len(pairs), [v for _, verdicts in pairs for v in verdicts]


def clean(verdicts):
    return not any(v.violated for v in verdicts)


def test_quadrangle_t14():
    v = check_theorem(cycle_graph(4), "T1.4", "C4")
    assert v.applicable and v.holds
    assert v.evidence["quadrangle"] is True
    assert v.evidence["lambda"] == 2


def test_hypercube_t11():
    v = check_theorem(hypercube(4), "T1.1", "Q4")
    assert v.applicable and v.holds
    assert v.evidence["matching"].is_perfect


def test_petersen_t14_inapplicable():
    v = check_theorem(petersen(), "T1.4", "petersen")
    assert not v.applicable and v.holds is None


def test_t13_on_path():
    # P3 has nonnegative curvature and lambda = 1 = delta
    v = check_theorem(path_graph(3), "T1.3", "P3")
    assert v.applicable and v.holds


def test_t12_applicability():
    v = check_theorem(petersen(), "T1.2", "petersen")
    assert v.applicable and v.holds  # 3-regular, even order, lambda = 3 >= 2
    v = check_theorem(cycle_graph(5), "T1.2", "C5")
    assert not v.applicable  # odd order


def test_bridged_cubic_graph_is_outside_t11_t12_t13():
    # cubic on 10 vertices with a bridge: two K4s, each with one edge
    # subdivided, the two subdivision vertices joined
    g = parse_graph6("I^o??KFB_")
    assert g.n == 10 and all(g.degree(v) == 3 for v in range(10))
    v = check_theorem(g, "T1.2", "bridged")
    assert not v.applicable and v.holds is None
    assert v.evidence == {"lambda": 1, "d": 3, "reason": "not (d-1)-edge-connected"}
    for tid in ("T1.1", "T1.3"):
        v = check_theorem(g, tid, "bridged")
        assert not v.applicable and v.holds is None, tid
        assert v.evidence == {"K": -1.0000000000000002, "reason": "negative curvature"}, tid


def test_c16_on_even_amply_graphs():
    v = check_theorem(hypercube(3), "C1.6", "Q3")
    assert v.applicable and v.holds
    v = check_theorem(petersen(), "C1.6", "petersen")
    assert not v.applicable  # beta = 1


def test_disconnected_inapplicable():
    g = from_edge_list(4, [(0, 1), (2, 3)])
    for tid in THEOREM_IDS:
        v = check_theorem(g, tid, "2K2")
        assert not v.applicable


def test_unknown_id_rejected():
    with pytest.raises(GraphError):
        check_theorem(cycle_graph(4), "T9.9")


def test_evidence_reverifies(corpus):
    for name, g in sorted(corpus.items()):
        for tid in THEOREM_IDS:
            v = check_theorem(g, tid, name)
            cut = v.evidence.get("cut")
            if cut is not None:
                assert cut.verify(g), (name, tid)
            matching = v.evidence.get("matching")
            if matching is not None:
                assert matching.verify(g), (name, tid)
            assert not v.violated, (name, tid, v.evidence)


def test_scan_generator_corpus_clean():
    total, verdicts = scanned(
        "gen:cycle:4;kbip:3,3;hypercube:3;hypercube:4;triangular:5;hamming2:3;paley:13;petersen"
    )
    assert total == 8
    assert clean(verdicts)
    assert len(verdicts) == 8 * len(THEOREM_IDS)


def test_scan_exhaustive_small_clean():
    total, verdicts = scanned("exhaustive:6", ("T1.3", "T1.1"))
    assert total == 1 + 1 + 2 + 6 + 21 + 112
    assert clean(verdicts)


def test_scan_deterministic_across_runs():
    text = "gen:petersen;hypercube:3;cycle:4;paley:13"
    out = [render(scanned(text, ("T1.3", "T2.5", "T1.4"))[1]) for _ in range(2)]
    assert out[0] == out[1]


SHARED_FACTS_SOURCES = ("exhaustive:6", "gen:petersen;hypercube:4;paley:13;cycle:4;hamming2:3")


@pytest.mark.parametrize("text", SHARED_FACTS_SOURCES)
def test_scan_shared_facts_match_checkers_alone(text):
    # every checker run on its own computes its own facts; the report must
    # not change when a scan shares one GraphFacts between the checkers
    _, verdicts = scanned(text)
    graphs = theorems.corpus(text)
    alone = [check_theorem(g, tid, gid) for gid, g in graphs for tid in THEOREM_IDS]
    assert render(verdicts) == render(alone)


def test_scan_computes_each_fact_once_per_graph(cpus, monkeypatch):
    cpus(1)
    names = ("graph_curvature", "edge_connectivity", "maximum_matching", "detect_regularity")
    # (function name, graph), one entry for each graph in a kernel call's
    # list; holding the graphs keeps their ids distinct
    calls = []
    # bcn_check and classify_min_cuts resolve detect_regularity and
    # edge_connectivity in their own modules
    own = [(regularity, "detect_regularity"), (cuts, "edge_connectivity")]
    for module, name in [(theorems, name) for name in names] + own:
        fn = getattr(module, name)

        def counted(g, *args, _fn=fn, _name=name, **kwargs):
            calls.extend((_name, h) for h in (g if _name == "graph_curvature" else [g]))
            return _fn(g, *args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    for text in SHARED_FACTS_SOURCES:
        assert clean(scanned(text)[1])
    per_graph = Counter((name, id(g)) for name, g in calls)
    assert {name for name, _ in per_graph} == set(names)
    assert max(per_graph.values()) == 1


def test_scan_uses_only_the_whole_graph_curvature_kernel(cpus, monkeypatch):
    # bakry_emery_curvature (the kernel on one 2-ball, plus the witness)
    # serves --vertex queries, oracles and witnesses, and curvature_form is
    # only the reference of the tests and the bisection; a scan runs the
    # kernel once on the whole graph and extracts no 2-ball
    cpus(1)
    calls = []
    per_vertex = [
        (curvature, "bakry_emery_curvature"),
        (theorems, "bakry_emery_curvature"),
        (curvature, "curvature_form"),
        (curvature, "ball"),
        (graph, "ball"),
    ]
    for module, name in per_vertex:
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    total, verdicts = scanned("exhaustive:5")
    assert clean(verdicts) and total == 1 + 1 + 2 + 6 + 21
    assert calls == []


def _chunked_curvature_matches_per_graph(graphs, cpus, monkeypatch):
    """Scan with one worker and a checker, T2.4, that reads no curvature,
    read every connected graph's curvature in its checker call, and hold its
    (kmin, ks) byte-equal to graph_curvature on the graph alone; return the
    vertex count of each kernel call's list, which holds connected graphs
    only."""
    runs, seen = [], []

    def counted(gs, *args, **kwargs):
        assert all(h.n > 0 and graph.is_connected(h) for h in gs)
        runs.append(sum(h.n for h in gs))
        return curvature.graph_curvature(gs, *args, **kwargs)

    check = theorems.check_theorem

    def reading(g, tid, gid="?", facts=None):
        seen.append((gid, g))
        if facts.connected:
            kmin, ks = facts.curvature
            [(ref_kmin, ref_ks)] = curvature.graph_curvature([g])
            assert np.array(ks).tobytes() == np.array(ref_ks).tobytes(), gid  # signed zeros too
            assert np.array(kmin).tobytes() == np.array(ref_kmin).tobytes(), gid
        return check(g, tid, gid, facts)

    cpus(1)
    monkeypatch.setattr(theorems, "graph_curvature", counted)
    monkeypatch.setattr(theorems, "check_theorem", reading)
    scan_pairs(graphs, ("T2.4",))
    assert seen == graphs  # corpus order
    return runs


def test_chunked_curvature_exhaustive7(cpus, monkeypatch):
    graphs = list(connected_graphs_upto(7))
    runs = _chunked_curvature_matches_per_graph(graphs, cpus, monkeypatch)
    assert sum(runs) == sum(g.n for _, g in graphs)
    assert max(runs) <= theorems._CHUNK_VERTICES and len(runs) < len(graphs) / 20


def test_chunked_curvature_test_corpus(corpus, cpus, monkeypatch):
    graphs = sorted(corpus.items())
    runs = _chunked_curvature_matches_per_graph(graphs, cpus, monkeypatch)
    assert max(runs) <= theorems._CHUNK_VERTICES and len(runs) < len(graphs)


def test_chunked_curvature_file_corpus(corpus, cpus, monkeypatch, tmp_path):
    # chunks that hold an empty graph (graph6 "?"), a disconnected graph and
    # a graph larger than the chunk bound, which makes a chunk of its own
    big = hypercube(9)
    assert big.n > theorems._CHUNK_VERTICES
    two_k2 = from_edge_list(4, [(0, 1), (2, 3)])
    middle = [g for _, g in sorted(corpus.items())]
    lines = ["?", write_graph6(two_k2), write_graph6(petersen())]
    lines += [write_graph6(g) for g in middle[:8]] + [write_graph6(big), "?"]
    lines += [write_graph6(g) for g in middle[8:]] + [write_graph6(two_k2)]
    path = tmp_path / "mixed.g6"
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    graphs = list(theorems.corpus(str(path)))
    runs = _chunked_curvature_matches_per_graph(graphs, cpus, monkeypatch)
    assert max(runs) == big.n  # alone: a chunk holding more would be larger
    assert len(runs) < sum(1 for _, g in graphs if g.n > 0 and graph.is_connected(g))


def test_scan_without_curvature_checkers_runs_no_kernel(cpus, monkeypatch):
    cpus(1)
    calls = []
    monkeypatch.setattr(theorems, "graph_curvature", lambda *args: calls.append(args))
    _, verdicts = scanned("exhaustive:5", ("T1.2", "T1.4", "C1.6", "T2.4"))
    assert clean(verdicts) and len(verdicts) == 4 * (1 + 1 + 2 + 6 + 21)
    assert calls == []


@pytest.mark.parametrize("tid", ("T2.5", "T1.1"))
def test_scan_with_one_curvature_checker_fills_whole_chunks(
    tid, corpus, cpus, monkeypatch, tmp_path
):
    # the checker reads curvature on few graphs of a chunk; the first read
    # fills the chunk, so there are fewer kernel calls than applicable
    # verdicts, and the verdicts are those of the all-checker scan
    cpus(1)
    graphs = [g for _, g in connected_graphs_upto(6)] + [g for _, g in sorted(corpus.items())]
    path = tmp_path / "corpus.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    _, everything = scanned(str(path))
    calls = []

    def counted(gs, *args, **kwargs):
        calls.append(len(gs))
        return curvature.graph_curvature(gs, *args, **kwargs)

    monkeypatch.setattr(theorems, "graph_curvature", counted)
    total, verdicts = scanned(str(path), (tid,))
    applicable = sum(v.applicable for v in verdicts)
    assert total == len(graphs) and 0 < len(calls) < applicable
    assert render(verdicts) == render([v for v in everything if v.theorem == tid])


def test_scan_frees_facts_without_the_cycle_collector(cpus):
    # facts point to their chunk, which holds graphs and no facts, so no
    # reference cycle keeps a scanned chunk's facts alive until a collection
    cpus(1)
    def alive():
        return sum(isinstance(o, theorems.GraphFacts) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        assert clean(scanned("exhaustive:5")[1]) and alive() == before
    finally:
        gc.enable()


def test_scan_yields_a_chunk_before_reading_past_it(cpus):
    # cycle:8 fills a chunk with _CHUNK_VERTICES // 8 graphs, and the graph
    # after them closes it; with one worker the chunk's summary must be
    # taken before the scan reads any further, and taking it ends the scan
    cpus(1)
    per_chunk = theorems._CHUNK_VERTICES // 8
    read, taken = [], []

    class Taken(Exception):
        pass

    def graphs():
        for i in itertools.count():
            read.append(i)
            yield f"C8#{i}", cycle_graph(8)

    def take(first):
        taken.append(list(read))
        assert [verdicts[0].graph_id for _, verdicts in first] == [f"C8#{i}" for i in read[:-1]]
        assert all(g == cycle_graph(8) for g, _ in first)
        for _, verdicts in first:
            assert [v.theorem for v in verdicts] == ["T1.3", "T1.1"]
            assert all(v.applicable and v.holds for v in verdicts)
        raise Taken

    with pytest.raises(Taken):
        scan(graphs(), ("T1.3", "T1.1"), list, take)
    assert taken == [list(range(per_chunk + 1))]


def test_scan_checks_ids_before_reading_a_graph():
    def unread():
        raise AssertionError("read a graph")
        yield

    for ids in (("T1.3", "T7.7"), ("T1.3", "T1.3")):
        with pytest.raises(GraphError, match="theorem id"):
            scan_pairs(unread(), ids)


def test_scan_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nCl\n", encoding="ascii")
    total, verdicts = scanned(str(path), ("T1.3",))
    assert total == 2
    assert verdicts[0].graph_id.endswith(":1")


def test_scan_file_with_malformed_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C~\n##bad##\n", encoding="ascii")
    with pytest.raises(FormatError) as err:
        scanned(str(path), ("T1.3",))
    assert "line 2" in str(err.value)


def test_scan_rejects_infinite_spec():
    with pytest.raises(GraphError):
        scanned("gen:line", ("T1.3",))


def test_generator_corpus_ids_are_the_parsed_specs():
    ids = [gid for gid, _ in theorems.corpus("gen: petersen ;cycle:4; ")]
    assert ids == ["petersen", "cycle:4"]


def test_scan_rejects_unknown_theorem():
    with pytest.raises(GraphError):
        scan_pairs(theorems.corpus("gen:petersen"), ("T7.7",))


def test_sign_rule_boundary():
    tol = theorems.CURVATURE_TOL
    assert theorems.nonnegatively_curved(0.0)
    assert theorems.nonnegatively_curved(-tol)
    assert not theorems.nonnegatively_curved(-2 * tol)
    v = check_theorem(petersen(), "T1.3", "petersen")  # K = -1
    assert not v.applicable and v.evidence["reason"] == "negative curvature"


def test_conjecture_scan_small():
    report = conjecture_scan(4)
    assert report["max_n"] == 4 and report["boundary_cases"] == []
    # recount from the kernel, Stoer-Wagner and the degrees, without a scan
    expected = Counter()
    for _, g in connected_graphs_upto(4):
        [(kmin, _)] = curvature.graph_curvature([g])
        if g.n >= 2 and theorems.nonnegatively_curved(kmin):
            delta = min(g.degree(v) for v in range(g.n))
            expected[f"delta={delta},lambda={cuts.edge_connectivity(g)[0]}"] += 1
    assert report["table"] == expected
    assert report["nonnegative_curvature_graphs"] == sum(expected.values())
    # C4 qualifies with delta = lambda = 2
    c4 = check_theorem(cycle_graph(4), "T1.3", "C4")
    assert c4.applicable and (c4.evidence["delta"], c4.evidence["lambda"]) == (2, 2)
    assert report["table"]["delta=2,lambda=2"] >= 1
    # lambda >= delta - 1 on every row
    for key in report["table"]:
        delta, lam = (int(part.split("=")[1]) for part in key.split(","))
        assert lam >= delta - 1, key


def test_conjecture_scan_trivial():
    report = conjecture_scan(1)
    assert report["nonnegative_curvature_graphs"] == 0
    assert report["table"] == {} and report["boundary_cases"] == []


def test_conjecture_scan_cap():
    for max_n in (10, 0, -3):
        with pytest.raises(GraphError, match=r"1\.\.9"):
            conjecture_scan(max_n)


def test_beta1_search_finds_splice():
    findings = beta1_search()
    assert len(findings) == 1
    f = findings[0]
    assert f["graph"] == "beta1_counterexample"
    assert (f["d"], f["alpha"], f["beta"], f["lambda"]) == (3, 0, 1, 2)
    assert f["girth"] == 5


def test_beta1_search_skips_petersen_and_extras():
    # petersen is amply (3,0,1) but lambda = 3 = d: examined, not a finding
    g = petersen()
    reg = regularity.detect_regularity(g)
    assert reg.is_amply_regular and (reg.d, reg.alpha, reg.beta) == (3, 0, 1)
    assert cuts.edge_connectivity(g)[0] == 3
    assert all(f["graph"] != "petersen" for f in beta1_search())
