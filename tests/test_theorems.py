import gc
from collections import Counter

import numpy as np
import pytest

from curvlab import curvature, cuts, graph, regularity, theorems
from curvlab.enumeration import connected_graphs_upto
from curvlab.formats import FormatError, write_graph6
from curvlab.generators import (
    cycle_graph,
    hypercube,
    path_graph,
    petersen,
)
from curvlab.graph import GraphError, from_edge_list
from curvlab.theorems import (
    THEOREM_IDS,
    CorpusSource,
    beta1_search,
    check_theorem,
    conjecture_scan,
    scan,
)
from curvlab.reports import render_json


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
    src = CorpusSource.from_string(
        "gen:cycle:4;kbip:3,3;hypercube:3;hypercube:4;triangular:5;hamming2:3;paley:13;petersen"
    )
    verdicts, summary = scan(src, THEOREM_IDS)
    assert summary.total_graphs == 8
    assert summary.clean
    assert summary.checked == 8 * len(THEOREM_IDS)


def test_scan_exhaustive_small_clean():
    verdicts, summary = scan(CorpusSource.from_string("exhaustive:6"), ("T1.3", "T1.1"))
    assert summary.total_graphs == 1 + 1 + 2 + 6 + 21 + 112
    assert summary.clean


def test_scan_deterministic_across_runs():
    src = CorpusSource.from_string("gen:petersen;hypercube:3;cycle:4;paley:13")
    out = [render_json(scan(src, ("T1.3", "T2.5", "T1.4"))[0]) for _ in range(2)]
    assert out[0] == out[1]


SHARED_FACTS_SOURCES = ("exhaustive:6", "gen:petersen;hypercube:4;paley:13;cycle:4;hamming2:3")


@pytest.mark.parametrize("text", SHARED_FACTS_SOURCES)
def test_scan_shared_facts_match_checkers_alone(text):
    # every checker run on its own computes its own facts; the report must
    # not change when a scan shares one GraphFacts between the checkers
    src = CorpusSource.from_string(text)
    verdicts, _ = scan(src)
    alone = [check_theorem(g, tid, gid) for gid, g in src.graphs() for tid in THEOREM_IDS]
    assert render_json(verdicts) == render_json(alone)


def test_scan_computes_each_fact_once_per_graph(monkeypatch):
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
        _, summary = scan(CorpusSource.from_string(text))
        assert summary.clean
    per_graph = Counter((name, id(g)) for name, g in calls)
    assert {name for name, _ in per_graph} == set(names)
    assert max(per_graph.values()) == 1


def test_scan_uses_only_the_whole_graph_curvature_kernel(monkeypatch):
    # bakry_emery_curvature (the kernel on one 2-ball, plus the witness)
    # serves --vertex queries, oracles and witnesses, and curvature_form is
    # only the reference of the tests and the bisection; a scan runs the
    # kernel once on the whole graph and extracts no 2-ball
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
    _, summary = scan(CorpusSource.from_string("exhaustive:5"))
    assert summary.clean and summary.total_graphs == 1 + 1 + 2 + 6 + 21
    assert calls == []


def _chunked_curvature_matches_per_graph(graphs, monkeypatch):
    """Read every connected graph's curvature while its chunk is current,
    as a scan does, and hold its (kmin, ks) byte-equal to graph_curvature on
    the graph alone; return the vertex count of each kernel call's list,
    which holds connected graphs only."""
    runs = []

    def counted(gs, *args, **kwargs):
        assert all(h.n > 0 and graph.is_connected(h) for h in gs)
        runs.append(sum(h.n for h in gs))
        return curvature.graph_curvature(gs, *args, **kwargs)

    monkeypatch.setattr(theorems, "graph_curvature", counted)
    out = []
    for gid, g, facts in theorems._with_facts(graphs):
        out.append((gid, g, facts))
        if not facts.connected:
            continue
        kmin, ks = facts.curvature
        [(ref_kmin, ref_ks)] = curvature.graph_curvature([g])
        assert np.array(ks).tobytes() == np.array(ref_ks).tobytes(), gid  # signed zeros too
        assert np.array(kmin).tobytes() == np.array(ref_kmin).tobytes(), gid
    assert [(gid, g) for gid, g, _ in out] == graphs  # corpus order
    return runs


def test_chunked_curvature_exhaustive7(monkeypatch):
    graphs = list(connected_graphs_upto(7))
    runs = _chunked_curvature_matches_per_graph(graphs, monkeypatch)
    assert sum(runs) == sum(g.n for _, g in graphs)
    assert max(runs) <= theorems._CHUNK_VERTICES and len(runs) < len(graphs) / 20


def test_chunked_curvature_test_corpus(corpus, monkeypatch):
    graphs = sorted(corpus.items())
    runs = _chunked_curvature_matches_per_graph(graphs, monkeypatch)
    assert max(runs) <= theorems._CHUNK_VERTICES and len(runs) < len(graphs)


def test_chunked_curvature_file_corpus(corpus, monkeypatch, tmp_path):
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
    graphs = list(CorpusSource.from_string(str(path)).graphs())
    runs = _chunked_curvature_matches_per_graph(graphs, monkeypatch)
    assert max(runs) == big.n  # alone: a chunk holding more would be larger
    assert len(runs) < sum(1 for _, g in graphs if g.n > 0 and graph.is_connected(g))


def test_scan_without_curvature_checkers_runs_no_kernel(monkeypatch):
    calls = []
    monkeypatch.setattr(theorems, "graph_curvature", lambda *args: calls.append(args))
    _, summary = scan(CorpusSource.from_string("exhaustive:5"), ("T1.2", "T1.4", "C1.6", "T2.4"))
    assert summary.clean and summary.checked == 4 * (1 + 1 + 2 + 6 + 21)
    assert calls == []


@pytest.mark.parametrize("tid", ("T2.5", "T1.1"))
def test_scan_with_one_curvature_checker_fills_whole_chunks(tid, corpus, monkeypatch, tmp_path):
    # the checker reads curvature on few graphs of a chunk; the first read
    # fills the chunk, so there are fewer kernel calls than applicable
    # verdicts, and the verdicts are those of the all-checker scan
    graphs = [g for _, g in connected_graphs_upto(6)] + [g for _, g in sorted(corpus.items())]
    path = tmp_path / "corpus.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    src = CorpusSource.from_string(str(path))
    everything, _ = scan(src)
    calls = []

    def counted(gs, *args, **kwargs):
        calls.append(len(gs))
        return curvature.graph_curvature(gs, *args, **kwargs)

    monkeypatch.setattr(theorems, "graph_curvature", counted)
    verdicts, summary = scan(src, (tid,))
    assert summary.total_graphs == len(graphs) and 0 < len(calls) < summary.applicable
    assert render_json(verdicts) == render_json([v for v in everything if v.theorem == tid])


def test_scan_frees_facts_without_the_cycle_collector():
    # a checked chunk's list is emptied, so it and its facts, which point
    # to it, do not keep each other alive until a collection
    def alive():
        return sum(isinstance(o, theorems.GraphFacts) for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = alive()
        _, summary = scan(CorpusSource.from_string("exhaustive:5"))
        assert summary.clean and alive() == before
    finally:
        gc.enable()


def test_scan_file_source(tmp_path):
    path = tmp_path / "graphs.g6"
    path.write_text("C~\nCl\n", encoding="ascii")
    verdicts, summary = scan(CorpusSource.from_string(str(path)), ("T1.3",))
    assert summary.total_graphs == 2
    assert verdicts[0].graph_id.endswith(":1")


def test_scan_file_with_malformed_line(tmp_path):
    path = tmp_path / "bad.g6"
    path.write_text("C~\n##bad##\n", encoding="ascii")
    with pytest.raises(FormatError) as err:
        scan(CorpusSource.from_string(str(path)), ("T1.3",))
    assert "line 2" in str(err.value)


def test_scan_rejects_infinite_spec():
    with pytest.raises(GraphError):
        scan(CorpusSource.from_string("gen:line"), ("T1.3",))


def test_scan_rejects_unknown_theorem():
    with pytest.raises(GraphError):
        scan(CorpusSource.from_string("gen:petersen"), ("T7.7",))


def test_sign_rule_boundary():
    tol = theorems.CURVATURE_TOL
    assert theorems.nonnegatively_curved(0.0)
    assert theorems.nonnegatively_curved(-tol)
    assert not theorems.nonnegatively_curved(-2 * tol)
    v = check_theorem(petersen(), "T1.3", "petersen")  # K = -1
    assert not v.applicable and v.evidence["reason"] == "negative curvature"


def test_conjecture_scan_small():
    report = conjecture_scan(4)
    assert report.boundary == []
    ids = {r.graph_id: r for r in report.rows}
    # C4 qualifies with delta = lambda = 2
    c4_rows = [r for r in report.rows if r.n == 4 and r.delta == 2 and r.lam == 2]
    assert c4_rows
    assert all(r.lam >= r.delta - 1 for r in report.rows)


def test_conjecture_scan_trivial():
    report = conjecture_scan(1)
    assert report.rows == [] and report.table == {}


def test_conjecture_scan_cap():
    for max_n in (10, 0, -3):
        with pytest.raises(GraphError, match=r"1\.\.9"):
            conjecture_scan(max_n)


def test_beta1_search_finds_splice():
    findings = beta1_search()
    assert len(findings) == 1
    f = findings[0]
    assert f.graph_id == "beta1_counterexample"
    assert (f.d, f.alpha, f.beta, f.lam) == (3, 0, 1, 2)
    assert f.girth == 5


def test_beta1_search_skips_petersen_and_extras():
    # petersen is amply (3,0,1) but lambda = 3 = d: examined, not a finding
    g = petersen()
    reg = regularity.detect_regularity(g)
    assert reg.is_amply_regular and (reg.d, reg.alpha, reg.beta) == (3, 0, 1)
    assert cuts.edge_connectivity(g)[0] == 3
    assert all(f.graph_id != "petersen" for f in beta1_search())
