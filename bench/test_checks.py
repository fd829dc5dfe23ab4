"""Each output check passes a real report and rejects a corrupted one.

    python3 -m pytest bench/test_checks.py -q

The reports come from `curvlab check` on small versions of the three
workloads; every corruption changes one value and must trip its check.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SMALL_AMPLY = (
    "hamming2:3",
    "hamming2:4",
    "triangular:5",
    "paley:13",
    "hypercube:3",
    "product:cycle:4+hypercube:2",
)


@pytest.fixture(scope="module")
def scans(tmp_path_factory):
    """name -> (records, corpus, stderr) for small versions of the workloads."""
    tmp = tmp_path_factory.mktemp("scans")
    corpora = {
        "exhaustive": workloads.exhaustive(5),
        "regular": workloads.regular(3, tmp / "regular.g6", per_cell=1, max_n=12),
        "amply": workloads.amply(3, SMALL_AMPLY),
    }
    out = {}
    for name, corpus in corpora.items():
        report, err = tmp / f"{name}.json", tmp / f"{name}.err"
        argv = [sys.executable, "-m", "curvlab.cli", "check", "--source", corpus.source,
                "--out", str(report)]
        _, _, code = run.launch(argv, err)
        assert code == 0, err.read_text()
        out[name] = (json.loads(report.read_text()), corpus, err.read_text())
    return out


def first(records, theorem, key=None):
    """The first applicable verdict of a checker, optionally with an evidence key."""
    return next(
        r for r in records
        if r["theorem"] == theorem and r["applicable"] and (key is None or r["evidence"].get(key))
    )


def drop_last(records, corpus, stderr):
    records.pop()


def miscount_summary(records, corpus, stderr):
    return stderr.replace("checked ", "checked 1", 1)


def fail_verdict(records, corpus, stderr):
    first(records, "T1.3")["holds"] = False


def rename_graph(records, corpus, stderr):
    for r in records:
        if r["graph"] == "n5#3":
            r["graph"] = "n4#99"


def repeat_enumerated(records, corpus, stderr):
    corpus.graphs[corpus.ids[-1]] = corpus.graphs[corpus.ids[-2]]


def flip_t14(records, corpus, stderr):
    first(records, "T1.4")["applicable"] = False


def flip_t12(records, corpus, stderr):
    first(records, "T1.2")["applicable"] = False


def bump_lambda(records, corpus, stderr):
    first(records, "T1.3", "lambda")["evidence"]["lambda"] += 1


def drop_cut_edge(records, corpus, stderr):
    first(records, "T1.4", "cut")["evidence"]["cut"]["cut_edges"].pop()


def move_cut_side(records, corpus, stderr):
    cut = first(records, "T1.3", "cut")["evidence"]["cut"]
    g = corpus.graphs[first(records, "T1.3", "cut")["graph"]]
    cut["side_L"].append(next(v for v in g if v not in cut["side_L"]))


def break_matching(records, corpus, stderr):
    r = first(records, "C1.6", "matching")
    edges, g = r["evidence"]["matching"]["edges"], corpus.graphs[r["graph"]]
    u = edges[0][0]
    edges[0] = [u, next(w for w in g if w != u and not g.has_edge(u, w))]


def shorten_matching(records, corpus, stderr):
    first(records, "T1.1", "matching")["evidence"]["matching"]["edges"].pop()


def shift_curvature(records, corpus, stderr):
    gid = next(iter(corpus.expected_K))
    r = next(r for r in records if r["graph"] == gid and r["theorem"] == "T1.3")
    r["evidence"]["K"] = float(r["evidence"]["K"]) + 1e-3


def raise_t14_lambda(records, corpus, stderr):
    first(records, "T1.4")["evidence"]["lambda"] += 1


def on(check):
    """A check called with (records, corpus) only."""
    return lambda records, corpus, stderr: check(records, corpus)


CASES = [
    ("regular", "coverage", drop_last, on(checks.check_coverage)),
    ("amply", "summary", miscount_summary, lambda r, c, e: checks.check_summary(r, e)),
    ("exhaustive", "holds", fail_verdict, lambda r, c, e: checks.check_holds(r)),
    ("exhaustive", "graph_counts", rename_graph, lambda r, c, e: checks.check_graph_counts(r, 5)),
    ("exhaustive", "enumeration", repeat_enumerated, lambda r, c, e: checks.check_enumeration(c)),
    ("exhaustive", "applicable", flip_t14, on(checks.check_applicable)),
    ("regular", "applicable", flip_t12, on(checks.check_applicable)),
    ("regular", "lambda", bump_lambda, on(checks.check_lambda)),
    ("amply", "cuts", drop_cut_edge, on(checks.check_cuts)),
    ("exhaustive", "cuts", move_cut_side, on(checks.check_cuts)),
    ("amply", "matchings", break_matching, on(checks.check_matchings)),
    ("regular", "matchings", shorten_matching, on(checks.check_matchings)),
    ("amply", "curvature", shift_curvature, on(checks.check_curvature)),
    ("regular", "curvature", shift_curvature, on(checks.check_curvature)),
    ("exhaustive", "curvature", shift_curvature, on(checks.check_curvature)),
    ("amply", "t14_lambda", raise_t14_lambda, on(checks.check_t14_lambda)),
]


@pytest.mark.parametrize(
    "workload,name,corrupt,check", CASES, ids=[f"{w}-{n}-{c.__name__}" for w, n, c, _ in CASES]
)
def test_check_rejects_corruption(scans, workload, name, corrupt, check):
    records, corpus, stderr = scans[workload]
    assert check(records, corpus, stderr) == [], f"{name} fails the real report"
    records, corpus = copy.deepcopy(records), copy.deepcopy(corpus)
    stderr = corrupt(records, corpus, stderr) or stderr
    assert check(records, corpus, stderr), f"{name} passes a corrupted report"


def test_real_reports_pass_every_check(scans):
    for records, corpus, stderr in scans.values():
        assert {k: v for k, v in checks.run_checks(records, corpus, stderr).items() if v} == {}


def test_exit_code_check():
    assert checks.check_exit(0) == []
    assert checks.check_exit(2)
