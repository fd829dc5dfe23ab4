import csv
import dataclasses
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from curvlab import cli, cuts, regularity, theorems
from curvlab.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, main
from curvlab.formats import write_graph6
from curvlab.generators import hamming2, petersen
from curvlab.graph import MAX_EDGES, MAX_ORDER
from curvlab.matching import Matching
from curvlab.reports import FORMATS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_curvature_generator(capsys):
    code, out, _ = run_cli(capsys, "curvature", "hypercube:3")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["K"] == 2.0
    assert payload["per_vertex"]["0"] == 2.0


def test_curvature_single_vertex(capsys):
    for vertex in ("0", "9"):
        code, out, _ = run_cli(capsys, "curvature", "petersen", "--vertex", vertex)
        payload = json.loads(out)
        assert code == EXIT_OK and payload["vertex"] == vertex
        assert payload["K"] == pytest.approx(-1.0)


def test_curvature_infinite_family(capsys):
    code, out, _ = run_cli(capsys, "curvature", "zxk:3")
    payload = json.loads(out)
    assert payload["K"] == pytest.approx(0.0, abs=1e-8)
    code, out, _ = run_cli(capsys, "curvature", "line", "--vertex", "5")
    assert json.loads(out)["K"] == pytest.approx(0.0, abs=1e-8)
    # a value with a leading minus sign, attached to the option or not
    for argv, vertex in [
        (("zxk:3", "--vertex=-4,2"), "(-4, 2)"),
        (("zxk:3", "--vertex", "-4,2"), "(-4, 2)"),
        (("line", "--vertex", "-7"), "-7"),
    ]:
        code, out, _ = run_cli(capsys, "curvature", *argv)
        payload = json.loads(out)
        assert code == EXIT_OK and payload["vertex"] == vertex
        assert payload["K"] == pytest.approx(0.0, abs=1e-8)


# sha256 of the whole stdout of a --vertex query, on infinite and finite
# graphs, at N = inf and finite N
VERTEX_QUERIES = [
    (
        ("zxk:3", "--vertex=-4,2"),
        "599b0a3be3aff967e0cceb275fcab23b0dff00a481efd1b0fd9ba0c03003b80a",
    ),
    (
        ("zxk:5", "--vertex", "7,4", "--dimension", "2.5"),
        "0b09b497c844e2c041a25ffb657b9cfb3f85576ad85bde8537a0e0f807972850",
    ),
    (
        ("line", "--vertex", "2", "--dimension", "3"),
        "cef952402bd15cb1bb6e464578c1af9d74e9997cdfd7f4285f2ffd75d8f91575",
    ),
    (
        ("petersen", "--vertex", "9"),
        "23bbc1a8b11871bd353be164c2a7fe1f372ccfdb8137cbbc1c01e5d01953a1f1",
    ),
    (
        ("hypercube:4", "--vertex", "3", "--dimension", "2.5"),
        "1a3000b91ce59be2691b2b4d9dd9e931b3818e2ec3984dd973af891a7d34e180",
    ),
]


@pytest.mark.parametrize(
    "argv, digest", VERTEX_QUERIES, ids=[" ".join(argv) for argv, _ in VERTEX_QUERIES]
)
def test_curvature_vertex_output_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, "curvature", *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("dim", ["inf", "2.5"])
@pytest.mark.parametrize("spec", ["petersen", "hypercube:3", "paley:13", "triangular:5", "path:5"])
def test_curvature_vertex_prints_the_whole_graph_bytes(capsys, spec, dim):
    # --vertex v prints the K text that the whole-graph query prints for v
    def k_texts(*argv):
        code, out, _ = run_cli(capsys, "curvature", spec, "--dimension", dim, *argv)
        assert code == EXIT_OK
        return json.loads(out, parse_float=str)

    per_vertex = k_texts()["per_vertex"]
    assert len(per_vertex) > 1
    for v, text in per_vertex.items():
        assert k_texts("--vertex", v)["K"] == text, v


@pytest.mark.parametrize(
    "spec, vertex, form",
    [
        ("petersen", "-1", "an integer in 0..9"),
        ("petersen", "10", "an integer in 0..9"),
        ("petersen", "0,0", "an integer in 0..9"),
        ("petersen", "x", "an integer in 0..9"),
        ("cycle:5", "-1", "an integer in 0..4"),
        ("zxk:3", "5", "a pair i,c of integers with 0 <= c < 3"),
        ("zxk:3", "0,3", "a pair i,c of integers with 0 <= c < 3"),
        ("zxk:3", "0,-1", "a pair i,c of integers with 0 <= c < 3"),
        ("line", "0,0", "an integer"),
        # int() reads each of these; a vertex is written in ASCII digits
        ("petersen", "+3", "an integer in 0..9"),
        ("petersen", " 3", "an integer in 0..9"),
        ("petersen", "1_0", "an integer in 0..9"),
        ("line", "\uff13", "an integer"),
        ("zxk:3", "0, 1", "a pair i,c of integers with 0 <= c < 3"),
    ],
)
def test_curvature_rejects_bad_vertex(capsys, spec, vertex, form):
    code, out, err = run_cli(capsys, "curvature", spec, "--vertex", vertex)
    assert code == EXIT_INPUT and out == ""
    assert f"vertex '{vertex}' is not a vertex of {spec}: expected {form}" in err


def test_curvature_finite_dimension(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "curvature", "complete:2", "--dimension", "2")
    assert json.loads(out)["K"] == pytest.approx(1.0)
    code, out, err = run_cli(capsys, "curvature", "petersen", "--dimension", "0")
    assert code == EXIT_INPUT and out == ""
    assert "dimension parameter must be positive" in err
    # a bad dimension is rejected at an isolated vertex too, with or without --vertex
    path = tmp_path / "isolated.txt"
    path.write_text("3 1\n0 1\n", encoding="ascii")
    for dim in ("0", "nan"):
        for vertex in ((), ("--vertex", "2")):
            code, out, err = run_cli(capsys, "curvature", str(path), *vertex, "--dimension", dim)
            assert code == EXIT_INPUT and out == "", (dim, vertex, out)
            assert "dimension parameter must be positive" in err
    # float() would read each of these; the option takes ASCII decimals, inf and nan
    for dim in ("1_0", "+2", " 2", "\uff12"):
        code, out, err = run_cli(capsys, "curvature", "complete:3", "--dimension", dim)
        assert code == EXIT_INPUT and out == "", dim
        assert repr(dim) in err
    for dim, expected in (("-1", None), ("2.5", 2.5), ("1e3", 1000.0), ("inf", "inf")):
        code, out, err = run_cli(capsys, "curvature", "complete:3", "--dimension", dim)
        if expected is None:
            assert code == EXIT_INPUT and "dimension parameter must be positive" in err
        else:
            assert code == 0 and json.loads(out)["dimension"] == expected, dim
    # argparse alone would read -inf and -1e3 as options, and -inf is a real
    for argv, got in (
        (("--dimension", "-inf"), "-inf"),
        (("--dimension", "-1e3"), "-1000.0"),
        (("--dimension=-inf",), "-inf"),
    ):
        code, out, err = run_cli(capsys, "curvature", "cycle:5", *argv)
        assert code == EXIT_INPUT and out == "", argv
        assert err == f"error: dimension parameter must be positive, got {got}\n", argv


@pytest.mark.parametrize("dim", ["1e-320", "5e-324", "1e-308"])
def test_curvature_tiny_dimension_is_input_error(capsys, dim):
    # 1/N overflows K: "K": NaN (invalid JSON) was printed with exit 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # and no numpy RuntimeWarning
        for vertex in ((), ("--vertex", "0")):
            code, out, err = run_cli(capsys, "curvature", "cycle:3", *vertex, "--dimension", dim)
            assert code == EXIT_INPUT and out == "", vertex
            assert f"error: dimension parameter N = {dim} is too small" in err
        code, out, _ = run_cli(capsys, "curvature", "cycle:3", "--dimension", "1e-300")
    assert code == EXIT_OK and json.loads(out)["K"] == pytest.approx(-4e300)


def test_connectivity_with_classification(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "cycle:4", "--classify-cuts")
    payload = json.loads(out)
    assert payload["lambda"] == 2
    assert payload["stars_only"] is False
    assert len(payload["non_star_cut"]["side_L"]) == 2


# sha256 of the whole stdout of `connectivity --classify-cuts`: every minimum
# cut is a star on the first three, and the last two print the witness of
# the full restricted search, the ones recorded before the sink-family
# decision
CLASSIFIED_CUTS = [
    ("hypercube:7", "17fd7e3f3f23f46a8fbf8fcf71d35b2363768f35bfe23e389f7f689d0a72d6cf"),
    (
        "product:hamming2:4+complete:4",
        "7c906686f49e46654e13fc3e98ed92b0ff691ea039169bb2fccffb9b74e90905",
    ),
    ("triangular:9", "fec1c8cdebaee1d8d1bae755276da11c94b74dd91aad12269146b4d401968ec6"),
    ("cycle:4", "52823b812f929d834cd3be8ea1108a421e35ac595e97d5d45fbf36b242b12fd3"),
    ("beta1", "3ba065764989f3d6227e6d2eb8057a9e7af5b2c64542fabc2c24fd95f460d159"),
]


@pytest.mark.parametrize(
    "spec, digest", CLASSIFIED_CUTS, ids=[spec for spec, _ in CLASSIFIED_CUTS]
)
def test_cut_classification_output_pinned(capsys, spec, digest):
    code, out, _ = run_cli(capsys, "connectivity", spec, "--classify-cuts")
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_connectivity_classification_computes_lambda_once(capsys, monkeypatch):
    # classify_min_cuts gets the lambda the command already computed
    calls = []
    original = cuts.edge_connectivity

    def counted(g):
        calls.append(g.n)
        return original(g)

    # the command and classify_min_cuts both resolve it in cuts
    monkeypatch.setattr(cuts, "edge_connectivity", counted)
    code, out, _ = run_cli(capsys, "connectivity", "hypercube:4", "--classify-cuts")
    assert code == EXIT_OK and calls == [16]
    assert json.loads(out) == {
        "cut": {"edges": [[0, 1], [0, 2], [0, 4], [0, 8]], "side_L": [0]},
        "lambda": 4,
        "non_star_cut": None,
        "stars_only": True,
    }


def test_matching_command(capsys):
    code, out, _ = run_cli(capsys, "matching", "petersen")
    payload = json.loads(out)
    assert payload["perfect"] is True and payload["size"] == 5


def test_regularity_command(capsys):
    code, out, _ = run_cli(capsys, "regularity", "hamming2:3")
    payload = json.loads(out)
    assert payload["kind"] == "amply_regular"
    assert (payload["d"], payload["alpha"], payload["beta"]) == (4, 1, 2)


def test_file_input_graph6(capsys, tmp_path):
    path = tmp_path / "p.g6"
    path.write_text(write_graph6(petersen()) + "\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "connectivity", str(path))
    assert json.loads(out)["lambda"] == 3


def test_file_input_edge_list(capsys, tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "connectivity", str(path))
    assert json.loads(out)["lambda"] == 2


def test_check_on_an_edge_list_file_names_the_format(capsys, tmp_path):
    # the single-graph commands read this file as an edge list; a corpus is
    # graph6 or sparse6, and this said "bad byte 51 in size prefix"
    path = tmp_path / "tri.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n", encoding="ascii")
    code, out, err = run_cli(capsys, "check", "--source", str(path))
    assert code == EXIT_INPUT and out == ""
    assert "error: line 1: a line that starts with a digit is edge-list text" in err


def test_check_command_json(capsys):
    code, out, err = run_cli(
        capsys,
        "check",
        "--source",
        "gen:cycle:4;petersen",
        "--theorems",
        "T1.4,T2.5",
    )
    assert code == EXIT_OK
    payload = json.loads(out)
    assert len(payload) == 4
    assert "0 violations" in err


def test_check_counts_a_violation_and_exits_2(capsys, monkeypatch):
    # make one verdict fail: the summary counts it as the scan goes by,
    # names it and exits 2
    check = theorems.check_theorem

    def failing(g, tid, gid, facts):
        v = check(g, tid, gid, facts)
        return dataclasses.replace(v, holds=False) if (gid, tid) == ("petersen", "T1.2") else v

    monkeypatch.setattr(theorems, "check_theorem", failing)
    argv = ("check", "--source", "gen:cycle:4;petersen", "--theorems", "T1.2,T1.3")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VIOLATION and len(json.loads(out)) == 4
    assert "checked 4 verdicts on 2 graphs: 3 applicable, 2 held, 1 violations" in err
    assert err.count("VIOLATION") == 1 and "VIOLATION T1.2 on petersen: {" in err


@pytest.mark.parametrize(
    "wrong, check",
    [
        (lambda lam, cert: (lam + 1, cert), "cut certificate value != lambda"),
        (lambda lam, cert: (lam, None), "cut certificate missing"),
    ],
    ids=["lambda+1", "no certificate"],
)
def test_check_fails_a_cut_certificate_that_is_not_lambda(capsys, monkeypatch, wrong, check):
    # lambda one too high still meets T1.3's bound on the cube, so only the
    # check of the certificate against lambda makes it a violation
    edge_connectivity = theorems.edge_connectivity
    monkeypatch.setattr(theorems, "edge_connectivity", lambda g: wrong(*edge_connectivity(g)))
    argv = ("check", "--source", "gen:hypercube:3", "--theorems", "T1.3,T1.4")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_VIOLATION
    assert [(r["holds"], r["evidence"]["failed_check"]) for r in json.loads(out)] == [
        (False, check),
        (False, check),
    ]
    assert err.count(f"'failed_check': '{check}'") == 2


@pytest.mark.parametrize(
    "wrong",
    [
        lambda m: Matching(((0, 7), (1, 6), (2, 5), (3, 4)), True),  # non-edges
        lambda m: Matching(((0, 1), (1, 3), (4, 5), (6, 7)), True),  # vertex 1 twice
        lambda m: dataclasses.replace(m, is_perfect=not m.is_perfect),
    ],
    ids=["non-edge", "repeated vertex", "is_perfect"],
)
def test_check_fails_a_matching_that_does_not_verify(capsys, monkeypatch, wrong):
    # each wrong matching of the cube but the last claims to be perfect, so
    # only the check of the matching against the graph makes it a violation
    maximum_matching = theorems.maximum_matching
    monkeypatch.setattr(theorems, "maximum_matching", lambda g: wrong(maximum_matching(g)))
    argv = ("check", "--source", "gen:hypercube:3", "--theorems", "T1.1,T1.2,C1.6")
    code, out, err = run_cli(capsys, *argv)
    check = "matching fails Matching.verify"
    assert code == EXIT_VIOLATION
    assert [(r["holds"], r["evidence"]["failed_check"]) for r in json.loads(out)] == [
        (False, check)
    ] * 3
    assert err.count(f"'failed_check': '{check}'") == 3


def test_check_fails_a_cut_certificate_that_does_not_verify(capsys, monkeypatch):
    # three edges of the cube that do not cross the certificate's side:
    # its value is still lambda, so only recomputing the cut from its side
    # makes it a violation
    edge_connectivity = theorems.edge_connectivity

    def wrong(g):
        lam, cert = edge_connectivity(g)
        others = tuple(e for e in g.edges() if e not in cert.cut_edges)[:lam]
        return lam, dataclasses.replace(cert, cut_edges=others)

    monkeypatch.setattr(theorems, "edge_connectivity", wrong)
    argv = ("check", "--source", "gen:hypercube:3", "--theorems", "T1.3,T1.4")
    code, out, err = run_cli(capsys, *argv)
    check = "cut certificate fails CutCertificate.verify"
    assert code == EXIT_VIOLATION
    assert [(r["holds"], r["evidence"]["failed_check"]) for r in json.loads(out)] == [
        (False, check)
    ] * 2
    assert err.count(f"'failed_check': '{check}'") == 2


@pytest.mark.parametrize(
    "side, check",
    [({0}, "non-star cut side of fewer than 2 vertices"), ({0, 1}, "non-star cut value != lambda")],
    ids=["star", "value 4"],
)
def test_check_fails_a_non_star_witness_that_is_not_one(capsys, monkeypatch, side, check):
    # on the cube lambda = d = 3: {0} is a star, and {0, 1} costs 4
    monkeypatch.setattr(theorems, "classify_min_cuts", lambda g, lc: cuts._certificate(g, side))
    code, out, _ = run_cli(capsys, "check", "--source", "gen:hypercube:3", "--theorems", "T1.4")
    [record] = json.loads(out)
    assert code == EXIT_VIOLATION and record["evidence"]["failed_check"] == check


def test_check_reports_a_t24_violation(capsys, monkeypatch):
    # T2.4 is a theorem, so only a patched diamond search reaches the
    # branch that reports a violation
    monkeypatch.setattr(regularity, "contains_induced_diamond", lambda g: (0, 1, 2, 3))
    v = theorems.check_theorem(hamming2(5), "T2.4", "hamming2:5")
    assert (v.applicable, v.holds) == (True, False)
    assert v.evidence == {"reason": "contains an induced diamond", "witness": (0, 1, 2, 3)}
    code, out, err = run_cli(capsys, "check", "--source", "gen:hamming2:5", "--theorems", "T2.4")
    assert code == EXIT_VIOLATION and json.loads(out)[0]["evidence"]["witness"] == [0, 1, 2, 3]
    assert "checked 1 verdicts on 1 graphs: 1 applicable, 0 held, 1 violations" in err
    assert "VIOLATION T2.4 on hamming2:5: {'reason': 'contains an induced diamond'" in err


def test_check_deterministic_across_runs(capsys, tmp_path):
    outputs = []
    for run in range(2):
        out_path = tmp_path / f"r{run}.json"
        code, _, _ = run_cli(
            capsys, "check", "--source", "gen:petersen;hypercube:4;paley:13", "--out", str(out_path)
        )
        assert code == EXIT_OK
        outputs.append(out_path.read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("n", ["0", "-3", "10", "x", "+7", "\uff17"])
def test_check_rejects_bad_exhaustive_bound(capsys, monkeypatch, n):
    def no_enumeration(max_n):
        raise AssertionError("enumerated before validating the source")

    monkeypatch.setattr("curvlab.theorems.connected_graphs_upto", no_enumeration)
    code, out, err = run_cli(capsys, "check", "--source", f"exhaustive:{n}")
    assert code == EXIT_INPUT
    assert f"'exhaustive:{n}'" in err and "1..9" in err
    assert out == ""


def test_check_exhaustive_source(capsys):
    code, out, err = run_cli(
        capsys, "check", "--source", "exhaustive:5", "--theorems", "T1.3", "--format", "csv"
    )
    assert code == EXIT_OK
    assert out.splitlines()[0] == "theorem,graph,applicable,holds,detail"


def test_conjecture_command(capsys):
    code, out, _ = run_cli(capsys, "conjecture", "--max-n", "4")
    payload = json.loads(out)
    assert payload["boundary_cases"] == []
    assert payload["table"]["delta=2,lambda=2"] >= 1


@pytest.mark.parametrize("max_n", ["0", "-3", "10"])
def test_conjecture_rejects_bad_max_n(capsys, max_n):
    code, out, err = run_cli(capsys, "conjecture", "--max-n", max_n)
    assert code == EXIT_INPUT and out == ""
    assert f"max_n in 1..9, got {max_n}" in err


# sha256 of the whole stdout: the n <= 7 (delta, lambda) table of the 419
# nonnegatively curved graphs, and the one beta = 1 finding
EXPLORATIONS = [
    (
        ("conjecture", "--max-n", "7"),
        "418a267da531de16bb05bf4ab8dfdc5367a89a78dc63163b7395cd9df2a0fdce",
    ),
    (("beta1-search",), "cd1450f0b09bdea65719cd1935b9d9a8b2dd47d235e102bc9bd774e9cfb7c403"),
]


@pytest.mark.parametrize(
    "argv, digest", EXPLORATIONS, ids=[" ".join(argv) for argv, _ in EXPLORATIONS]
)
def test_exploration_output_pinned(capsys, argv, digest):
    code, out, _ = run_cli(capsys, *argv)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# the json report of exhaustive:6, which test_check_report_pinned and
# test_a_launch_writes_the_pinned_report pin
EXHAUSTIVE6_JSON_SHA256 = "cc121b73c1c54e412a575f895a529deb6e1a4fbc732d191baf090cea3f5816c8"
# the json, csv and markdown reports of the sources of test_check_report_pinned
REPORT_SHA256 = {
    "exhaustive:6": {
        "json": EXHAUSTIVE6_JSON_SHA256,
        "csv": "ea8ec4abb8f443df9399a9f1e92cd928c4a8732a17baefcc2512e12025ab7f80",
        "markdown": "2cfaa9c64c0565fab26837f87e97a627cccd14374ffbc471c7c1e106d56a34f5",
    },
    "gen:petersen;hypercube:4;paley:13;cycle:4;hamming2:3": {
        "json": "3fd9064002b651953774589868c1aac598022312f2297b4c170d2faa9a2a71b9",
        "csv": "04f3f54b7b2113ad2da170c700eee0ee9d03204058201e248958e7e0107995f0",
        "markdown": "410eb9a389ecf1e0fe999b1627e43ac9cbf4ca121ddbd984988f041e36e0bd50",
    },
    # the one source whose T2.4 verdict is applicable (and holds)
    "gen:hamming2:5": {
        "json": "f7002a1075b18d26b7e1da583c004e4c7977a48498828eeccb01ef19b52c6d23",
        "csv": "e5bdd5ae829468a832b4b5f7cb9d6f2bb4b07c8d7186d0a1649f9c300a0e22bf",
        "markdown": "f960a7231e9092e5e1cfafbc42a947deb4cd883ca72cf058493085967bd1ed36",
    },
}


@pytest.mark.parametrize("source", REPORT_SHA256)
def test_check_report_pinned(capsys, tmp_path, source):
    # sha256 of the whole json, csv and markdown reports of all seven
    # checkers, so a change to how the facts are computed or converted cannot
    # move a byte of them
    for fmt, expected in REPORT_SHA256[source].items():
        out = tmp_path / f"report.{fmt}"
        argv = ("check", "--source", source, "--format", fmt, "--out", str(out))
        code, _, _ = run_cli(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == expected, fmt


def without_cuts(fmt, data):
    """A json or csv report with every evidence "cut" value dropped: every
    verdict, lambda, witness and matching stays."""
    if fmt == "json":
        verdicts = json.loads(data)
        for verdict in verdicts:
            verdict["evidence"].pop("cut", None)
        return json.dumps(verdicts).encode()
    rows = list(csv.reader(io.StringIO(data.decode())))
    for row in rows[1:]:
        detail = json.loads(row[-1])
        detail.pop("cut", None)
        row[-1] = json.dumps(detail)
    return json.dumps(rows).encode()


# sha256 of `without_cuts` of the json and csv reports of the sources of
# test_check_report_pinned, recorded while Stoer-Wagner still gave the cut
# certificates: the flows that replaced it move no other byte
REPORT_WITHOUT_CUTS_SHA256 = {
    "exhaustive:6": {
        "json": "f43b18e99f7e1e5f9e49bc07d37b6b012edca04a45e2f5de62b1cddbc3f13f7f",
        "csv": "907173a4b55360b132157f4b4a90b298d69cc3df8b430b814bdaae18f3955212",
    },
    "gen:petersen;hypercube:4;paley:13;cycle:4;hamming2:3": {
        "json": "7c3f17725ec353bc44f64b38d4a2c057733d7565d80b1a93c47daad95ba1b9eb",
        "csv": "a9f6101123daf7a605227e0b7f7aea530176caf74faccccb682ec20fcffe8d92",
    },
    "gen:hamming2:5": {
        "json": "17856be6f88361d8ad5bd09a3b0b012ff51901a3a470c3d7698379347c26bc5d",
        "csv": "d06846ce589901db409746e19019cd314e482cc3719c8e67d6e3226ee805915a",
    },
}


@pytest.mark.parametrize("source", REPORT_WITHOUT_CUTS_SHA256)
def test_check_report_without_cuts_pinned(capsys, tmp_path, source):
    for fmt, expected in REPORT_WITHOUT_CUTS_SHA256[source].items():
        out = tmp_path / f"report.{fmt}"
        argv = ("check", "--source", source, "--format", fmt, "--out", str(out))
        assert run_cli(capsys, *argv)[0] == EXIT_OK
        assert hashlib.sha256(without_cuts(fmt, out.read_bytes())).hexdigest() == expected, fmt


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", ["gen:cycle:5;nonsense:3", "gen:cycle:5;cycle:300;nonsense:3"])
def test_check_that_fails_in_the_scan_writes_nothing(capsys, monkeypatch, tmp_path, fmt, source):
    # the unknown family is found by the scan; with cycle:300 the scan has
    # already written cycle:5's text, which must reach neither stdout nor
    # --out, whether or not --out exists
    written = []
    emit_report = cli.emit_report
    monkeypatch.setattr(cli, "emit_report", lambda *a: written.append(emit_report(*a)))
    report = tmp_path / "report"
    for out, before in ((None, None), (report, None), (report, b"an earlier report\n")):
        if before is not None:
            report.write_bytes(before)
        argv = ("check", "--source", source, "--format", fmt)
        code, stdout, err = run_cli(capsys, *argv, *(() if out is None else ("--out", str(out))))
        assert code == EXIT_INPUT and stdout == ""
        assert "error: unknown graph family 'nonsense'" in err
        assert (report.read_bytes() if report.exists() else None) == before
    assert len(written) == (3 if "cycle:300" in source else 0)


def test_check_peak_memory_is_below_the_report_size(capsys, cpus, tmp_path):
    # the report is written as the scan goes, so a check keeps neither the
    # verdicts nor the text: traced, exhaustive:7 peaked at 6.98 MiB against
    # its 1.30 MiB report when it kept both, and at 0.75 MiB streamed; one
    # worker, so that tracemalloc sees the whole scan and no forked process
    # takes a share of it
    cpus(1)
    out = tmp_path / "report.json"
    assert run_cli(capsys, "check", "--source", "exhaustive:3", "--out", str(out))[0] == EXIT_OK
    tracemalloc.start()
    try:
        code, _, _ = run_cli(capsys, "check", "--source", "exhaustive:7", "--out", str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK and peak < out.stat().st_size


@pytest.mark.parametrize("source", ["gen:", "gen:;", "gen: ;"])
def test_check_rejects_empty_generator_source(capsys, source):
    code, out, err = run_cli(capsys, "check", "--source", source)
    assert code == EXIT_INPUT and out == ""
    assert f"corpus source {source!r}: no generator spec" in err


def test_beta1_command(capsys):
    code, out, _ = run_cli(capsys, "beta1-search")
    payload = json.loads(out)
    assert payload[0]["graph"] == "beta1_counterexample"
    assert payload[0]["lambda"] == 2


def test_bad_input_exit_code(capsys, tmp_path):
    code, _, err = run_cli(capsys, "curvature", "paley:8")
    assert code == EXIT_INPUT and "error:" in err
    code, _, err = run_cli(capsys, "connectivity", "nonsense:1")
    assert code == EXIT_INPUT
    bad = tmp_path / "bad.g6"
    bad.write_text("##nope##\n", encoding="ascii")
    code, _, err = run_cli(capsys, "check", "--source", str(bad))
    assert code == EXIT_INPUT
    code, _, err = run_cli(capsys, "matching", "zxk:2")
    assert code == EXIT_INPUT  # infinite family has no finite matching


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cycle:2", "cycle needs n >= 3, got 2"),
        ("triangular:2", "triangular needs n >= 3, got 2"),
        ("hamming2:1", "hamming2 needs q >= 2, got 1"),
        ("product:cycle:3", "product spec needs two '+'-separated factors: 'product:cycle:3'"),
    ],
)
def test_bad_generator_parameters_are_input_errors(capsys, spec, message):
    code, out, err = run_cli(capsys, "matching", spec)
    assert code == EXIT_INPUT and out == ""
    assert f"error: {message}" in err


@pytest.mark.parametrize(
    "line, message",
    [
        (":", "empty graph6 payload"),
        ("~??!", "bad byte 33 in size prefix"),
        ("~?", "truncated size prefix"),
        (":AN", "self-loop at vertex 0 in sparse6 line"),  # networkx: loops at 0 and 1
    ],
)
def test_malformed_graph6_line_is_input_error(capsys, tmp_path, line, message):
    path = tmp_path / "bad.g6"
    path.write_text(f"{line}\n", encoding="ascii")
    code, out, err = run_cli(capsys, "matching", str(path))
    assert code == EXIT_INPUT and out == ""
    assert f"error: line 1: {message}" in err


def test_connectivity_of_a_single_vertex(capsys):
    code, out, _ = run_cli(capsys, "connectivity", "path:1")
    assert code == EXIT_OK and json.loads(out) == {"cut": None, "lambda": 0}


def test_cut_classification_of_a_disconnected_graph_is_input_error(capsys, tmp_path):
    path = tmp_path / "two_edges.txt"
    path.write_text("4 2\n0 1\n2 3\n", encoding="ascii")
    code, out, err = run_cli(capsys, "connectivity", str(path), "--classify-cuts")
    assert code == EXIT_INPUT and out == ""
    assert "error: cut classification requires a connected graph" in err


GRAPH6_NON_ASCII = "error: line 2: non-ASCII characters in graph6 line"


@pytest.mark.parametrize(
    "command, content, message",
    [
        (("check", "--source"), b"Bw\nC\xff~\n", GRAPH6_NON_ASCII),
        (("check", "--source"), b"Bw\n:C\xff~\n", GRAPH6_NON_ASCII),
        (("curvature",), b"\nC\xff~\n", GRAPH6_NON_ASCII),
        (("curvature",), b"\n:C\xff~\n", GRAPH6_NON_ASCII),
        (("curvature",), b"3 1\n0 \xff\n", "error: line 2: non-integer token '\\xff' in edge list"),
    ],
    ids=[
        "check-graph6",
        "check-sparse6",
        "curvature-graph6",
        "curvature-sparse6",
        "curvature-edge-list",
    ],
)
def test_non_ascii_byte_names_its_line(capsys, tmp_path, command, content, message):
    path = tmp_path / "bad.g6"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == EXIT_INPUT and out == ""
    assert message in err


@pytest.mark.parametrize(
    "command, content, message",
    [
        (("check", "--source"), b"Bw\n:C_m\n", "error: line 2: parallel edge (0, 1) in sparse6 line"),
        (("curvature",), b"3 2\n0 1\n1 0\n", "error: line 3: edge (1, 0) repeats line 2"),
    ],
    ids=["check-sparse6", "curvature-edge-list"],
)
def test_repeated_edge_is_input_error(capsys, tmp_path, command, content, message):
    path = tmp_path / "multi.g6"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, *command, str(path))
    assert code == EXIT_INPUT and out == ""
    assert message in err


def test_sparse6_data_after_the_edge_stream_is_input_error(capsys, tmp_path):
    path = tmp_path / "trailing.s6"
    path.write_bytes(b"Bw\n:DCFGO\n")
    code, out, err = run_cli(capsys, "check", "--source", str(path))
    assert code == EXIT_INPUT and out == ""
    assert "error: line 2: sparse6 data after the end of the edge stream at bit 8" in err


def test_check_rejects_repeated_theorem(capsys):
    argv = ("check", "--source", "exhaustive:2", "--theorems", "T1.1,T1.3,T1.1")
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert "theorem id 'T1.1' is given more than once" in err


@pytest.mark.parametrize("theorems", ["", "T1.1,,T1.3"])
def test_check_rejects_empty_theorem_id(capsys, theorems):
    argv = ("check", "--source", "exhaustive:2", "--theorems", theorems)
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT and out == ""
    assert "unknown theorem id ''" in err


def test_missing_file_is_input_error(capsys, tmp_path):
    code, _, err = run_cli(capsys, "connectivity", "no_such_file.g6")
    assert code == EXIT_INPUT
    for argv in (("matching", str(tmp_path)), ("check", "--source", str(tmp_path))):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT and err.startswith("error:"), argv


@pytest.mark.parametrize("content", ["", "\n", " \n\t\n\n"])
def test_check_on_a_file_without_graphs_is_input_error(capsys, tmp_path, content):
    # a truncated corpus printed [] and exited 0, as if it were clean
    path = tmp_path / "empty.g6"
    path.write_text(content, encoding="ascii")
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "check", "--source", str(path), "--out", str(report))
    assert code == EXIT_INPUT and out == "" and not report.exists()
    assert f"error: no graphs in {path}" in err


@pytest.mark.parametrize(
    "line, header",
    [
        (">>graph6<<:Bc", ">>graph6<<"),
        (">>sparse6<<Bw", ">>sparse6<<"),
        (">>graph6<<>>sparse6<<:Bc", ">>graph6<<"),
    ],
)
def test_mismatched_graph6_header_is_input_error(capsys, tmp_path, line, header):
    path = tmp_path / "header.g6"
    path.write_text(f"Bw\n{line}\n", encoding="ascii")
    code, out, err = run_cli(capsys, "check", "--source", str(path))
    assert code == EXIT_INPUT and out == ""
    assert f"error: line 2: header {header} is not followed by a" in err


def test_matching_reads_only_first_graph_of_file(capsys, tmp_path):
    path = tmp_path / "f.g6"
    path.write_text("Bw\n!!!bad\n", encoding="ascii")
    code, out, _ = run_cli(capsys, "matching", str(path))
    assert code == EXIT_OK
    assert json.loads(out) == {"size": 1, "perfect": False, "edges": [[0, 1]]}
    path.write_text("\n!!!bad\nBw\n", encoding="ascii")
    code, _, err = run_cli(capsys, "matching", str(path))
    assert code == EXIT_INPUT and "line 2" in err
    path.write_text("\n \n", encoding="ascii")
    code, _, err = run_cli(capsys, "matching", str(path))
    assert code == EXIT_INPUT and f"no graphs in {path}" in err


def test_single_graph_commands_read_a_file_to_its_first_graph(capsys, tmp_path):
    # the lines after the first graph are not read: about 8 MB of them
    # change neither the output nor the memory the command takes
    path = tmp_path / "long.g6"
    line = write_graph6(petersen()) + "\n"
    path.write_text("\n" + line, encoding="ascii")
    expected = run_cli(capsys, "matching", str(path))
    with path.open("a", encoding="ascii") as fh:
        fh.write(line * (8_000_000 // len(line)))
    tracemalloc.start()
    try:
        found = run_cli(capsys, "matching", str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == expected and expected[0] == EXIT_OK
    assert peak < 1 << 20, peak


@pytest.mark.parametrize(
    "argv",
    [
        ("check",),
        ("check", "--source", "exhaustive:3", "--parallelism", "2"),
        ("check", "--source", "exhaustive:3", "--seed", "1"),
        ("no-such-command",),
        ("conjecture", "--max-n", "+3"),  # int() reads these two
        ("conjecture", "--max-n", "\uff13"),
    ],
)
def test_usage_error_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_INPUT
    assert out == "" and "error:" in err


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "check", "--help")
    assert code == EXIT_OK and "--source" in out


def launch(tmp_path: Path, *argv: str, stdout=subprocess.PIPE) -> tuple[int, bytes, str]:
    """Exit code, stdout and stderr of `python -m curvlab.cli argv...`, the
    launch the benchmark times, run with stdout buffered (PYTHONUNBUFFERED
    removed) and an empty TMPDIR.  The process ends by `os._exit`, so a
    byte left in a buffer would be lost.  Asserts that no temporary file
    and no process of its session, such as a scan worker, outlive it."""
    tmp = tmp_path / "tmp"
    tmp.mkdir(parents=True)
    root = Path(__file__).resolve().parent.parent
    pythonpath = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(tmp))
    env.pop("PYTHONUNBUFFERED", None)
    with subprocess.Popen(
        [sys.executable, "-m", "curvlab.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    ) as proc:
        out, err = proc.communicate(timeout=120)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert list(tmp.iterdir()) == []
    return proc.returncode, out, err.decode()


def test_a_launch_writes_the_pinned_report(tmp_path):
    # the benchmark's pass writes its report to --out; to stdout it is
    # buffered until the closing copy's flush
    argv = ("check", "--source", "exhaustive:6")
    report = tmp_path / "report.json"
    code, out, err = launch(tmp_path / "out", *argv, "--out", str(report))
    assert (code, out) == (EXIT_OK, b""), err
    assert hashlib.sha256(report.read_bytes()).hexdigest() == EXHAUSTIVE6_JSON_SHA256
    summary = "\nchecked 1001 verdicts on 143 graphs: 101 applicable, 101 held, 0 violations\n"
    assert err == summary
    assert launch(tmp_path / "stdout", *argv) == (EXIT_OK, report.read_bytes(), summary)


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("check", "--help"), EXIT_OK),
        (("check", "--source", "gen:cycle:5;nonsense:3"), EXIT_INPUT),
        (("check",), EXIT_INPUT),
        (("matching", "petersen"), EXIT_OK),
        (("curvature", "cycle:5"), EXIT_OK),
    ],
    ids=["help", "bad-spec", "usage-error", "matching", "curvature"],
)
def test_a_launch_writes_what_main_writes(capsys, tmp_path, argv, exit_code):
    code, out, err = run_cli(capsys, *argv)
    assert code == exit_code and (out or err)
    assert launch(tmp_path, *argv) == (code, out.encode(), err)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [
        ("matching", "petersen"),
        ("curvature", "cycle:5"),
        ("check", "--source", "exhaustive:2"),
        ("check", "--help"),
    ],
    ids=["matching", "curvature", "check", "help"],
)
def test_a_failed_stdout_write_exits_3(tmp_path, argv):
    # with stdout buffered, each of these wrote less than the buffer holds,
    # and the failed write surfaced only at interpreter shutdown: CPython's
    # "Exception ignored" and exit code 120, after check's summary line
    with open("/dev/full", "wb") as full:
        code, _, err = launch(tmp_path, *argv, stdout=full)
    assert code == EXIT_INPUT
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err


# the child sets its own address-space limit, 2 GB as `ulimit -v 2000000`
# would, before it imports curvlab
_LIMITED_CLI = (
    "import resource, sys\n"
    "resource.setrlimit(resource.RLIMIT_AS, (2_048_000_000, 2_048_000_000))\n"
    "from curvlab.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


@pytest.mark.parametrize(
    "argv, content, limit",
    [
        (("check", "--source", "{F}"), ":~~~~~~~~\n", f"maximum order MAX_ORDER = {MAX_ORDER}"),
        (("matching", "{F}"), "100000000000 0\n", f"maximum order MAX_ORDER = {MAX_ORDER}"),
        (("matching", "cycle:100000000000"), None, f"maximum order MAX_ORDER = {MAX_ORDER}"),
        (("check", "--source", "gen:hypercube:40"), None, f"maximum order MAX_ORDER = {MAX_ORDER}"),
        (("curvature", "cycle:200000"), None, "above its limit of 268435456 entries"),
        (("curvature", "kbip:1,200000", "--vertex", "0"), None, "above its limit of 268435456 entries"),
        (("matching", "complete:200000"), None, f"maximum size MAX_EDGES = {MAX_EDGES}"),
        (("matching", "hamming2:500"), None, f"maximum size MAX_EDGES = {MAX_EDGES}"),
        (("curvature", "zxk:200000"), None, f"maximum size MAX_EDGES = {MAX_EDGES}"),
        # K_2898 in graph6: order 2898 is "~?lQ", then 4,197,753 one-bits
        pytest.param(
            ("check", "--source", "{F}"),
            "~?lQ" + "~" * 699_625 + "w\n",
            f"maximum size MAX_EDGES = {MAX_EDGES}",
            id="graph6-K2898",
        ),
        # 4.2e6 sparse6 records on two vertices
        pytest.param(
            ("matching", "{F}"),
            ":A" + "~" * 1_400_000 + "\n",
            f"maximum size MAX_EDGES = {MAX_EDGES}",
            id="sparse6-records",
        ),
        (("matching", "{F}"), "4096 4194305\n", f"maximum size MAX_EDGES = {MAX_EDGES}"),
    ],
)
def test_oversized_input_is_refused_before_allocation(tmp_path, argv, content, limit):
    # each of these died of a MemoryError traceback (exit 1) under a 2 GB
    # address-space limit: a sparse6 header or an edge-list header of order
    # 6.9e10 and 1e11, generator specs of order 1e11 and 2^40, the 37 GiB
    # dense adjacency of curvature's kernel on a 200000-cycle and of the
    # 2-ball of a 200000-leaf star's centre, and specs of about 2e10, 1.2e8
    # and 2e10 edges (zxk:k builds its K_k factor); file graphs of more than
    # MAX_EDGES edges are refused before their adjacency sets are built
    path = tmp_path / "graph.txt"
    if content is not None:
        path.write_text(content, encoding="ascii")
    root = Path(__file__).resolve().parent.parent
    pythonpath = [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, "-c", _LIMITED_CLI, *(a.replace("{F}", str(path)) for a in argv)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, pythonpath))),
        timeout=120,
    )
    assert result.returncode == EXIT_INPUT, result.stderr
    assert result.stdout == "" and "Traceback" not in result.stderr
    assert result.stderr.startswith("error: ") and limit in result.stderr
