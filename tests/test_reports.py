import json
import math
import tempfile
import tracemalloc
from dataclasses import dataclass, field, fields, is_dataclass
from functools import partial

import numpy as np
import pytest

from conftest import mixed_corpus, scan_pairs
from curvlab import cli
from curvlab.generators import cycle_graph, petersen
from curvlab.reports import FORMATS, Report, _dump, emit_report, encode, print_json, render
from curvlab.theorems import THEOREM_IDS, TheoremVerdict, check_theorem, corpus


def test_empty_json():
    # an empty report ends in one newline like any other
    assert render([]) == "[]\n"
    assert render([], "csv") == "theorem,graph,applicable,holds,detail\n"
    assert render([], "markdown") == "\n"


def test_single_verdict_csv():
    v = check_theorem(cycle_graph(4), "T1.4", "C4")
    text = render([v], "csv")
    lines = text.strip().splitlines()
    assert lines[0] == "theorem,graph,applicable,holds,detail"
    assert len(lines) == 2
    assert lines[1].startswith("T1.4,C4,True,True")


def test_markdown_one_table_per_theorem():
    verdicts = [
        check_theorem(cycle_graph(4), "T1.4", "C4"),
        check_theorem(petersen(), "T1.4", "petersen"),
        check_theorem(petersen(), "T1.3", "petersen"),
    ]
    text = render(verdicts, "markdown")
    assert text.count("## T1.4") == 1
    assert text.count("## T1.3") == 1
    assert "| C4 | True | True |" in text


def test_json_is_valid_and_stable():
    verdicts = [check_theorem(petersen(), "T2.5", "petersen")]
    text = render(verdicts)
    payload = json.loads(text)
    assert payload[0]["theorem"] == "T2.5"
    assert payload[0]["holds"] is True
    assert render(verdicts) == text


def test_evidence_serializes_certificates():
    v = check_theorem(cycle_graph(4), "T1.3", "C4")
    record = json.loads(render([v]))[0]
    cut = record["evidence"]["cut"]
    assert cut["value"] == 2
    assert isinstance(cut["side_L"], list)


def test_emit_report_to_file(capsys, tmp_path):
    # a graph at a time into the spool, then to a file or to stdout only by
    # the closing call: the bytes written are the texts returned, in order,
    # and the same text as the whole report in one string; every json and
    # csv text that is not empty ends in a newline
    graphs = [("C4", cycle_graph(4)), ("C5", cycle_graph(5)), ("petersen", petersen())]
    verdicts = [v for _, vs in scan_pairs(graphs, ("T1.3", "T1.4")) for v in vs]
    per_graph = [verdicts[:2], verdicts[2:3], verdicts[3:]]
    for fmt in FORMATS:
        whole = render(verdicts, fmt)
        for out in (tmp_path / f"report.{fmt}", None):
            with tempfile.TemporaryFile("w+", encoding="utf-8") as spool:
                report = Report(fmt, spool, None if out is None else str(out))
                texts = [emit_report(report, encode(part, fmt)) for part in per_graph]
                assert out is None or not out.exists()
                assert capsys.readouterr().out == ""
                texts.append(emit_report(report))
            assert "".join(texts) == whole
            assert all(t.endswith("\n") for t in texts if t or fmt == "json")
            written = capsys.readouterr().out if out is None else out.read_text(encoding="utf-8")
            assert written == whole


def test_emit_report_rejects_unknown_format():
    with pytest.raises(ValueError):
        Report("xml")


def test_nan_is_never_written(capsys):
    # json.dumps writes NaN, which is not JSON; every writer refuses it,
    # however deep it sits
    for evidence in ({"K": math.nan}, {"K": [1.0, (np.float64("nan"),)]}, {"K": {"x": -math.nan}}):
        v = TheoremVerdict("T1.3", "g", True, True, evidence)
        for write, arg in ((print_json, evidence), (render, [v]), (partial(render, fmt="csv"), [v])):
            with pytest.raises(ValueError):
                write(arg)
    assert capsys.readouterr().out == ""
    # infinities are written as the strings "inf" and "-inf", as before
    print_json({"K": math.inf, "L": -math.inf})
    assert json.loads(capsys.readouterr().out) == {"K": "inf", "L": "-inf"}


def plain(value):
    """The JSON-safe copy of a value that the report encoder writes: a
    dataclass becomes a dict of its fields, dict keys pass through str(), a
    frozenset becomes a sorted list and an infinity the string "inf" or
    "-inf"."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): plain(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return [plain(v) for v in sorted(value)]
    if isinstance(value, (list, tuple)):
        return [plain(v) for v in value]
    if isinstance(value, float) and math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return value


def assert_dumps_like_json(value):
    # json stays the oracle: the encoder writes json.dumps's bytes for the
    # plain copy, indented as a report and on one line as a CSV cell
    for indent in (2, None):
        expected = json.dumps(plain(value), indent=indent, sort_keys=True, allow_nan=False)
        assert _dump(value, indent=indent) == expected


def records(verdicts):
    return [
        {
            "theorem": v.theorem,
            "graph": v.graph_id,
            "applicable": v.applicable,
            "holds": v.holds,
            "evidence": v.evidence,
        }
        for v in verdicts
    ]


@pytest.fixture(scope="module")
def exhaustive6():
    return [v for _, vs in scan_pairs(corpus("exhaustive:6"), THEOREM_IDS) for v in vs]


def test_encoder_matches_json_on_every_record(exhaustive6):
    named = [v for _, vs in scan_pairs(sorted(mixed_corpus().items()), THEOREM_IDS) for v in vs]
    for verdicts in (exhaustive6, named):
        for record in records(verdicts):
            assert_dumps_like_json(record)
        assert render(verdicts) == json.dumps(
            plain(records(verdicts)), indent=2, sort_keys=True, allow_nan=False
        ) + "\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "hypercube:3"),
        ("curvature", "path:4", "--dimension", "2"),
        ("curvature", "zxk:3", "--vertex", "-4,2"),
        ("connectivity", "beta1", "--classify-cuts"),
        ("connectivity", "petersen", "--classify-cuts"),
        ("matching", "petersen"),
        ("regularity", "hamming2:3"),
        ("regularity", "path:3"),
        ("conjecture", "--max-n", "6"),
        ("beta1-search",),
    ],
)
def test_encoder_matches_json_on_command_payloads(monkeypatch, argv):
    payloads = []
    monkeypatch.setattr(cli, "print_json", payloads.append)
    assert cli.main(list(argv)) == cli.EXIT_OK
    [payload] = payloads
    assert_dumps_like_json(payload)


@dataclass(frozen=True)
class Inner:
    side: frozenset
    value: float


@dataclass(frozen=True)
class Outer:
    inner: Inner
    pairs: tuple
    empty: dict = field(default_factory=dict)


@pytest.mark.parametrize(
    "value",
    [
        [],
        {},
        [[], {}, [[]], {"a": {}, "b": []}],
        [math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e-7, 0.1, np.float64(2.5)],
        [np.float64(math.inf), 10**30, -(10**30), 0, True, False, None],
        ["", "caf\u00e9", "\u2028\u00ff\U0001f600", "\x00\x1f\x7f\"\\/\t\n", "\ud800"],
        {7: "int", True: "bool", None: "none", 2.5: "float", "b": 1, "a": 2},
        {"1": "string first", 1: "int last"},
        {1: "int first", "1": "string last"},
        {("x", 1): [(1, 2), ((),)]},
        [frozenset(), frozenset({100, 3, 64, 1}), frozenset({(2, 1), (1, 2)})],
        Outer(Inner(frozenset({5, 4}), math.inf), ((0, 1), (1, 2))),
        {"nested": [Outer(Inner(frozenset(), -0.0), (), {2: {}, 10: [math.inf]})]},
    ],
)
def test_encoder_matches_json_on_edge_values(value):
    assert_dumps_like_json(value)


def test_encoder_refuses_what_json_refuses():
    for value in ({1, 2}, [np.int64(1)], {"k": object()}):
        with pytest.raises(TypeError):
            json.dumps(plain(value))
        with pytest.raises(TypeError):
            _dump(value)


def test_render_json_peak_memory_is_a_small_multiple_of_the_text(exhaustive6):
    # json.dumps with an indent holds every token of the text in one list:
    # its peak was 9.3 times the text on this report, against 3.2 for the
    # encoder that joins each container's own strings
    tracemalloc.start()
    try:
        text = render(exhaustive6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * len(text)
