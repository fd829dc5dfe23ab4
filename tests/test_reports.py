import json
import math

import pytest

from curvlab.generators import cycle_graph, petersen
from curvlab.reports import emit_report, print_json, render_csv, render_json, render_markdown
from curvlab.theorems import TheoremVerdict, check_theorem


def test_empty_json():
    assert render_json([]) == "[]"


def test_single_verdict_csv():
    v = check_theorem(cycle_graph(4), "T1.4", "C4")
    text = render_csv([v])
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
    text = render_markdown(verdicts)
    assert text.count("## T1.4") == 1
    assert text.count("## T1.3") == 1
    assert "| C4 | True | True |" in text


def test_json_is_valid_and_stable():
    verdicts = [check_theorem(petersen(), "T2.5", "petersen")]
    text = render_json(verdicts)
    payload = json.loads(text)
    assert payload[0]["theorem"] == "T2.5"
    assert payload[0]["holds"] is True
    assert render_json(verdicts) == text


def test_evidence_serializes_certificates():
    v = check_theorem(cycle_graph(4), "T1.3", "C4")
    record = json.loads(render_json([v]))[0]
    cut = record["evidence"]["cut"]
    assert cut["value"] == 2
    assert isinstance(cut["side_L"], list)


def test_emit_report_to_file(capsys, tmp_path):
    # to a file or to stdout, the bytes written are the returned text and one
    # final newline, added only when the text lacks it (the json report)
    verdicts = [check_theorem(cycle_graph(4), "T1.4", "C4")]
    for fmt in ("json", "csv", "markdown"):
        out = tmp_path / f"report.{fmt}"
        text = emit_report(verdicts, fmt, str(out))
        assert text.endswith("\n") == (fmt != "json")
        written = (text if text.endswith("\n") else text + "\n").encode()
        assert out.read_bytes() == written and capsys.readouterr().out == ""
        assert emit_report(verdicts, fmt, None) == text
        assert capsys.readouterr().out.encode() == written


def test_emit_report_rejects_unknown_format(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], "xml", str(tmp_path / "x"))


def test_nan_is_never_written(capsys):
    # json.dumps writes NaN, which is not JSON; every writer refuses it
    v = TheoremVerdict("T1.3", "g", True, True, {"K": math.nan})
    for write, arg in ((print_json, {"K": math.nan}), (render_json, [v]), (render_csv, [v])):
        with pytest.raises(ValueError):
            write(arg)
    assert capsys.readouterr().out == ""
    # infinities are written as the strings "inf" and "-inf", as before
    print_json({"K": math.inf, "L": -math.inf})
    assert json.loads(capsys.readouterr().out) == {"K": "inf", "L": "-inf"}
