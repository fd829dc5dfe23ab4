"""Machine-readable verdict reports: JSON, CSV, and markdown.

Field order is fixed so identical scans serialize byte-identically; see
README for the JSON schema.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import fields, is_dataclass
from typing import Sequence

from .theorems import TheoremVerdict

CSV_HEADER = ("theorem", "graph", "applicable", "holds", "detail")


def _plain(value):
    """Recursively convert evidence values to JSON-safe structures; every
    caller dumps them with sorted keys and allow_nan=False, so a NaN raises
    a ValueError instead of being written as invalid JSON."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple, set)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def verdict_record(v: TheoremVerdict) -> dict:
    return {
        "theorem": v.theorem,
        "graph": v.graph_id,
        "applicable": v.applicable,
        "holds": v.holds,
        "evidence": _plain(v.evidence),
    }


def print_json(payload) -> None:
    """Write a command's payload to stdout as indented JSON with sorted keys."""
    print(json.dumps(_plain(payload), allow_nan=False, indent=2, sort_keys=True))


def render_json(verdicts: Sequence[TheoremVerdict]) -> str:
    return json.dumps(
        [verdict_record(v) for v in verdicts], allow_nan=False, indent=2, sort_keys=True
    )


def render_csv(verdicts: Sequence[TheoremVerdict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for v in verdicts:
        detail = json.dumps(_plain(v.evidence), allow_nan=False, sort_keys=True)
        writer.writerow([v.theorem, v.graph_id, v.applicable, v.holds, detail])
    return buf.getvalue()


def render_markdown(verdicts: Sequence[TheoremVerdict]) -> str:
    by_theorem: dict[str, list[TheoremVerdict]] = {}
    for v in verdicts:
        by_theorem.setdefault(v.theorem, []).append(v)
    lines = []
    for tid in sorted(by_theorem):
        lines.append(f"## {tid}")
        lines.append("")
        lines.append("| graph | applicable | holds |")
        lines.append("| --- | --- | --- |")
        for v in by_theorem[tid]:
            lines.append(f"| {v.graph_id} | {v.applicable} | {v.holds} |")
        lines.append("")
    return "\n".join(lines)


def emit_report(verdicts: Sequence[TheoremVerdict], fmt: str, out: str | None) -> str:
    """Render verdicts in the requested format and write them to `out`
    (a path, or stdout when None).  Returns the rendered text."""
    if fmt == "json":
        text = render_json(verdicts)
    elif fmt == "csv":
        text = render_csv(verdicts)
    elif fmt == "markdown":
        text = render_markdown(verdicts)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    return text
