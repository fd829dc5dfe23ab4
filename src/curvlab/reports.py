"""Machine-readable verdict reports: JSON, CSV, and markdown.

Field order is fixed so identical scans serialize byte-identically; see
README for the JSON schema.  Every JSON byte the package writes, a
command's payload, a report or a CSV `detail` cell, comes from one dump
(`_dump`: sorted keys, NaN refused), and `emit_report` writes a report to
stdout or a file through one path.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import fields, is_dataclass
from typing import Sequence

from .theorems import TheoremVerdict

CSV_HEADER = ("theorem", "graph", "applicable", "holds", "detail")


def _plain(value):
    """Recursively convert evidence values to JSON-safe structures: a
    dataclass becomes a dict of its fields, a frozenset a sorted list and an
    infinity the string "inf" or "-inf"."""
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, frozenset):
        return sorted(value)
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    return value


def _dump(value, indent: int | None = 2) -> str:
    """The one JSON encoding of every writer: sorted keys, and a NaN raises
    ValueError instead of being written as invalid JSON."""
    return json.dumps(value, allow_nan=False, indent=indent, sort_keys=True)


def print_json(payload) -> None:
    """Write a command's payload to stdout as indented JSON with sorted keys."""
    print(_dump(_plain(payload)))


def render_json(verdicts: Sequence[TheoremVerdict]) -> str:
    return _dump(
        [
            {
                "theorem": v.theorem,
                "graph": v.graph_id,
                "applicable": v.applicable,
                "holds": v.holds,
                "evidence": _plain(v.evidence),
            }
            for v in verdicts
        ]
    )


def render_csv(verdicts: Sequence[TheoremVerdict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for v in verdicts:
        detail = _dump(_plain(v.evidence), indent=None)
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


# report format -> renderer; `curvlab check --format` offers these keys
RENDERERS = {"json": render_json, "csv": render_csv, "markdown": render_markdown}


def emit_report(verdicts: Sequence[TheoremVerdict], fmt: str, out: str | None) -> str:
    """Render verdicts in the requested format and write them, ending in
    one newline, to `out` (a path, or stdout when None).  Returns the
    rendered text."""
    if fmt not in RENDERERS:
        raise ValueError(f"unknown report format {fmt!r}")
    text = RENDERERS[fmt](verdicts)
    with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")
    return text
