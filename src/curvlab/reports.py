"""Machine-readable verdict reports: JSON, CSV, and markdown.

Field order is fixed so identical scans serialize byte-identically; see
README for the JSON schema.  Every JSON byte the package writes, a
command's payload, a report or a CSV `detail` cell, comes from one direct
encoder (`_dump`: sorted keys, NaN refused), and `emit_report` writes a
report to stdout or a file through one path.
"""

from __future__ import annotations

import csv
import io
import math
import sys
from contextlib import nullcontext
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Sequence

from .theorems import TheoremVerdict

CSV_HEADER = ("theorem", "graph", "applicable", "holds", "detail")
_CONSTANTS = {None: "null", True: "true", False: "false"}


def _dump(value, indent: int | None = 2) -> str:
    """The JSON text of `value`, byte for byte what `json.dumps(plain,
    indent=indent, sort_keys=True, allow_nan=False)` writes for its plain
    copy: a dataclass becomes a dict of its fields, a dict's keys go through
    str() (the last of two keys equal under str() wins), a frozenset becomes
    a sorted list, a tuple a list and an infinity the string "inf" or
    "-inf".  A NaN raises ValueError instead of being written as invalid
    JSON.

    `json.dumps` with an indent runs its pure-Python encoder, which holds
    every token of the text in one list; here each container joins its own
    children's strings, which C encodes: strings by json's
    `encode_basestring_ascii`, numbers by `int.__repr__` and `float.__repr__`.
    """
    return _encode(value, "" if indent is None else "\n", " " * (indent or 0))


def _encode(value, nl: str, pad: str) -> str:
    """`value` encoded on a line that starts with `nl`, a newline and the
    line's indentation ("" when the text is one line), with `pad` added to
    the indentation per level."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            raise ValueError(f"NaN is not JSON: {value!r}")
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return float.__repr__(value)
    inner = nl and nl + pad
    if isinstance(value, dict):
        plain = {str(k): v for k, v in value.items()}
        parts = [
            f"{encode_basestring_ascii(k)}: {_encode(plain[k], inner, pad)}" for k in sorted(plain)
        ]
        brackets = "{}"
    elif isinstance(value, (list, tuple, frozenset)):
        items = sorted(value) if isinstance(value, frozenset) else value
        parts = [_encode(v, inner, pad) for v in items]
        brackets = "[]"
    elif is_dataclass(value) and not isinstance(value, type):
        return _encode({f.name: getattr(value, f.name) for f in fields(value)}, nl, pad)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not parts:
        return brackets
    # the brackets ride on the first and last parts, so that one join builds
    # the text and no copy of it is made
    parts[0] = brackets[0] + inner + parts[0]
    parts[-1] += nl + brackets[1]
    return ("," + inner if nl else ", ").join(parts)


def print_json(payload) -> None:
    """Write a command's payload to stdout as indented JSON with sorted keys."""
    print(_dump(payload))


def render_json(verdicts: Sequence[TheoremVerdict]) -> str:
    return _dump(
        [
            {
                "theorem": v.theorem,
                "graph": v.graph_id,
                "applicable": v.applicable,
                "holds": v.holds,
                "evidence": v.evidence,
            }
            for v in verdicts
        ]
    )


def render_csv(verdicts: Sequence[TheoremVerdict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for v in verdicts:
        detail = _dump(v.evidence, indent=None)
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
