"""Machine-readable verdict reports: JSON, CSV, and markdown.

Field order is fixed so identical scans serialize byte-identically; see
README for the JSON schema.  Every JSON byte the package writes, a
command's payload, a report or a CSV `detail` cell, comes from one direct
encoder (`_dump`: sorted keys, NaN refused).  `encode` turns verdicts into
report rows, a `Report` puts the rows together a graph at a time, and
`emit_report` writes the report, through a spool, to stdout or a file.
"""

from __future__ import annotations

import csv
import io
import math
import shutil
import sys
from contextlib import nullcontext
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import IO, TYPE_CHECKING, Sequence

if TYPE_CHECKING:  # annotations only: loading the checkers loads numpy
    from .theorems import TheoremVerdict

# the checker ids, in the order of a scan with all of them; here rather than
# in `theorems`, so that the command line's parser reads them without numpy
THEOREM_IDS = ("T1.1", "T1.2", "T1.3", "T1.4", "C1.6", "T2.4", "T2.5")
CSV_HEADER = "theorem,graph,applicable,holds,detail\n"
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
    """Write a command's payload to stdout as indented JSON with sorted keys,
    and flush it, so that a failed write raises here."""
    print(_dump(payload), flush=True)


# the report formats `curvlab check --format` offers
FORMATS = ("json", "csv", "markdown")


def encode(verdicts: Sequence[TheoremVerdict], fmt: str) -> list[tuple[str, str]]:
    """Each verdict's checker id and its text in a report of format `fmt`:
    a JSON record, a CSV line or a markdown table row.  `Report.add` places
    them in the report; the encoding can run in another process."""
    if fmt == "json":
        return [(v.theorem, _record(v)) for v in verdicts]
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        rows = []
        for v in verdicts:
            detail = _dump(v.evidence, indent=None)
            writer.writerow([v.theorem, v.graph_id, v.applicable, v.holds, detail])
            rows.append((v.theorem, buf.getvalue()))
            buf.seek(0)
            buf.truncate()
        return rows
    return [(v.theorem, f"| {v.graph_id} | {v.applicable} | {v.holds} |") for v in verdicts]


class Report:
    """One verdict report, put together a graph at a time.

    `add` places the rows `encode` made of some verdicts and returns the
    text they add, and `end` returns the text that closes the report; in
    the order of the calls their texts make the whole report, which ends
    in one newline, however the verdicts are split between the calls.
    JSON holds back its last record until it knows whether a comma
    follows, CSV writes its lines as they come, and markdown, whose tables
    are grouped by checker id, keeps its rows and writes the tables at the
    end.

    `emit_report` writes the texts to `spool`, and its closing call copies
    the spool to `out` (a path, or stdout when None), so output is written
    only once the whole report is.
    """

    def __init__(self, fmt: str, spool: IO[str] | None = None, out: str | None = None):
        if fmt not in FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")
        self.fmt, self.spool, self.out = fmt, spool, out
        self.held: str | None = None  # json: the last record so far
        self.header = False  # csv: whether the header is written
        self.rows: dict[str, list[str]] = {}  # markdown: table rows by checker id

    def add(self, rows: Sequence[tuple[str, str]]) -> str:
        """The text of `rows`, the (checker id, text) pairs of the report's
        next verdicts."""
        if self.fmt == "json":
            records = [] if self.held is None else [self.held]
            records += [text for _, text in rows]
            if not records:
                return ""
            opening = "[\n" if self.held is None else ""
            self.held = records.pop()
            return opening + "".join(f"  {r},\n" for r in records)
        if self.fmt == "csv":
            header = "" if self.header else CSV_HEADER
            self.header = True
            return header + "".join(text for _, text in rows)
        for theorem, text in rows:
            self.rows.setdefault(theorem, []).append(text)
        return ""

    def end(self) -> str:
        """The text that closes the report."""
        if self.fmt == "json":
            return "[]\n" if self.held is None else f"  {self.held}\n]\n"
        if self.fmt == "csv":
            return "" if self.header else self.add(())
        tables = [
            f"## {tid}\n\n| graph | applicable | holds |\n| --- | --- | --- |\n"
            + "".join(f"{row}\n" for row in self.rows[tid])
            for tid in sorted(self.rows)
        ]
        return "\n".join(tables) or "\n"


def _record(v: TheoremVerdict) -> str:
    """The JSON record of `v` in a report's list: the text `_encode` writes
    for {"theorem", "graph", "applicable", "holds", "evidence"}, its fixed
    keys spelled here in sorted order and each value encoded by `_encode`
    (about 0.6 of the time `_encode` of the dict takes)."""
    nl = "\n    "
    return (
        f'{{{nl}"applicable": {_encode(v.applicable, nl, "  ")},'
        f'{nl}"evidence": {_encode(v.evidence, nl, "  ")},'
        f'{nl}"graph": {_encode(v.graph_id, nl, "  ")},'
        f'{nl}"holds": {_encode(v.holds, nl, "  ")},'
        f'{nl}"theorem": {_encode(v.theorem, nl, "  ")}\n  }}'
    )


def render(verdicts: Sequence[TheoremVerdict], fmt: str = "json") -> str:
    """The whole report of `verdicts` in one string, as `emit_report` writes it."""
    report = Report(fmt)
    return report.add(encode(verdicts, fmt)) + report.end()


def emit_report(report: Report, rows: Sequence[tuple[str, str]] | None = None) -> str:
    """Write the text of one graph's rows (see `encode`) to the report's
    spool, or, called without rows, the text that closes the report, and
    then copy the spool to the report's destination and flush it.  Returns
    the text written to the spool."""
    text = report.end() if rows is None else report.add(rows)
    report.spool.write(text)
    if rows is None:
        report.spool.seek(0)
        out = report.out
        with nullcontext(sys.stdout) if out is None else open(out, "w", encoding="utf-8") as fh:
            shutil.copyfileobj(report.spool, fh)
            fh.flush()  # stdout's failed write raises here, as a file's would on close
    return text
