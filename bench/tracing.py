"""Traced in-process run of `curvlab check`, and the per-layer metrics
derived from it.

    python3 bench/tracing.py DUMP -- check --source ... --out ...

runs in a fresh interpreter with `src/` on the path.  It replaces each
public function in `WRAPS` at the module attribute its callers resolve
with a wrapper that records a span (name, start, end, parent) and counts
in memory, calls `curvlab.cli.main` with the remaining arguments, writes
the spans and counts to DUMP as JSON and exits with main's exit code.  A
name in `WRAPS` that no longer exists stops the run before main starts.

`layer_metrics` turns a dump into the per-layer metrics.  Times are self
times (a span's duration minus the durations of its direct child spans),
summed over a layer's spans; the `theorems.<id>_s` times are the whole
checker span, since they show which checker carries a workload.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array


def _count_verdict(tracer: "Tracer", args, verdict) -> None:
    tracer.graph_ids.add(args[2])
    tracer.count("theorems.verdicts")
    tracer.count("theorems.applicable", int(verdict.applicable))


def _counter(key, size):
    return lambda tracer, args, result: tracer.count(key, size(result))


# (module, attribute, span name, counter).  A span name is the layer, a dot
# and the operation; several attributes may feed one span name.  A counter
# is called with the tracer, the call's arguments and its result.
WRAPS = (
    ("curvlab.enumeration", "all_graphs", "enumeration.all_graphs", None),
    (
        "curvlab.enumeration",
        "connected_graphs",
        "enumeration.all_graphs",
        _counter("enumeration.graphs", len),
    ),
    ("curvlab.theorems", "iter_graph6_file", "formats.parse", _counter("formats.graphs", len)),
    ("curvlab.theorems", "parse_family_spec", "generators.generate", None),
    ("curvlab.theorems", "generate", "generators.generate", None),
    (
        "curvlab.curvature",
        "ball",
        "graph.ball",
        _counter("graph.ball_vertices", lambda r: len(r[1].vertices)),
    ),
    ("curvlab.curvature", "curvature_form", "curvature.form", None),
    ("curvlab.curvature", "schur_reduce", "curvature.schur", None),
    ("curvlab.curvature", "min_eigenpair", "curvature.eigh", None),
    ("curvlab.curvature", "bakry_emery_curvature", "curvature.vertex", None),
    ("curvlab.theorems", "bakry_emery_curvature", "curvature.vertex", None),
    ("curvlab.theorems", "graph_curvature", "curvature.graph", None),
    ("curvlab.theorems", "edge_connectivity", "cuts.edge_connectivity", None),
    ("curvlab.cuts", "edge_connectivity", "cuts.edge_connectivity", None),
    ("curvlab.theorems", "classify_min_cuts", "cuts.classify", None),
    ("curvlab.cuts", "restricted_edge_connectivity", "cuts.restricted", None),
    ("curvlab.theorems", "maximum_matching", "matching.maximum_matching", None),
    ("curvlab.theorems", "detect_regularity", "regularity.detect", None),
    ("curvlab.regularity", "detect_regularity", "regularity.detect", None),
    ("curvlab.theorems", "local_graph_spectrum", "regularity.closed_form", None),
    ("curvlab.theorems", "arg_curvature_formula", "regularity.closed_form", None),
    ("curvlab.theorems", "bcn_check", "regularity.bcn", None),
    # one span name per checker: theorems.<id>
    ("curvlab.theorems", "check_theorem", "theorems", _count_verdict),
    (
        "curvlab.cli",
        "emit_report",
        "reports.emit",
        _counter("reports.bytes", lambda r: len(r.encode()) + (not r.endswith("\n"))),
    ),
)

THEOREM_IDS = ("T1.1", "T1.2", "T1.3", "T1.4", "C1.6", "T2.4", "T2.5")
ROOT_SPAN = "main"

# metric name -> (unit, how it is derived)
#   ("self", span names)   summed self time of the spans
#   ("whole", span name)   summed duration of the spans
#   ("calls", span name)   number of spans
#   ("count", key)         a counter recorded by the wrappers
#   ("per_graph", span)    spans per distinct scanned graph
LAYER_METRICS = {
    "enumeration.all_graphs_s": ("s", "self", "enumeration.all_graphs"),
    "enumeration.graphs": ("count", "count", "enumeration.graphs"),
    "formats.parse_s": ("s", "self", "formats.parse"),
    "formats.graphs": ("count", "count", "formats.graphs"),
    "generators.generate_s": ("s", "self", "generators.generate"),
    "graph.ball_s": ("s", "self", "graph.ball"),
    "graph.ball_calls": ("count", "calls", "graph.ball"),
    "graph.ball_vertices": ("count", "count", "graph.ball_vertices"),
    "curvature.form_s": ("s", "self", "curvature.form"),
    "curvature.schur_s": ("s", "self", "curvature.schur"),
    "curvature.eigh_s": ("s", "self", "curvature.eigh"),
    "curvature.vertex_s": ("s", "self", "curvature.vertex", "curvature.graph"),
    "curvature.vertex_calls": ("count", "calls", "curvature.vertex"),
    "curvature.graph_calls": ("count", "calls", "curvature.graph"),
    "curvature.graph_calls_per_graph": ("ratio", "per_graph", "curvature.graph"),
    "cuts.edge_connectivity_s": ("s", "self", "cuts.edge_connectivity"),
    "cuts.edge_connectivity_calls": ("count", "calls", "cuts.edge_connectivity"),
    "cuts.classify_s": ("s", "self", "cuts.classify"),
    "cuts.restricted_s": ("s", "self", "cuts.restricted"),
    "cuts.restricted_calls": ("count", "calls", "cuts.restricted"),
    "matching.maximum_matching_s": ("s", "self", "matching.maximum_matching"),
    "matching.calls": ("count", "calls", "matching.maximum_matching"),
    "regularity.detect_s": ("s", "self", "regularity.detect"),
    "regularity.detect_calls": ("count", "calls", "regularity.detect"),
    "regularity.detect_calls_per_graph": ("ratio", "per_graph", "regularity.detect"),
    "regularity.closed_form_s": ("s", "self", "regularity.closed_form"),
    "regularity.bcn_s": ("s", "self", "regularity.bcn"),
    **{f"theorems.{tid}_s": ("s", "whole", f"theorems.{tid}") for tid in THEOREM_IDS},
    "theorems.verdicts": ("count", "count", "theorems.verdicts"),
    "theorems.applicable": ("count", "count", "theorems.applicable"),
    "reports.emit_s": ("s", "self", "reports.emit"),
    "reports.bytes": ("bytes", "count", "reports.bytes"),
}


class Tracer:
    """Spans and counters kept in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.graph_ids: set[str] = set()

    def open(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start[idx] = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def wrap(self, module_name: str, attr: str, name: str, counter) -> None:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if not callable(fn):
            raise SystemExit(f"tracing: {module_name}.{attr} no longer exists; update WRAPS")
        per_theorem = name == "theorems"

        def traced(*args, **kwargs):
            idx = self.open(f"theorems.{args[1]}" if per_theorem else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                counter(self, args, result)
            return result

        setattr(module, attr, traced)

    def dump(self) -> dict:
        return {
            "names": self.names,
            "span_name": self.span_name.tolist(),
            "parent": self.parent.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counts": self.counts,
            "graphs": len(self.graph_ids),
        }


def layer_metrics(dump: dict) -> dict[str, dict]:
    """Per-layer metrics, {name: {"value": v, "unit": u}}, from a span dump."""
    names = dump["names"]
    span_name, parent = dump["span_name"], dump["parent"]
    duration = [e - s for s, e in zip(dump["start"], dump["end"])]
    child_time = [0.0] * len(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += duration[i]
    self_by_name: dict[str, float] = {}
    whole_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    for i, nid in enumerate(span_name):
        name = names[nid]
        self_by_name[name] = self_by_name.get(name, 0.0) + duration[i] - child_time[i]
        whole_by_name[name] = whole_by_name.get(name, 0.0) + duration[i]
        calls_by_name[name] = calls_by_name.get(name, 0) + 1
    counts, graphs = dump["counts"], dump["graphs"]
    out = {}
    for metric, (unit, kind, *keys) in LAYER_METRICS.items():
        if kind == "self":
            value = sum(self_by_name.get(k, 0.0) for k in keys)
        elif kind == "whole":
            value = whole_by_name.get(keys[0], 0.0)
        elif kind == "calls":
            value = calls_by_name.get(keys[0], 0)
        elif kind == "count":
            value = counts.get(keys[0], 0)
        else:  # per_graph
            value = calls_by_name.get(keys[0], 0) / graphs if graphs else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        raise SystemExit("usage: tracing.py DUMP -- <curvlab arguments>")
    dump_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    for entry in WRAPS:
        tracer.wrap(*entry)
    from curvlab.cli import main as cli_main

    root = tracer.open(ROOT_SPAN)
    try:
        code = cli_main(cli_args)
    finally:
        tracer.close(root)
    with open(dump_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
