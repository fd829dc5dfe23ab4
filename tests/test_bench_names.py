"""The benchmark's traced run (`bench/tracing.py`) wraps the package's
functions by module and attribute name, and stops before it starts when
one of them is gone; every name it wraps must resolve in `src/curvlab`,
and a traced scan must still see the calls it counts."""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import curvlab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
PACKAGE = Path(curvlab.__file__).resolve().parent


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_to_package_callables():
    wraps = _tracing().WRAPS
    assert wraps
    assert PACKAGE.parent.name == "src"
    for module_name, attribute, _, _ in wraps:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == PACKAGE, module_name
        assert callable(getattr(module, attribute, None)), (module_name, attribute)


def _traced_run(tmp_path, *argv):
    """The span dump of `curvlab <argv>` run by the traced runner, which
    must exit 0."""
    dump = tmp_path / "spans.json"
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, str(TRACING), str(dump), "--", *argv],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert result.returncode == 0, result.stderr
    return json.loads(dump.read_text(encoding="utf-8"))


def test_traced_scan_counts_kernel_calls_and_verdicts(tmp_path):
    # a wrapper the kernel's callers no longer go through would read 0
    # kernel calls and still exit 0
    metrics = _tracing().layer_metrics(_traced_run(tmp_path, "check", "--source", "exhaustive:5"))
    assert metrics["curvature.graph_calls"]["value"] >= 1
    assert metrics["theorems.verdicts"]["value"] == 7 * (1 + 1 + 2 + 6 + 21)


def test_traced_vertex_query_goes_through_the_wrapped_names(tmp_path):
    # one --vertex query on an infinite family extracts one 2-ball (11
    # vertices at (-4, 2) of Z x K3) and solves one form, and builds no
    # reference form
    dump = _traced_run(tmp_path, "curvature", "zxk:3", "--vertex=-4,2")
    spans = Counter(dump["names"][i] for i in dump["span_name"])
    assert spans["curvature.vertex"] == spans["graph.ball"] == spans["curvature.eigh"] == 1
    assert "curvature.form" not in spans
    assert dump["counts"]["graph.ball_vertices"] == 11
