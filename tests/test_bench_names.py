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


def test_traced_scan_counts_kernel_calls_and_verdicts(tmp_path):
    # a wrapper the kernel's callers no longer go through would read 0
    # kernel calls and still exit 0
    dump = tmp_path / "spans.json"
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    result = subprocess.run(
        [sys.executable, str(TRACING), str(dump), "--", "check", "--source", "exhaustive:5"],
        capture_output=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path))),
    )
    assert result.returncode == 0, result.stderr
    metrics = _tracing().layer_metrics(json.loads(dump.read_text(encoding="utf-8")))
    assert metrics["curvature.graph_calls"]["value"] >= 1
    assert metrics["theorems.verdicts"]["value"] == 7 * (1 + 1 + 2 + 6 + 21)
