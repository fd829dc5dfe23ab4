"""The benchmark's traced run (`bench/tracing.py`) wraps the package's
functions by module and attribute name, and stops before it starts when
one of them is gone; every name it wraps must resolve in `src/curvlab`."""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import curvlab

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
PACKAGE = Path(curvlab.__file__).resolve().parent


def _wraps():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPS


def test_traced_names_resolve_to_package_callables():
    wraps = _wraps()
    assert wraps
    assert PACKAGE.parent.name == "src"
    for module_name, attribute, _, _ in wraps:
        module = importlib.import_module(module_name)
        assert Path(module.__file__).resolve().parent == PACKAGE, module_name
        assert callable(getattr(module, attribute, None)), (module_name, attribute)
