"""The traced run refuses a missing wrapped name and derives self times.

    python3 -m pytest bench/test_tracing.py -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import tracing  # noqa: E402


def test_missing_name_stops_the_run():
    with pytest.raises(SystemExit, match="no_such_function no longer exists"):
        tracing.Tracer().wrap("curvlab.curvature", "no_such_function", "curvature.form", None)


def test_self_time_subtracts_direct_children():
    # main [0, 10] > form [1, 5] > ball [2, 3];  main > ball [6, 7]
    dump = {
        "names": ["main", "curvature.form", "graph.ball"],
        "span_name": [0, 1, 2, 2],
        "parent": [-1, 0, 1, 0],
        "start": [0.0, 1.0, 2.0, 6.0],
        "end": [10.0, 5.0, 3.0, 7.0],
        "counts": {"graph.ball_vertices": 9},
        "graphs": 1,
    }
    metrics = tracing.layer_metrics(dump)
    assert metrics["curvature.form_s"]["value"] == 3.0
    assert metrics["graph.ball_s"]["value"] == 2.0
    assert metrics["graph.ball_calls"]["value"] == 2
    assert metrics["graph.ball_vertices"]["value"] == 9
    assert metrics["cuts.restricted_s"]["value"] == 0.0
