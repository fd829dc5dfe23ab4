"""End-to-end benchmark of `curvlab check` on three corpus workloads.

    python3 bench/run.py --workload exhaustive7 --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is run from
`src/`, so nothing is installed.  A run prepares the workload's inputs
from the seed, then repeats rounds of two `curvlab check --help` launches and
one complete `curvlab check` pass until `--seconds` have passed, checks
the reports against values computed apart from curvlab (see checks.py),
and prints one JSON line as its last line of output:

    {"correct": ..., "attempted": <passes>, "failed": <passes>, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones: `wall_s`, the mean
pass; `setup_s`, the median launch; `peak_rss_mb`, the median peak
resident set of a pass.  The machine's speed drifts, so the launches
alternate with blocks of a fixed reference computation, and both times
are scaled by REF_NOMINAL_S over the run's mean reference unit time
(see README.md).  With `--trace 1` the run adds one traced in-process
pass (tracing.py) and prints the per-layer metrics instead, their times
scaled the same way, with the tracing overhead against `wall_s`.

Scratch files (corpus files, reports, timings, span dumps) go to `.bench_build/`
at the root of the checkout.  Exit code 2 without a result line means the
benchmark could not run, for example outside a checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import checks
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "curvlab"
SETUP_LAUNCHES_PER_ROUND = 2

# The reference computation that gauges the machine's speed during a run:
# dict updates and small symmetric eigensolves, the mix that curvlab's scan
# loop spends its time on.  A block of REF_UNITS units is timed back to back
# before the first launch and after every launch.  REF_NOMINAL_S is the
# mean unit time the run's launch times are scaled to: about one unit's
# time in the fast phase of the 2-core x86-64 machine the benchmark was
# built on, so that a scaled time reads close to the fastest raw ones there.
REF_UNITS = 10
REF_NOMINAL_S = 0.015
_REF_MATRIX = np.add.outer(np.arange(20.0), np.arange(20.0))


def reference_unit() -> None:
    d: dict[int, int] = {}
    for i in range(60000):
        d[i % 977] = d.get(i % 977, 0) + i
    for _ in range(100):
        np.linalg.eigh(_REF_MATRIX)


def reference_block() -> list[float]:
    """Seconds of each of REF_UNITS reference units, timed back to back."""
    times = []
    for _ in range(REF_UNITS):
        t0 = time.perf_counter()
        reference_unit()
        times.append(time.perf_counter() - t0)
    return times


def child_env() -> dict[str, str]:
    """The CLI's defaults: curvlab from src/, CURVLAB_THREADS unset."""
    env = {k: v for k, v in os.environ.items() if k != "CURVLAB_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv: list[str], stderr_path: Path) -> tuple[float, float, int]:
    """Run one process to its exit through launch.py: (wall seconds, peak
    RSS MiB, exit code)."""
    proc = subprocess.Popen(
        [sys.executable, "-S", str(BENCH / "launch.py"), str(stderr_path), *argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate()
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"launch.py exited with {proc.returncode} on {argv}")
    wall, rss_kib, code = out.split()
    return float(wall), int(rss_kib) / 1024.0, int(code)


def digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except FileNotFoundError:
        return None


def verify(report: Path, stderr: str, returncode: int, corpus) -> list[str]:
    """Every output check on one report; an empty list means it passed."""
    problems = checks.check_exit(returncode)
    try:
        records = json.loads(report.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return problems + [f"report unreadable: {exc}"]
    for name, found in checks.run_checks(records, corpus, stderr).items():
        problems += [f"{name}: {p}" for p in found]
    return problems


def measure(corpus, seconds: float, workdir: Path) -> dict:
    """Timed rounds until `seconds` have passed; every pass is checked."""
    cli = [sys.executable, "-m", "curvlab.cli"]
    report, err = workdir / "report.json", workdir / "stderr.txt"
    check_argv = cli + ["check", "--source", corpus.source, "--out", str(report)]
    help_argv = cli + ["check", "--help"]
    launch(help_argv, err)  # warm the bytecode and file caches, untimed
    reference_block()  # warm the reference computation, untimed
    setups, walls, rss, digests, exits = [], [], [], [], []
    stderr_of: dict[str | None, tuple[str, int]] = {}
    refs = reference_block()
    log = [("ref", refs[:])]  # every launch and reference block in order
    deadline = time.perf_counter() + seconds
    while True:
        for _ in range(SETUP_LAUNCHES_PER_ROUND):
            wall, _, code = launch(help_argv, err)
            setups.append((wall, code))
            block = reference_block()
            refs += block
            log += [("help", wall), ("ref", block)]
        report.unlink(missing_ok=True)
        wall, peak, code = launch(check_argv, err)
        walls.append(wall)
        block = reference_block()
        refs += block
        log += [("pass", wall), ("ref", block)]
        rss.append(peak)
        exits.append(code)
        digests.append(digest(report))
        if digests[-1] not in stderr_of:
            stderr_of[digests[-1]] = (err.read_text(encoding="utf-8", errors="replace"), code)
            if digests[-1] is not None:
                (workdir / f"report-{digests[-1][:12]}.json").write_bytes(report.read_bytes())
        if time.perf_counter() >= deadline:
            break
    (workdir / "timings.json").write_text(json.dumps(log), encoding="utf-8")
    # checks run once per distinct report, after the timed rounds
    problems_of = {}
    for d, (stderr, code) in stderr_of.items():
        path = workdir / f"report-{d[:12]}.json" if d else report
        problems_of[d] = verify(path, stderr, code, corpus)
    ok = [code == 0 and not problems_of[d] for d, code in zip(digests, exits)]
    failed_setups = sum(1 for _, code in setups if code != 0)
    # a failed pass may stop early, so only passes that passed are timed
    good = [w for w, passed in zip(walls, ok) if passed] or walls
    # the passes and the reference blocks alternate, so both means cover
    # the same mix of the machine's fast and slow spells
    scale = REF_NOMINAL_S / statistics.fmean(refs)
    return {
        "walls": walls,
        "scale": scale,
        "wall_s": statistics.fmean(good) * scale,
        "setup_s": statistics.median(w for w, _ in setups) * scale,
        "peak_rss_mb": statistics.median(rss),
        "attempted": len(walls),
        "failed": ok.count(False),
        "problems": sorted({p for d in problems_of for p in problems_of[d]})
        + ([f"{failed_setups} --help launches exited non-zero"] if failed_setups else []),
    }


def traced_pass(corpus, workdir: Path) -> tuple[float, dict, list[str]]:
    """One traced pass: (wall seconds, span dump, problems)."""
    report, dump, err = workdir / "traced.json", workdir / "spans.json", workdir / "traced.err"
    argv = [sys.executable, str(BENCH / "tracing.py"), str(dump), "--",
            "check", "--source", corpus.source, "--out", str(report)]
    report.unlink(missing_ok=True)
    dump.unlink(missing_ok=True)
    wall, _, code = launch(argv, err)
    stderr = err.read_text(encoding="utf-8", errors="replace")
    problems = verify(report, stderr, code, corpus)
    if code != 0 or not dump.exists():
        return wall, {}, problems + [f"traced run failed: {stderr[-500:]}"]
    return wall, json.loads(dump.read_text(encoding="utf-8")), problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that launch() kills and reaps the running launch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "curvlab" / "cli.py").is_file():
        print(f"error: no curvlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # exhaustive7 takes its graphs from curvlab's enumeration
    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    corpus = workloads.make_corpus(args.workload, args.seed, workdir)
    result = measure(corpus, args.seconds, workdir)
    wall_s = result["wall_s"]
    attempted, failed, problems = result["attempted"], result["failed"], result["problems"]

    if args.trace:
        traced_wall, dump, traced_problems = traced_pass(corpus, workdir)
        attempted += 1
        failed += bool(traced_problems)
        problems += traced_problems
        if not dump:
            print("\n".join(traced_problems), file=sys.stderr)
            return 2
        metrics = tracing.layer_metrics(dump)
        for metric in metrics.values():
            if metric["unit"] == "s":
                metric["value"] *= result["scale"]  # at the reference speed, like wall_s
        metrics["trace.wall_s"] = {"value": traced_wall * result["scale"], "unit": "s"}
        metrics["trace.overhead_pct"] = {
            "value": 100.0 * (traced_wall * result["scale"] / wall_s - 1.0), "unit": "%"
        }
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "setup_s": {"value": result["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }

    for p in problems[:50]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(
        f"{args.workload}: {result['attempted']} passes, "
        f"wall {', '.join(f'{w:.3f}' for w in result['walls'])} s, "
        f"scaled to the reference speed by {result['scale']:.4f}",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
