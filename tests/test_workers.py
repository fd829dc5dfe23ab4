"""Scans on several processes (`curvlab.workers`): the reports, summaries,
violations and failures of a run with two workers are those of a run with
one, and no worker outlives the run on any way out.

The worker count is forced by the `cpus` fixture of conftest; a worker
forked during a test runs the test's own replacements, which the tests use
to plant violations and failures in chunks that a forked worker owns."""

from __future__ import annotations

import os
import random
import signal
import time
from contextlib import contextmanager

import pytest

from curvlab import theorems, workers
from curvlab.cli import EXIT_INPUT, EXIT_OK, EXIT_VIOLATION, EXIT_WORKER, main
from curvlab.enumeration import connected_graphs_upto
from curvlab.formats import write_graph6
from curvlab.graph import GraphError
from curvlab.reports import FORMATS, THEOREM_IDS, render
from curvlab.theorems import TheoremVerdict, conjecture_scan
from conftest import mixed_corpus

# four chunks: seven graphs, five graphs, cycle:260 alone and hamming2:3
GEN_MIX = (
    "gen:hypercube:6;cycle:5;petersen;hamming2:4;paley:13;triangular:7;hypercube:5;"
    "cycle:100;complete:4;beta1_counterexample;product:cycle:4+hypercube:3;kbip:3,4;"
    "cycle:260;hamming2:3"
)


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes forked in this test, as this process saw them."""
    pids = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


@pytest.fixture
def g6_file(tmp_path):
    graphs = [g for _, g in connected_graphs_upto(6)] + list(mixed_corpus().values())
    path = tmp_path / "corpus.g6"
    path.write_text("".join(write_graph6(g) + "\n" for g in graphs), encoding="ascii")
    return str(path)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True


@contextmanager
def deadline(seconds):
    """Fail the test, rather than hang it, if the block takes too long."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def chunk_ids(source):
    """The graph ids of each chunk a scan of `source` forms."""
    return [[gid for gid, _ in chunk] for chunk in theorems._chunks(theorems.corpus(source))]


def plant(monkeypatch, act):
    """Run act(g, tid, gid) in place of each checker call, falling back to
    the checker when it returns None."""
    check = theorems.check_theorem

    def planted(g, tid, gid="?", facts=None):
        verdict = act(g, tid, gid)
        return check(g, tid, gid, facts) if verdict is None else verdict

    monkeypatch.setattr(theorems, "check_theorem", planted)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("source", ["exhaustive:6", GEN_MIX, "g6"])
def test_two_workers_write_the_report_of_one(capsys, cpus, forks, g6_file, fmt, source):
    source = g6_file if source == "g6" else source
    assert len(chunk_ids(source)) >= 3
    runs = []
    for k in (1, 2):
        cpus(k)
        runs.append(run(capsys, "check", "--source", source, "--format", fmt))
    assert runs[0][0] == EXIT_OK and runs[0][1]
    assert runs[1] == runs[0]
    assert len(forks) == 1 and no_child_left()


def test_conjecture_scan_with_two_workers(cpus, forks):
    cpus(1)
    one = conjecture_scan(6)
    cpus(2)
    assert conjecture_scan(6) == one and list(conjecture_scan(6)["table"]) == list(one["table"])
    assert one["nonnegative_curvature_graphs"] > 0
    assert len(forks) == 2 and no_child_left()


@pytest.mark.parametrize("source", ["exhaustive:6", GEN_MIX])
def test_verdicts_from_a_worker_render_as_in_one_process(cpus, forks, source):
    # the summary is the verdicts themselves, evidence objects and all, so
    # everything a report reads of them travels from the forked worker
    def summarize(pairs):
        return [v for _, verdicts in pairs for v in verdicts]

    renders = []
    for k in (1, 2):
        cpus(k)
        verdicts = []
        theorems.scan(theorems.corpus(source), THEOREM_IDS, summarize, verdicts.extend)
        renders.append([render(verdicts, fmt) for fmt in FORMATS])
    assert renders[1] == renders[0]
    assert len(forks) == 1 and no_child_left()


def test_a_summary_that_does_not_pickle_fails_the_run_at_its_chunk(cpus, forks):
    # a generator does not pickle: the first chunk's, made here, is taken;
    # the forked worker's, the second chunk's, fails the run in its place
    def summarize(pairs):
        return (v.graph_id for _, [v] in pairs)

    cpus(2)
    chunks = chunk_ids(GEN_MIX)
    taken = []
    with pytest.raises(TypeError, match="pickle 'generator' object"):
        theorems.scan(theorems.corpus(GEN_MIX), ("T1.3",), summarize, taken.append)
    assert [list(ids) for ids in taken] == chunks[:1]
    assert len(forks) == 1 and no_child_left()


def test_violations_planted_in_workers_chunks_come_out_in_corpus_order(
    capsys, cpus, forks, monkeypatch
):
    chunks = chunk_ids("exhaustive:6")
    # graphs of chunks owned by the forked worker (odd) and by this process
    targets = {chunks[1][0], chunks[1][-1], chunks[2][3], chunks[3][1], chunks[0][5]}
    plant(
        monkeypatch,
        lambda g, tid, gid: TheoremVerdict(tid, gid, True, False, {"planted": gid})
        if gid in targets and tid in ("T1.3", "T2.4")
        else None,
    )
    runs = []
    for k in (1, 2):
        cpus(k)
        runs.append(run(capsys, "check", "--source", "exhaustive:6"))
    assert runs[1] == runs[0] and runs[0][0] == EXIT_VIOLATION
    order = [gid for chunk in chunks for gid in chunk if gid in targets]
    lines = [line for line in runs[1][2].splitlines() if line.startswith("VIOLATION")]
    expected = [(tid, gid) for gid in order for tid in ("T1.3", "T2.4")]
    assert lines == [f"VIOLATION {tid} on {gid}: {{'planted': '{gid}'}}" for tid, gid in expected]
    assert "10 violations" in runs[1][2]
    assert len(forks) == 1 and no_child_left()


@pytest.mark.parametrize("out", [False, True])
def test_a_bad_spec_late_in_the_corpus_exits_3_and_writes_nothing(
    capsys, cpus, forks, tmp_path, out
):
    # the unknown family is read in the third chunk, after the fork
    source = "gen:" + "cycle:100;" * 6 + "cycle:5;nonsense:3"
    report = tmp_path / "report.json"
    runs = []
    for k in (1, 2):
        cpus(k)
        argv = ("check", "--source", source, *(("--out", str(report)) if out else ()))
        runs.append(run(capsys, *argv))
    assert runs[1] == runs[0]
    code, stdout, err = runs[1]
    assert code == EXIT_INPUT and stdout == "" and not report.exists()
    assert err == "error: unknown graph family 'nonsense'\n"
    assert len(forks) == 1 and no_child_left()


def test_a_graph_error_in_a_worker_reads_as_in_one_process(capsys, cpus, forks, monkeypatch):
    chunks = chunk_ids(GEN_MIX)
    target = chunks[1][0]  # the forked worker's first graph

    def fail(g, tid, gid):
        if gid == target and tid == "T1.4":
            raise GraphError(f"planted failure on {gid}")

    plant(monkeypatch, fail)
    runs = []
    for k in (1, 2):
        cpus(k)
        runs.append(run(capsys, "check", "--source", GEN_MIX))
    assert runs[1] == runs[0] == (EXIT_INPUT, "", f"error: planted failure on {target}\n")
    assert len(forks) == 1 and no_child_left()


def test_a_killed_worker_fails_the_run_without_a_report(capsys, cpus, forks, monkeypatch, tmp_path):
    parent = os.getpid()
    target = chunk_ids(GEN_MIX)[1][0]

    def die(g, tid, gid):
        if gid == target and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)

    plant(monkeypatch, die)
    cpus(2)
    report = tmp_path / "report.json"
    with deadline(60):
        code, stdout, err = run(capsys, "check", "--source", GEN_MIX, "--out", str(report))
    assert code == EXIT_WORKER and stdout == "" and not report.exists()
    assert err == f"error: scan worker {forks[0]} ended without its results (killed by signal 9)\n"
    assert no_child_left()


def test_sigterm_kills_and_reaps_the_workers(capsys, cpus, forks, monkeypatch):
    # this process is sent SIGTERM in its second chunk, while the forked
    # worker sleeps in its own second chunk: the run must end at once
    parent = os.getpid()
    chunks = chunk_ids(GEN_MIX)
    here, there = chunks[2][0], chunks[3][0]

    def act(g, tid, gid):
        if gid == here and os.getpid() == parent:
            os.kill(parent, signal.SIGTERM)
        if gid == there and os.getpid() != parent:
            time.sleep(300)

    plant(monkeypatch, act)
    cpus(2)
    handler = signal.getsignal(signal.SIGTERM)
    with deadline(60), pytest.raises(SystemExit) as stop:
        main(["check", "--source", GEN_MIX])
    assert stop.value.code == 128 + signal.SIGTERM
    assert capsys.readouterr().out == ""
    assert signal.getsignal(signal.SIGTERM) is handler
    assert len(forks) == 1 and no_child_left()


def test_for_each_takes_results_in_chunk_order(cpus):
    # more workers than CPUs; chunk i is worked on by worker i mod 4, and
    # worker 0 is this process
    cpus(4)
    taken = []
    workers.for_each(range(10), lambda i: (i, os.getpid()), taken.append)
    assert [i for i, _ in taken] == list(range(10))
    pids = [pid for _, pid in taken]
    assert pids[0::4] == [os.getpid()] * 3
    assert len(set(pids)) == 4 and all(pids[i] == pids[i % 4] for i in range(10))
    assert no_child_left()


def test_for_each_raises_an_error_of_the_first_chunks_in_its_place(cpus, forks):
    # the first chunks are read before any fork; an error while reading them
    # comes after the chunks before it, as in one process
    def chunks():
        yield 0
        raise ValueError("unreadable second chunk")

    cpus(4)
    taken = []
    with pytest.raises(ValueError, match="unreadable second chunk"):
        workers.for_each(chunks(), lambda i: i * 10, taken.append)
    assert taken == [0] and forks == []


def test_for_each_raises_a_workers_exception_as_it_was(cpus):
    parent = os.getpid()

    def work(i):
        if i == 3:
            where = "this process" if os.getpid() == parent else "a worker"
            raise GraphError(f"chunk {i} failed in {where}")
        return i

    cpus(2)
    taken = []
    with pytest.raises(GraphError, match="^chunk 3 failed in a worker$"):
        workers.for_each(range(6), work, taken.append)
    assert taken == [0, 1, 2] and no_child_left()


@pytest.mark.parametrize("k", [2, 4])
def test_records_larger_than_a_pipe_buffer_arrive_whole(cpus, forks, k):
    # each result is many pipe buffers long, so a worker's write of it waits
    # for this process to load the records before it
    def big(i):
        return random.Random(i).randbytes(2**20 + i)

    cpus(k)
    taken = []
    with deadline(60):
        workers.for_each(range(3 * k), lambda i: (i, big(i)), taken.append)
    assert [i for i, _ in taken] == list(range(3 * k))
    assert all(data == big(i) for i, data in taken)
    assert len(forks) == k - 1 and no_child_left()


def sleeping(pid):
    """Whether the process sleeps, as a worker does whose pipe is full."""
    with open(f"/proc/{pid}/stat") as fh:
        return fh.read().rsplit(")", 1)[1].split()[0] == "S"


def test_a_worker_killed_inside_a_record_fails_the_run(cpus, forks, tmp_path):
    # chunk 1's result is 16 pipe buffers long: its worker writes the first
    # and waits while this process is still in take of chunk 0, and is
    # killed there, half way through the record
    ready = tmp_path / "pid"

    def work(i):
        if i == 1:
            (tmp_path / "pid.tmp").write_text(str(os.getpid()))
            os.replace(tmp_path / "pid.tmp", ready)
            return bytes(2**20)
        return i

    def take(result):
        if result == 0:
            while not ready.exists():
                time.sleep(0.01)
            pid = int(ready.read_text())
            while os.path.exists(f"/proc/{pid}") and not sleeping(pid):
                time.sleep(0.01)
            os.kill(pid, signal.SIGKILL)

    cpus(2)
    with deadline(60), pytest.raises(workers.WorkerError) as failure:
        workers.for_each(range(2), work, take)
    assert str(failure.value) == (
        f"scan worker {forks[0]} ended without its results (killed by signal 9)"
    )
    assert no_child_left()


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
@pytest.mark.parametrize("ending", ["normal", "work raises", "take raises"])
def test_for_each_leaves_the_open_descriptors_as_it_found_them(cpus, forks, ending):
    # chunk 3 belongs to the forked worker, chunk 2 to this process
    def work(i):
        if ending == "work raises" and i == 3:
            raise GraphError(f"chunk {i}")
        return i

    def take(i):
        if ending == "take raises" and i == 2:
            raise GraphError(f"chunk {i}")

    cpus(2)
    before = sorted(os.listdir("/proc/self/fd"))
    if ending == "normal":
        workers.for_each(range(6), work, take)
    else:
        with pytest.raises(GraphError, match="^chunk [23]$"):
            workers.for_each(range(6), work, take)
    assert sorted(os.listdir("/proc/self/fd")) == before
    assert len(forks) == 1 and no_child_left()
