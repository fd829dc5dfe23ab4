"""Chunks of a corpus worked on every usable CPU, their results taken in
order.

`for_each(chunks, work, take)` calls `take(work(chunk))` for every chunk,
in chunk order, as a loop would; but `work` runs in W processes, W being
the usable CPUs (`usable_cpus`) capped at the number of chunks.  Chunk i
belongs to worker i mod W.  Worker 0 is this process, and the others are
forked once the first W chunks have been read, so a graph6 file parsed or
an enumeration built while reading them is shared copy-on-write rather
than made again.  Every worker walks all the chunks and works only on its
own; so the chunks must come out the same in each process, as a corpus
does, and a chunk should cost little to walk past.  With one worker
nothing is forked and the same loop runs here alone.

A forked worker writes each of its results, pickled whole, to its pipe,
and this process loads them from the pipes in chunk order; so a worker
runs at most one pipe buffer ahead of this one (64 KiB on Linux, about
one exhaustive:7 chunk's record).  `take` always runs here.  An
exception that `work`, the walk or the pickling of a result raises in a
worker travels pickled too, and is raised here in place of the result of
the chunk it stopped at: the run fails where, and as, a loop in one
process would.  A worker that ends without its results, or in the middle
of one, raises `WorkerError`.  On every way out, SIGTERM included, this
process kills the workers still running and reaps them all before it
returns.
"""

from __future__ import annotations

import os
import pickle
import sys
from contextlib import contextmanager
from itertools import chain, islice
from typing import Callable, Iterable, Iterator, TypeVar

C = TypeVar("C")
R = TypeVar("R")


class WorkerError(RuntimeError):
    """A forked worker failed in a way that cannot be raised here as it
    was: it ended without its results or badly after them, or raised an
    exception that does not pickle."""


def usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def for_each(chunks: Iterable[C], work: Callable[[C], R], take: Callable[[R], None]) -> None:
    """`take(work(chunk))` for each chunk in order, `work` spread over the
    usable CPUs (see the module docstring).  Each result of `work` must be
    something `pickle` can write."""
    chunks = iter(chunks)
    head: list[C] = []
    try:
        for chunk in islice(chunks, usable_cpus()):
            head.append(chunk)
    except Exception as exc:  # raised again where the walk reaches it
        chunks = _raising(exc)
    count = max(1, len(head))
    chunks = chain(head, chunks)
    with _forked(chunks, work, count) as workers:
        for i, chunk in enumerate(chunks):
            owner = i % count
            take(work(chunk) if owner == 0 else workers[owner - 1].receive())


@contextmanager
def _forked(chunks: Iterator[C], work: Callable[[C], R], count: int) -> Iterator[list[_Worker]]:
    """Workers 1 to count - 1, forked on entry with SIGTERM made an exit.
    On a normal way out each must end with exit code 0; on any way out
    those still running are killed, and all are reaped."""
    if count == 1:
        yield []
        return
    import signal  # here, so that loading the package does not load it

    previous = signal.signal(signal.SIGTERM, _exit_on_signal)
    workers: list[_Worker] = []
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        for me in range(1, count):
            workers.append(_fork(chunks, work, count, me, workers))
        yield workers
        ends = [worker.close(None) for worker in workers]
    finally:
        for worker in workers:
            worker.close(signal.SIGKILL)
        signal.signal(signal.SIGTERM, previous)
    for end in ends:
        if end != "exit code 0":
            raise WorkerError(f"a scan worker sent all its results and then ended with {end}")


def _raising(exc: Exception) -> Iterator:
    raise exc
    yield  # a generator, so that the exception is raised when it is reached


def _exit_on_signal(signum, frame) -> None:
    raise SystemExit(128 + signum)


class _Worker:
    """A forked worker as this process sees it: its pid (None once reaped)
    and a buffered reader of its pipe.  The worker runs at most one pipe
    buffer (64 KiB on Linux) ahead of `receive`: a write beyond it waits."""

    def __init__(self, pid: int, pipe):
        self.pid, self.pipe = pid, pipe

    def receive(self):
        """The worker's next result; what the worker raised is raised here."""
        try:
            ok, value = pickle.load(self.pipe)
        except (EOFError, pickle.UnpicklingError):  # the pipe ended at or inside a record
            raise WorkerError(f"scan worker {self.pid} ended without its results ({self.reap()})")
        if ok:
            return value
        raise value

    def reap(self) -> str:
        """Wait for the worker to end, and say how it ended."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        code = os.waitstatus_to_exitcode(status)
        return f"killed by signal {-code}" if code < 0 else f"exit code {code}"

    def close(self, kill: int | None) -> str | None:
        """Reap the worker unless it was reaped before, sending it the signal
        `kill` first unless that is None, and close its pipe; say how it
        ended, or None if it was reaped before."""
        try:
            if self.pid is None:
                return None
            if kill is not None:
                os.kill(self.pid, kill)
            return self.reap()
        finally:
            self.pipe.close()


def _fork(chunks: Iterator[C], work: Callable[[C], R], count: int, me: int, forked) -> _Worker:
    """Fork worker `me` of `count`, which works on the chunks i with
    i mod count == me; `forked` are the workers forked before it."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        for fd in (read_end, write_end):
            os.close(fd)
        raise
    if pid == 0:
        status = 1
        try:
            import signal

            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_end)
            # through the file object, so that no finaliser closes the
            # descriptor number again once it is reused
            for worker in forked:
                worker.pipe.close()
            _serve(chunks, work, count, me, os.fdopen(write_end, "wb"))
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    return _Worker(pid, os.fdopen(read_end, "rb"))


def _serve(chunks: Iterator[C], work: Callable[[C], R], count: int, me: int, pipe) -> None:
    """A forked worker's loop: walk the chunks, and send down `pipe` the
    result of each that it owns, or the exception that stops it.  Each is
    pickled whole before a byte of it is written, so one that does not
    pickle is sent as the exception it raised."""
    try:
        for i, chunk in enumerate(chunks):
            if i % count == me:
                record = pickle.dumps((True, work(chunk)))
                pipe.write(record)
                pipe.flush()
    except Exception as exc:
        try:
            record = pickle.dumps((False, exc))
        except Exception:  # an exception that does not pickle is named instead
            record = pickle.dumps((False, WorkerError(f"{type(exc).__name__}: {exc}")))
        pipe.write(record)
        pipe.flush()
