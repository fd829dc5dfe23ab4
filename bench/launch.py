"""Run one command to its exit; print its wall seconds, its peak resident
set in KiB and its exit code on one line.

    python3 -S bench/launch.py STDERR_FILE PROGRAM ARG...

The command's stdin and stdout are /dev/null and its stderr goes to
STDERR_FILE.  The kernel's peak resident set of a process counts the
memory of the process that spawned it, up to the point of exec, so
run.py launches every timed command through this small process (started
with -S, importing only `os`, `sys` and `time`) rather than from its own
process, which holds the corpus and networkx.  What remains of this
process in the figure, a few MiB, is less than any curvlab process.
"""

import os
import sys
import time


def main() -> None:
    stderr_path, argv = sys.argv[1], sys.argv[2:]
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    print(wall, usage.ru_maxrss, os.waitstatus_to_exitcode(status))


if __name__ == "__main__":
    main()
