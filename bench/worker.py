"""Fork server that runs wflens CLI commands, each in a fresh child process.

Usage: ``python3 bench/worker.py`` with the program's ``src`` directory on
``PYTHONPATH``.  The server imports ``wflens.cli`` once and runs no
command itself.  Each line on standard input is a JSON request
``{"argv": [...], "out": PATH, "err": PATH}``: the server forks, the child
sends its standard output and error to those files, calls
``wflens.cli.main(argv)`` and exits with the command's exit code.  The
server answers with one JSON line on its standard output::

    {"wall": seconds, "probe": seconds, "code": exit code, "rss_mb": peak resident set}

``wall`` is timed inside the child around ``main(argv)``, and ``probe`` is
the mean of a CPU probe (``probe.py``) taken in the child just before and
just after it, on the same core.  So a sample is
what a fresh ``wflens`` process costs once its import is done: argument
parsing, the catalog and model loads, any lazy import, the command's work
and its output.  The import itself is the benchmark's set-up time,
measured in separate fresh processes.  Because every child starts from the
same never-used server, nothing one command caches or leaves behind
reaches the next.  ``rss_mb`` is the child's own peak from ``os.wait4``.
The server exits at the end of its input.

The only other threads in the server are OpenBLAS's pool, started by the
numpy import; OpenBLAS stops it before every fork (a ``pthread_atfork``
handler), so each child starts single-threaded.
"""

from __future__ import annotations

import json
import os
import sys
import time
import traceback

from probe import probe_s
from wflens.cli import main as cli_main


def child(request: dict, report: int) -> None:
    """In the forked child: run the command, send its time and probe, exit with its code."""
    for fd, path in ((1, request["out"]), (2, request["err"])):
        target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)
    code = 0
    before = probe_s()
    t = time.perf_counter()
    try:
        cli_main(request["argv"])
    except SystemExit as exc:
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    except BaseException:  # a traceback is a failed operation, reported by the runner
        traceback.print_exc()
        code = 1
    wall = time.perf_counter() - t
    try:
        sys.stdout.flush()
        sys.stderr.flush()
        probe = (before + probe_s()) / 2
        os.write(report, json.dumps({"wall": wall, "probe": probe}).encode())
    finally:
        os._exit(code)


def main() -> None:
    # Replies get their own descriptor, written unbuffered, so a child never
    # inherits half a reply and nothing a command prints can reach them.
    replies = os.dup(1)
    for line in sys.stdin:
        request = json.loads(line)
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_end)
                child(request, write_end)
            finally:
                os._exit(1)  # only reached if the child failed before running the command
        os.close(write_end)
        with os.fdopen(read_end, "rb") as fh:
            timing = fh.read()
        _, status, usage = os.wait4(pid, 0)
        reply = {
            **(json.loads(timing) if timing else {"wall": None, "probe": None}),
            "code": os.waitstatus_to_exitcode(status),
            "rss_mb": usage.ru_maxrss / 1024.0,
        }
        os.write(replies, (json.dumps(reply) + "\n").encode())


if __name__ == "__main__":
    main()
