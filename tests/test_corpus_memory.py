"""`corpus stats` keeps per-workflow columns only, not every scanned workflow, and
`scan --format jsonl` keeps no record once it is written."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wflens

SRC = str(Path(wflens.__file__).resolve().parents[1])

WORKFLOW = """name: ci {i}
on:
  push:
    branches: [main, release-{i}]
  pull_request:
env:
  LEVEL_{i}: "{i}"
jobs:
  build_{i}:
    runs-on: ubuntu-latest
    strategy:
      matrix:
        python: ["3.10", "3.11"]
    steps:
      - uses: actions/checkout@v4
      - uses: actions/setup-python@v5
        with:
          python-version: ${{{{ matrix.python }}}}
      - run: make test-{i}
        env:
          TOKEN: ${{{{ secrets.TOKEN }}}}
  deploy_{i}:
    needs: build_{i}
    if: github.ref == 'refs/heads/main'
    runs-on: ubuntu-latest
    timeout-minutes: {i}
    steps:
      - run: ./deploy.sh {i}
"""

N = 400
BYTES_PER_EXTRA_FILE = 2048
"""Bound on peak-RSS growth per extra file.  A command that keeps every
``ScanResult`` grows ~4.1 KB per file of this shape (~8.6 KB per
corpus-mixed file of ``bench/gen_corpus.py``); the streamed columns, count
lists and file list grow ~1 KB."""


# Linux carries a process's peak RSS across exec, and a child that
# posix_spawn or subprocess starts shares this (large) test process's memory
# until its exec, so the command runs as the grandchild of a small Python
# that forks it: a true fork starts the peak afresh, and ``os.wait4``
# reports the command's own.
_MEASURE = """
import os, sys
pid = os.fork()
if pid == 0:
    os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
    os.execv(sys.executable, [sys.executable, "-m", "wflens.cli", *sys.argv[1:]])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_bytes(*argv: str) -> int:
    """Peak resident set of one ``wflens *argv`` process, stdout to /dev/null."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c", _MEASURE, *argv], capture_output=True, text=True, check=True, env=env
    ).stdout
    code, kilobytes = map(int, out.split())
    assert code == 0
    return kilobytes * 1024  # ru_maxrss is in kilobytes on Linux


def _check_growth(tmp_path, *argv: str) -> None:
    """``wflens *argv DIRECTORY`` on N and 4N files gains at most BYTES_PER_EXTRA_FILE per extra file."""
    peaks = []
    for n in (N, 4 * N):
        directory = tmp_path / str(n)
        directory.mkdir()
        for i in range(n):
            (directory / f"w{i:05d}.yml").write_text(WORKFLOW.format(i=i), encoding="utf-8")
        peaks.append(_peak_rss_bytes(*argv, str(directory)))
    growth = (peaks[1] - peaks[0]) / (3 * N)
    assert growth <= BYTES_PER_EXTRA_FILE, f"peak RSS grew {growth:.0f} bytes per extra file: {peaks}"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux only")
def test_corpus_stats_memory_does_not_grow_with_kept_workflows(tmp_path):
    _check_growth(tmp_path, "corpus", "stats")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in kilobytes on Linux only")
def test_scan_jsonl_memory_does_not_grow_with_kept_records(tmp_path):
    _check_growth(tmp_path, "scan", "--format", "jsonl")
