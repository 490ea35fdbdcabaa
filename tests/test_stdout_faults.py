"""A failed write to stdout ends every streamed command, and ``--help`` and ``--version``, with exit code 74 and no traceback.

Each command runs in its own process, as an installed ``wflens`` would:

- with stdout on ``/dev/full``: one ``Error:`` line on stderr;
- on a pipe whose reader has left before the command writes: nothing on
  stderr about it;
- for the commands that write their output in more than one part, on a
  pipe shrunk to one page whose reader leaves after its first read, so the
  first part is cut short and the next write fails.

A reader that leaves during a command's last write goes unnoticed: the
interpreter's buffered writer reports such a cut-short write as complete.
So a command that writes one document (``corpus stats``, ``catalog
extract``) is checked with a reader that has already left.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from wflens.cli import cli

from conftest import bench_module

fcntl = pytest.importorskip("fcntl")
pytestmark = pytest.mark.skipif(
    not (os.path.exists("/dev/full") and hasattr(fcntl, "F_SETPIPE_SZ")), reason="needs Linux's /dev/full and pipe sizes"
)

SRC = str(Path(__file__).resolve().parent.parent / "src")
PIPE_SIZE = 4096
WINDOW = ["--window", "2023-01-01..2024-01-01"]
COMMANDS = {
    "scan-json": ["scan", "corpus"],
    "scan-jsonl": ["scan", "--format", "jsonl", "corpus"],
    "scan-text": ["scan", "--format", "text", "corpus"],
    "lint": ["lint", "corpus"],
    "corpus-stats": ["corpus", "stats", "corpus"],
    "catalog-extract": ["catalog", "extract", "corpus"],
    "reliability-metrics": ["reliability", "metrics", "--runs", "pair/runs.jsonl", *WINDOW],
    "help": ["--help"],
    "version": ["--version"],
    "group-help": ["reliability", "--help"],
    "command-help": ["reliability", "compare", "--help"],
}
IN_PARTS = ["scan-json", "scan-jsonl", "scan-text", "lint", "reliability-metrics"]
"""Commands whose output here comes in several writes: 300 files, 256 lines or 8,192 JSON pieces per write."""
NO_SPACE = "Error: cannot write to stdout: [Errno 28] No space left on device\n"


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> Path:
    """A generated corpus of 300 tiny files, 3% malformed, and a 300-workflow runs pair."""
    root = tmp_path_factory.mktemp("stdout")
    bench_module("gen_corpus").generate_corpus(root / "corpus", 300, 1, tiny=True, malformed_rate=0.03)
    bench_module("gen_runs").generate_reliability(root / "pair", 300, 1)
    return root


def wflens(argv: list[str], stdout, cwd: Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    code = "import sys; from wflens.cli import main; main(sys.argv[1:])"
    return subprocess.Popen([sys.executable, "-c", code, *argv], stdout=stdout, stderr=subprocess.PIPE, cwd=cwd, env=env)


def on_pipe(argv: list[str], cwd: Path, first_read: bool) -> tuple[int, str]:
    """Exit code and stderr of ``argv`` on a one-page pipe closed at once, or after its first read."""
    read_end, write_end = os.pipe()
    try:
        assert fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_SIZE) == PIPE_SIZE
        proc = wflens(argv, write_end, cwd)
    finally:
        os.close(write_end)
    try:
        if first_read:
            assert os.read(read_end, PIPE_SIZE)
    finally:
        os.close(read_end)
    _, err = proc.communicate(timeout=120)
    return proc.returncode, err.decode()


@pytest.mark.parametrize("command", COMMANDS)
def test_full_stdout_exits_74_with_one_error_line(command, inputs):
    with open("/dev/full", "wb") as full:
        proc = wflens(COMMANDS[command], full, inputs)
        _, err = proc.communicate(timeout=120)
    stderr = err.decode()
    assert proc.returncode == 74, stderr
    assert "Traceback" not in stderr
    assert stderr.count(NO_SPACE) == 1 and stderr.endswith(NO_SPACE), stderr


@pytest.mark.parametrize("command", COMMANDS)
def test_pipe_without_reader_exits_74_quietly(command, inputs):
    code, stderr = on_pipe(COMMANDS[command], inputs, first_read=False)
    assert code == 74, stderr
    assert "Traceback" not in stderr and "stdout" not in stderr, stderr


@pytest.mark.parametrize("command", IN_PARTS)
def test_pipe_closed_after_the_first_read_exits_74_quietly(command, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert len(CliRunner().invoke(cli, COMMANDS[command]).stdout_bytes) > 3 * PIPE_SIZE
    code, stderr = on_pipe(COMMANDS[command], inputs, first_read=True)
    assert code == 74, stderr
    assert "Traceback" not in stderr and "stdout" not in stderr, stderr
