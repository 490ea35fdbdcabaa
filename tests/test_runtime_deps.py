"""scipy is a test-only dependency: wflens neither imports nor needs it."""

import os
import subprocess
import sys
from pathlib import Path

import wflens

from conftest import build_reliability_files

SRC = str(Path(wflens.__file__).resolve().parents[1])
BLOCK_SCIPY = "import sys; sys.modules['scipy'] = None; "
RUN_CLI = "import sys; from wflens.cli import main; sys.argv[0] = 'wflens'; main()"


def python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, timeout=120
    )


def test_cli_import_loads_no_scipy():
    proc = python(
        "import sys, wflens.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_regress_runs_with_scipy_blocked(tmp_path):
    sizes, runs = build_reliability_files(tmp_path)
    args = ["reliability", "regress", "--runs", str(runs), "--sizes", str(sizes)]
    args += ["--window", "2023-01-01..2023-12-31"]
    for analysis in ("sizes", "features"):
        argv = [*args, "--analysis", analysis]
        free = python(RUN_CLI, *argv)
        blocked = python(BLOCK_SCIPY + RUN_CLI, *argv)
        assert free.returncode == blocked.returncode == 0, blocked.stderr
        assert '"predictor"' in free.stdout
        assert blocked.stdout == free.stdout
