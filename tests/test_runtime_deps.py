"""What wflens needs at run time: no scipy, no pkgutil, and no file system for its bundled data."""

import json
import os
import subprocess
import sys
import zipfile
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


def test_commands_import_no_pkgutil():
    fixtures = str(Path(__file__).parent / "fixtures")
    proc = python(
        "import sys; before = set(sys.modules); from wflens.cli import main\n"
        "try:\n    main(['lint', '--format', 'json', sys.argv[1]])\nexcept SystemExit:\n    pass\n"
        "print('pkgutil' in set(sys.modules) - before, file=sys.stderr)",
        fixtures,
    )
    assert '"diagnostics"' in proc.stdout
    assert proc.stderr.splitlines()[-1] == "False"


def test_commands_load_no_numpy_ma(tmp_path):
    # numpy.ma costs ~13 ms to import; np.percentile and np.unique load it on first use
    fixtures = Path(__file__).parent / "fixtures"
    sizes, runs = build_reliability_files(tmp_path)
    reliability = ["--runs", str(runs), "--sizes", str(sizes), "--window", "2023-01-01..2023-12-31"]
    history = ["--manifest", str(fixtures / "history" / "manifest.jsonl"), "--from", "2023-01", "--to", "2023-05"]
    commands = [
        ["corpus", "stats", str(fixtures)],
        ["corpus", "evolve", *history],
        ["corpus", "trend", *history],
        ["reliability", "compare", *reliability],
        ["reliability", "regress", "--analysis", "sizes", *reliability],
        ["reliability", "regress", "--analysis", "features", *reliability],
    ]
    proc = python(
        "import io, json, sys; from contextlib import redirect_stdout; from wflens.cli import main\n"
        "for args in json.loads(sys.argv[1]):\n"
        "    with redirect_stdout(io.StringIO()):\n"
        "        try:\n            main(args)\n        except SystemExit as exc:\n            code = exc.code\n"
        "    print(args[:2], code, 'numpy.ma' in sys.modules)",
        json.dumps(commands),
    )
    assert proc.stdout.splitlines() == [f"{args[:2]} 0 False" for args in commands]


def test_bundled_data_loads_from_a_zip_install(tmp_path):
    package = Path(wflens.__file__).parent
    archive = tmp_path / "wflens.zip"
    with zipfile.ZipFile(archive, "w") as zf:
        for file in package.rglob("*"):
            if file.suffix in (".py", ".json"):
                zf.write(file, file.relative_to(package.parent).as_posix())
    code = (
        "import sys, wflens\n"
        "assert wflens.__file__.startswith(sys.argv[1]), wflens.__file__\n"
        "print(len(wflens.default_catalog().entries), sorted(wflens.default_risk_model().thresholds))"
    )
    env = dict(os.environ, PYTHONPATH=str(archive))
    proc = subprocess.run(
        [sys.executable, "-c", code, str(archive)], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    expected = f"{len(wflens.default_catalog().entries)} {sorted(wflens.default_risk_model().thresholds)}"
    assert proc.stdout.strip() == expected


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
