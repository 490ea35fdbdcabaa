"""CLI stdout, stderr and exit codes pinned to files recorded under fixtures/cli.

Every case runs from inside ``tests/fixtures`` with relative paths, so the
recorded text holds no absolute path; the reliability pair of ``compare``
is built by ``conftest.build_reliability_files`` and never printed.
``regress`` is left out: its 6th printed decimal can turn on the last bits
of the fit's arithmetic.  To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_cli_golden.py`` from the repo root.
"""

import json
import os
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from wflens.cli import cli

from conftest import FIXTURES, build_reliability_files

GOLDEN = FIXTURES / "cli"
ALL = ["corpus", "history", "broken.yml", "kitchen.yml", "node_ci.yml", "tiny.yml"]
GOOD = ["corpus", "kitchen.yml", "node_ci.yml", "tiny.yml"]
HISTORY = ["--manifest", "history/manifest.jsonl", "--from", "2023-01", "--to", "2023-05"]
RUNS = ["--runs", "runs_semantics.jsonl", "--window", "2023-01-01..2023-04-11"]

CASES = {
    "scan-json": ["scan", *ALL],
    "scan-jsonl": ["scan", "--format", "jsonl", *ALL],
    "scan-text": ["scan", "--format", "text", *ALL],
    "lint-text": ["lint", *ALL],
    "lint-json": ["lint", "--format", "json", *GOOD],
    "catalog-validate": ["catalog", "validate"],
    "catalog-extract": ["catalog", "extract", *ALL],
    "catalog-classify": ["catalog", "classify", "jobs.<id>.strategy"],
    "corpus-stats": ["corpus", "stats", *ALL],
    "corpus-evolve-csv": ["corpus", "evolve", *HISTORY],
    "corpus-evolve-json": ["corpus", "evolve", "--format", "json", *HISTORY],
    "corpus-trend": ["corpus", "trend", *HISTORY],
    "reliability-metrics-jsonl": ["reliability", "metrics", *RUNS],
    "reliability-metrics-json": ["reliability", "metrics", "--format", "json", *RUNS],
    "reliability-compare": ["reliability", "compare", "--window", "2023-01-01..2023-12-31"],
}


def run_case(name: str, pair: tuple[Path, Path]) -> dict:
    args = list(CASES[name])
    if name == "reliability-compare":
        sizes, runs = pair
        args += ["--runs", str(runs), "--sizes", str(sizes)]
    cwd = os.getcwd()
    os.chdir(FIXTURES)
    try:
        result = CliRunner().invoke(cli, args)
    finally:
        os.chdir(cwd)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return {"exit_code": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


def expected(name: str) -> dict:
    meta = json.loads((GOLDEN / "cases.json").read_text(encoding="utf-8"))[name]
    stdout = (GOLDEN / f"{name}.stdout").read_text(encoding="utf-8")
    return {"exit_code": meta["exit_code"], "stdout": stdout, "stderr": meta["stderr"]}


@pytest.fixture(scope="module")
def pair(tmp_path_factory):
    return build_reliability_files(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_recording(name, pair):
    assert run_case(name, pair) == expected(name)


def record(root: Path) -> None:
    """Write every case's stdout file and the exit code and stderr table."""
    GOLDEN.mkdir(exist_ok=True)
    pair = build_reliability_files(root)
    table = {}
    for name in sorted(CASES):
        got = run_case(name, pair)
        (GOLDEN / f"{name}.stdout").write_text(got["stdout"], encoding="utf-8")
        table[name] = {"args": CASES[name], "exit_code": got["exit_code"], "stderr": got["stderr"]}
    text = json.dumps(table, indent=2, sort_keys=True) + "\n"
    (GOLDEN / "cases.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    sys.exit(0)
