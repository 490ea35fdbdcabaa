"""Smoke test of the benchmark runner on a tiny seeded corpus and runs file.

Run with ``python3 -m pytest -q bench/smoke.py`` from the repository root.
The file name does not match ``test_*.py``, so the repository's own test
run does not collect it.  No timing is asserted.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import oracle  # noqa: E402
import run  # noqa: E402
from gen_corpus import generate_corpus  # noqa: E402

TINY = {"files": 12, "shards": 2, "tiny": False, "workflows": 40}
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_end_to_end_run_reports_every_metric(tmp_path):
    result, report = run.run("smoke", TINY, 3, 0.1, False, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["error_rate"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert report["inputs"]["malformed_files"] == 1


def test_traced_run_reports_every_layer(tmp_path):
    result, report = run.run("smoke", TINY, 4, 0.1, True, tmp_path)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert report["unwrapped"] == []
    assert result["metrics"]["stats.glm.fits"]["value"] > 0


def test_oracle_counts_a_planted_mismatch(tmp_path):
    corpus = generate_corpus(tmp_path / "corpus", 6, 5, malformed_rate=0)
    child = run.Child(tmp_path, time.perf_counter())
    r = child.wflens("scan", ["scan", "--format", "jsonl", "corpus"])
    tally = run.Tally()
    tally.check("scan", r["code"], r["stdout"], r["stderr"],
                lambda c, o, e: oracle.check_scan(c, o, e, corpus))
    assert tally.failed == 0, tally.reasons
    first = min(corpus["files"])
    corpus["files"][first]["n_paths"] += 1
    tally.check("scan", r["code"], r["stdout"], r["stderr"],
                lambda c, o, e: oracle.check_scan(c, o, e, corpus))
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "n_paths" in tally.reasons[0]


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    command = SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                                 "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
