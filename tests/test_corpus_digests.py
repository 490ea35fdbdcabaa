"""stdout, stderr and exit code of the corpus and reliability commands over generated inputs, pinned by digest.

``bench/gen_corpus.py`` (imported read-only) writes seeds 1-2 of both
shapes, 64 mixed and 400 tiny files with 3% malformed, into a temporary
directory.  Each corpus command runs from that directory on a corpus
directory, and on 25 of its files in a seeded, unsorted order plus a
duplicate and a missing file.  ``bench/gen_runs.py`` (imported read-only
too) writes seeds 1-2 of a 300-workflow runs/sizes pair next to them, and
``reliability metrics`` (jsonl and json) and ``reliability compare`` run on
each pair over the generator's window.  One sha256 over (argv, exit code,
stdout, stderr) per case is compared with ``fixtures/corpus_digests.json``.
``reliability metrics`` (jsonl) and ``reliability compare`` on the seed-1 runs
in shuffled, workflow-grouped and reverse line order must give the
time-ordered case's digest, with each warning mapped back to its line in the
time-ordered file.
The generated files are digested too, so that a change to a generator or
to PyYAML's emitter fails as "input changed", not as a wrong output.  The
corpus digests hold for libyaml's error wording.  ``reliability regress``
is left out: its last digits are not yet a function of the data alone.
To re-record after an intended output change, run
``PYTHONPATH=src python tests/test_corpus_digests.py`` from the repo root.
"""

import hashlib
import json
import os
import random
import sys
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from wflens.cli import cli
from wflens.model import discover_workflow_files

from conftest import bench_module

DIGESTS = Path(__file__).parent / "fixtures" / "corpus_digests.json"

CORPORA = {
    "mixed1": (64, 1, False),
    "tiny1": (400, 1, True),
    "mixed2": (64, 2, False),
    "tiny2": (400, 2, True),
}
"""Each generated corpus: (files, seed, tiny shape)."""
COMMANDS = {
    "scan-json": ["scan"],
    "scan-jsonl": ["scan", "--format", "jsonl"],
    "scan-text": ["scan", "--format", "text"],
    "lint-text": ["lint"],
    "lint-json": ["lint", "--format", "json"],
    "corpus-stats": ["corpus", "stats"],
    "catalog-extract": ["catalog", "extract"],
}
CASES = [f"{corpus}-{c}-{form}" for corpus in CORPORA for c in COMMANDS for form in ("dir", "files")]

PAIRS = {"runs1": (300, 1), "runs2": (300, 2)}
"""Each generated reliability pair: (workflows, seed)."""
RELIABILITY_COMMANDS = {
    "reliability-metrics-jsonl": ["reliability", "metrics", "--runs", "{pair}/runs.jsonl"],
    "reliability-metrics-json": ["reliability", "metrics", "--format", "json", "--runs", "{pair}/runs.jsonl"],
    "reliability-compare": [
        "reliability", "compare", "--runs", "{pair}/runs.jsonl", "--sizes", "{pair}/sizes.jsonl"
    ],
}
RELIABILITY_CASES = [f"{pair}-{c}" for pair in PAIRS for c in RELIABILITY_COMMANDS]


gen_runs = bench_module("gen_runs")


def generate(root: Path) -> None:
    """Write every corpus of :data:`CORPORA` and every pair of :data:`PAIRS` under ``root``."""
    gen_corpus = bench_module("gen_corpus")
    for name, (n, seed, tiny) in CORPORA.items():
        gen_corpus.generate_corpus(root / name, n, seed, tiny=tiny, malformed_rate=0.03)
    for name, (n, seed) in PAIRS.items():
        gen_runs.generate_reliability(root / name, n, seed)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def input_digests(root: Path) -> dict[str, str]:
    """Per corpus and pair under ``root``, one digest over the relative name and bytes of each of its files."""
    digests = {}
    for corpus in (*CORPORA, *PAIRS):
        files = sorted(p for p in (root / corpus).rglob("*") if p.is_file())
        named = [[p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()] for p in files]
        digests[corpus] = _sha256(named)
    return digests


def case_argv(case: str) -> list[str]:
    corpus, rest = case.split("-", 1)
    if corpus in PAIRS:
        return [arg.format(pair=corpus) for arg in RELIABILITY_COMMANDS[rest]] + ["--window", gen_runs.WINDOW]
    command, form = rest.rsplit("-", 1)
    if form == "dir":
        paths = [corpus]
    else:
        picks = random.Random(CORPORA[corpus][1]).sample(discover_workflow_files(corpus), 25)
        paths = [*picks, picks[3], f"{corpus}/missing.yml"]
    return [*COMMANDS[command], *paths]


def output_digest(case: str) -> str:
    """The digest of (argv, exit code, stdout, stderr) of ``case``, run from the inputs' parent."""
    argv = case_argv(case)
    result = CliRunner().invoke(cli, argv)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return _sha256([argv, result.exit_code, result.stdout, result.stderr])


@pytest.fixture(scope="module")
def corpora(tmp_path_factory) -> tuple[Path, dict[str, str]]:
    root = tmp_path_factory.mktemp("digests")
    generate(root)
    return root, input_digests(root)


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


LIBYAML = pytest.mark.skipif(not yaml.__with_libyaml__, reason="the digests hold for libyaml's error messages")


@pytest.mark.parametrize("case", [*(pytest.param(c, marks=LIBYAML) for c in CASES), *RELIABILITY_CASES])
def test_output_digest_matches_recording(case, corpora, recorded, monkeypatch):
    root, inputs = corpora
    monkeypatch.chdir(root)
    corpus = case.split("-", 1)[0]
    assert inputs[corpus] == recorded["inputs"][corpus], f"{corpus}: input changed"
    assert output_digest(case) == recorded["outputs"][case], f"{case}: output changed"


RUN_ORDERS = ("shuffled", "grouped", "reverse")
"""Line orders of the seed-1 runs file that ``reliability metrics`` and ``compare`` must not see."""


def reordered(lines: list[str], order: str) -> list[int]:
    """The indices of ``lines`` (JSON runs in time order) in a shuffled, workflow-grouped or reverse order."""
    indices = list(range(len(lines)))
    if order == "shuffled":
        random.Random(1).shuffle(indices)
    elif order == "grouped":
        indices.sort(key=lambda i: json.loads(lines[i])["workflow_id"])
    else:
        indices.reverse()
    return indices


@pytest.mark.parametrize(
    "order, case",
    [
        pytest.param(order, f"runs1-{command}", id=order if command.endswith("jsonl") else f"{order}-compare")
        for command in ("reliability-metrics-jsonl", "reliability-compare")
        for order in RUN_ORDERS
    ],
)
def test_run_line_order_keeps_the_metrics_digest(order, case, corpora, recorded, monkeypatch):
    """Each warning is mapped back to its line in the time-ordered file, and the
    warnings to that file's order; then the digest is the time-ordered case's."""
    root, inputs = corpora
    argv = case_argv(case)
    lines = (root / "runs1" / "runs.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)
    indices = reordered(lines, order)
    assert indices != sorted(indices)
    (root / order / "runs1").mkdir(parents=True, exist_ok=True)
    (root / order / "runs1" / "runs.jsonl").write_text("".join(lines[i] for i in indices), encoding="utf-8")
    if "compare" in case:
        (root / order / "runs1" / "sizes.jsonl").write_bytes((root / "runs1" / "sizes.jsonl").read_bytes())
    monkeypatch.chdir(root / order)
    result = CliRunner().invoke(cli, argv)
    prefix = "runs1/runs.jsonl:"
    warnings = []
    for line in result.stderr.splitlines(keepends=True):
        assert line.startswith(prefix), line
        lineno, rest = line[len(prefix):].split(":", 1)
        warnings.append((indices[int(lineno) - 1] + 1, rest))
    assert warnings, "the pair has no unknown conclusion, so no line number is checked"
    stderr = "".join(f"{prefix}{lineno}:{rest}" for lineno, rest in sorted(warnings))
    assert inputs["runs1"] == recorded["inputs"]["runs1"], "runs1: input changed"
    assert _sha256([argv, result.exit_code, result.stdout, stderr]) == recorded["outputs"][case]


def record(root: Path) -> None:
    """Generate the corpora under ``root`` and write every digest to :data:`DIGESTS`."""
    generate(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        table = {
            "inputs": input_digests(root),
            "outputs": {case: output_digest(case) for case in (*CASES, *RELIABILITY_CASES)},
        }
    finally:
        os.chdir(cwd)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    sys.exit(0)
