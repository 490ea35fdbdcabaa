"""stdout, stderr and exit code of the corpus commands over generated corpora, pinned by digest.

``bench/gen_corpus.py`` (imported read-only) writes seeds 1-2 of both
shapes, 64 mixed and 400 tiny files with 3% malformed, into a temporary
directory.  Each corpus command runs from that directory on a corpus
directory, and on 25 of its files in a seeded, unsorted order plus a
duplicate and a missing file.  One sha256 over (argv, exit code, stdout,
stderr) per case is compared with ``fixtures/corpus_digests.json``.  The
generated files are digested too, so that a change to the generator or to
PyYAML's emitter fails as "input changed", not as a wrong output.  The
digests hold for libyaml's error wording.  To re-record after an intended
output change, run ``PYTHONPATH=src python tests/test_corpus_digests.py``
from the repo root.
"""

import hashlib
import importlib.util
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

BENCH = Path(__file__).resolve().parents[1] / "bench"
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


def generate(root: Path) -> None:
    """Write every corpus of :data:`CORPORA` under ``root``."""
    spec = importlib.util.spec_from_file_location("gen_corpus", BENCH / "gen_corpus.py")
    gen_corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen_corpus)
    for name, (n, seed, tiny) in CORPORA.items():
        gen_corpus.generate_corpus(root / name, n, seed, tiny=tiny, malformed_rate=0.03)


def _sha256(value) -> str:
    return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()


def input_digests(root: Path) -> dict[str, str]:
    """Per corpus under ``root``, one digest over the relative name and bytes of each of its files."""
    digests = {}
    for corpus in CORPORA:
        files = sorted(p for p in (root / corpus).rglob("*") if p.is_file())
        named = [[p.relative_to(root).as_posix(), hashlib.sha256(p.read_bytes()).hexdigest()] for p in files]
        digests[corpus] = _sha256(named)
    return digests


def case_argv(case: str) -> list[str]:
    corpus, rest = case.split("-", 1)
    command, form = rest.rsplit("-", 1)
    if form == "dir":
        paths = [corpus]
    else:
        picks = random.Random(CORPORA[corpus][1]).sample(discover_workflow_files(corpus), 25)
        paths = [*picks, picks[3], f"{corpus}/missing.yml"]
    return [*COMMANDS[command], *paths]


def output_digest(case: str) -> str:
    """The digest of (argv, exit code, stdout, stderr) of ``case``, run from the corpora's parent."""
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


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="the digests hold for libyaml's error messages")
@pytest.mark.parametrize("case", CASES)
def test_output_digest_matches_recording(case, corpora, recorded, monkeypatch):
    root, inputs = corpora
    monkeypatch.chdir(root)
    corpus = case.split("-", 1)[0]
    assert inputs[corpus] == recorded["inputs"][corpus], f"{corpus}: input changed"
    assert output_digest(case) == recorded["outputs"][case], f"{case}: output changed"


def record(root: Path) -> None:
    """Generate the corpora under ``root`` and write every digest to :data:`DIGESTS`."""
    generate(root)
    cwd = os.getcwd()
    os.chdir(root)
    try:
        table = {
            "inputs": input_digests(root),
            "outputs": {case: output_digest(case) for case in CASES},
        }
    finally:
        os.chdir(cwd)
    DIGESTS.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record(Path(tmp))
    sys.exit(0)
