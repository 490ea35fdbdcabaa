"""The one check of a composed document, pinned by literal values.

``scan._walk`` is the only code that checks a document: ``scan_text`` and
``parse_workflow`` both raise its first error, under libyaml and under the
pure-Python loader.  Neither leaves cyclic garbage, and a file over the
character budget is a parse error before it is composed.
"""

import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import wflens
from wflens import model
from wflens.model import Mapping, WorkflowParseError, WorkflowTree

from conftest import FIXTURES, bench_module
from test_cli import doubling_anchors
from test_scan_kernel import nested_sequences


@pytest.fixture(params=["libyaml", "pure-python"])
def loader(request, monkeypatch):
    if request.param == "pure-python":
        monkeypatch.setattr(model, "_LOADER", yaml.SafeLoader)
        monkeypatch.setattr(model, "_UNCHECKED_NESTING", model.MAX_DEPTH)
    elif not yaml.__with_libyaml__:
        pytest.skip("PyYAML is built without libyaml")


def fields(error):
    return error.message, error.line, error.column


@pytest.mark.parametrize(
    "text, error",
    [
        ("name: a\nname: b\n", ("duplicate mapping key 'name'", 2, 1)),
        ("jobs: {[b]: 1}\n", ("mapping keys must be scalars", 1, 8)),
        ("a: &x\n  b: *x\n", ("recursive alias cycle", 1, 4)),
        ("on: 1\ntrue: 2\n", ("duplicate mapping key 'on'", 2, 1)),
        (nested_sequences(300), ("collections nested deeper than 256 levels", 1, 259)),
        (doubling_anchors(25), ("more than 200000 paths after alias expansion", 1, 13)),
    ],
    ids=["duplicate-key", "non-scalar-key", "cycle", "trigger-spellings", "depth-300", "aliases-25"],
)
def test_scan_and_parse_raise_the_same_first_error(loader, text, error):
    assert fields(wflens.scan_text(text, "doc.yml").error) == error
    with pytest.raises(WorkflowParseError) as caught:
        wflens.parse_workflow(text)
    assert fields(caught.value) == error


def test_empty_mapping_fails_scan_but_parses_to_an_empty_tree(loader):
    assert fields(wflens.scan_text("{}\n", "doc.yml").error) == ("workflow mapping is empty", None, None)
    assert wflens.parse_workflow("{}\n") == WorkflowTree(Mapping(()))


@pytest.fixture(scope="module")
def corpus_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    bench_module("gen_corpus").generate_corpus(root, 40, 1, malformed_rate=0.1)
    return sorted(p for p in root.rglob("*") if p.is_file())


def test_scans_and_parses_leave_no_cyclic_garbage(corpus_files):
    # No recursive alias among these: it composes into a cyclic node graph.
    files = sorted(p for p in FIXTURES.rglob("*") if p.is_file()) + corpus_files
    littered = []
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for path in files:
            wflens.scan_file(path)
            try:
                text = model.read_workflow_text(path)
            except WorkflowParseError:
                continue
            wflens.scan_text(text, str(path))
            try:
                wflens.parse_workflow(text)
            except WorkflowParseError:
                pass
            gc.collect()
            if gc.garbage:
                littered.append((path.name, len(gc.garbage)))
                gc.garbage.clear()
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert littered == []


def test_file_over_the_character_budget_exits_2(tmp_path):
    at = tmp_path / "at.yml"
    over = tmp_path / "over.yml"
    at.write_text("a: " + "x" * (model.MAX_CHARS - 4) + "\n", encoding="utf-8")
    over.write_text("a: " + "x" * (model.MAX_CHARS - 3) + "\n", encoding="utf-8")
    src = str(Path(wflens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wflens.cli", "scan", "--format", "jsonl", str(at), str(over)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    at_line, over_line = proc.stdout.splitlines()
    assert '"n_paths": 1,' in at_line and "error" not in at_line
    assert f'"message": "file holds more than {model.MAX_CHARS} characters"' in over_line
