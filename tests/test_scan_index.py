"""The scan index: compiled once per catalog, shared by every scan, never grown by one.

The kernel keeps per-file counts and the nodes of constructs outside the
catalog to itself, so results must not depend on what was scanned before,
and scanning must leave the shared trie exactly as compiled.
"""

import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest
import yaml

import wflens
from wflens import model
from wflens.scan import scan_file, scan_record

from conftest import FIXTURES

A = """\
on: push
jobs:
  build:
    runs-on: ubuntu-latest
    frobnicate: {level: 3}
    strategy:
      matrix:
        os: [a, b]
        include: [{os: c, extra: 1}]
    steps:
      - uses: actions/checkout@v4
      - run: make
        shine: true
"""

B = """\
name: other
'on':
  workflow_dispatch:
    inputs:
      flag: {type: boolean}
jobs:
  build:
    frobnicate: {level: 4, colour: red}
    steps:
      - run: test
        shine: false
    services:
      db: {image: postgres}
"""


def fresh_catalog():
    raw = resources.files("wflens.data").joinpath("catalog.json").read_text("utf-8")
    return wflens.catalog_from_data(json.loads(raw))


def index_nodes(catalog):
    """Every node reachable in the catalog's shared index."""
    out = []
    stack = [catalog.index.root]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children.values())
    return out


@pytest.fixture
def two_files(tmp_path):
    (tmp_path / "a.yml").write_text(A, encoding="utf-8")
    (tmp_path / "b.yml").write_text(B, encoding="utf-8")
    return tmp_path / "a.yml", tmp_path / "b.yml"


def test_results_do_not_depend_on_scan_order(two_files):
    a, b = two_files
    forward = [scan_record(scan_file(p, fresh_catalog())) for p in (a, b)]
    shared = fresh_catalog()
    backward = [scan_record(scan_file(p, shared)) for p in (b, a)][::-1]
    assert forward == backward
    assert forward[0]["unknown_constructs"] == [
        "jobs.<id>.frobnicate",
        "jobs.<id>.frobnicate.level",
        "jobs.<id>.steps[*].shine",
        "jobs.<id>.strategy.matrix.include[*].<var>",
    ]
    assert forward[1]["unknown_constructs"] == [
        "jobs.<id>.frobnicate",
        "jobs.<id>.frobnicate.colour",
        "jobs.<id>.frobnicate.level",
        "jobs.<id>.steps[*].shine",
    ]
    src = str(Path(wflens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wflens.cli", "scan", "--format", "jsonl", str(a), str(b)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert [json.loads(line) for line in proc.stdout.splitlines()] == forward


@pytest.mark.parametrize(
    "path",
    sorted(p for p in FIXTURES.rglob("*.yml")) + ["A", "B"],
    ids=lambda p: p if isinstance(p, str) else str(p.relative_to(FIXTURES)),
)
def test_kernel_metrics_match_reference_chain(path, catalog):
    text = {"A": A, "B": B}.get(path) or path.read_text(encoding="utf-8")
    result = wflens.scan_text(text, "doc.yml", catalog)
    if result.error is not None:
        return  # errors are pinned by test_scan_kernel
    bag = wflens.abstract_workflow(wflens.enumerate_paths(wflens.parse_workflow(text)), catalog.rules)
    assert result.bag == bag
    assert result.metrics == wflens.workflow_metrics(bag, catalog)
    assert result.valid == wflens.validate_workflow(bag, catalog).is_language_valid


def test_pure_python_kernel_loader_gives_the_same_results(monkeypatch, catalog):
    texts = [A, B, "yes: push\nTrue: 1\n", "'on': push\n!!str yes: 1\n"]
    expected = [scan_record(wflens.scan_text(t, "doc.yml", catalog)) for t in texts]
    monkeypatch.setattr(model, "_LOADER", yaml.SafeLoader)
    assert [scan_record(wflens.scan_text(t, "doc.yml", catalog)) for t in texts] == expected


def test_default_and_extracted_catalogs_share_no_nodes(two_files):
    default = wflens.default_catalog()
    bags = [scan_file(p, default).bag for p in two_files]
    extracted = wflens.extract_catalog(bags, rules=default.rules)
    assert extracted.index is not default.index
    assert not {id(n) for n in index_nodes(default)} & {id(n) for n in index_nodes(extracted)}
    # Every construct of the scanned files is known to the extracted catalog.
    for path in two_files:
        result = scan_file(path, extracted)
        assert result.valid
        assert result.metrics.unknown_constructs == ()


def test_unknown_keys_leave_the_shared_index_unchanged():
    catalog = fresh_catalog()
    before = index_nodes(catalog)
    children = {id(n): dict(n.children) for n in before}
    for i in range(50):
        text = (
            f"on: push\nweird_{i}: {{deep_{i}: [1, {{x: 2}}]}}\n"
            f"jobs:\n  b:\n    odd_{i}: [{{k_{i}: v}}]\n    steps:\n      - custom_{i}: 1\n"
        )
        result = wflens.scan_text(text, f"f{i}.yml", catalog)
        assert f"weird_{i}.deep_{i}[*].x" in wflens.scan_record(result)["unknown_constructs"]
    after = index_nodes(catalog)
    assert len(after) == len(before)
    assert {id(n): dict(n.children) for n in after} == children


def test_every_catalog_construct_is_indexed(catalog):
    indexed = {n.construct: n.entry for n in index_nodes(catalog) if n.entry is not None}
    assert indexed == catalog.entries
    for node in index_nodes(catalog):
        if node.construct:
            assert node.text == wflens.render_construct(node.construct)


def test_extended_node_text_is_the_rendered_construct(catalog):
    index = catalog.index
    node = index.extend(index.extend(index.root, ""), "z")
    assert node.text == wflens.render_construct(node.construct) == ".z"
