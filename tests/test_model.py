"""Parsing and path enumeration."""

from pathlib import Path

import yaml
import pytest
from hypothesis import given, strategies as st

import wflens
from wflens import cli
from wflens.model import Index, Key, Mapping, Scalar, Sequence

from conftest import FIXTURES

# Hand-derived document-order path list for the two-job matrix workflow.
NODE_CI_PATHS = [
    "name",
    "on",
    "on.push",
    "on.push.branches",
    "on.push.branches[0]",
    "permissions",
    "permissions.contents",
    "jobs",
    "jobs.build",
    "jobs.build.strategy",
    "jobs.build.strategy.matrix",
    "jobs.build.strategy.matrix.os",
    "jobs.build.strategy.matrix.os[0]",
    "jobs.build.strategy.matrix.os[1]",
    "jobs.build.runs-on",
    "jobs.build.steps",
    "jobs.build.steps[0]",
    "jobs.build.steps[0].uses",
    "jobs.build.steps[1]",
    "jobs.build.steps[1].run",
    "jobs.test",
    "jobs.test.needs",
    "jobs.test.runs-on",
    "jobs.test.steps",
    "jobs.test.steps[0]",
    "jobs.test.steps[0].run",
]


def count_nodes(value) -> int:
    """Independent oracle: mapping entries plus sequence items, recursively."""
    if isinstance(value, dict):
        return len(value) + sum(count_nodes(v) for v in value.values())
    if isinstance(value, list):
        return len(value) + sum(count_nodes(v) for v in value)
    return 0


def test_minimal_document():
    tree = wflens.parse_workflow("name: CI\n")
    assert len(tree.root.entries) == 1
    key, child = tree.root.entries[0]
    assert key == "name"
    assert child == Scalar("CI", "string")


def test_node_ci_paths_exact(node_ci_paths):
    rendered = [wflens.render_path(p) for p in node_ci_paths]
    assert rendered == NODE_CI_PATHS


def test_path_count_matches_independent_walk(node_ci_text, node_ci_paths):
    assert len(node_ci_paths) == count_nodes(yaml.safe_load(node_ci_text)) == 26


def test_path_count_oracle_on_fixture_tree(catalog):
    for file in wflens.discover_workflow_files(FIXTURES / "corpus"):
        text = Path(file).read_text(encoding="utf-8")
        paths = wflens.enumerate_paths(wflens.parse_workflow(text))
        assert len(paths) == count_nodes(yaml.safe_load(text))


def test_scalar_payload_kinds():
    tree = wflens.parse_workflow(
        "name: CI\ncount: 3\nrate: 1.5\nflag: true\nblank: null\n"
    )
    kinds = {k: v.kind for k, v in tree.root.entries}
    assert kinds == {
        "name": "string",
        "count": "int",
        "rate": "float",
        "flag": "bool",
        "blank": "null",
    }


def test_top_level_on_key_is_normalized():
    for spelling in ("on", '"on"', "true", "True", "yes"):
        tree = wflens.parse_workflow(f"{spelling}:\n  push:\n")
        assert wflens.render_path(wflens.enumerate_paths(tree)[0]) == "on"


def test_nested_boolean_keys_stay_put():
    tree = wflens.parse_workflow("jobs:\n  a:\n    true: x\n")
    rendered = [wflens.render_path(p) for p in wflens.enumerate_paths(tree)]
    assert "jobs.a.true" in rendered


def test_duplicate_keys_rejected():
    with pytest.raises(wflens.WorkflowParseError) as exc:
        wflens.parse_workflow("name: a\nname: b\n")
    assert "duplicate" in str(exc.value)
    assert exc.value.line is not None


def test_multiple_documents_rejected():
    with pytest.raises(wflens.WorkflowParseError, match="document"):
        wflens.parse_workflow("name: a\n---\nname: b\n")


def test_non_mapping_root_rejected():
    with pytest.raises(wflens.WorkflowParseError, match="mapping"):
        wflens.parse_workflow("- a\n- b\n")


def test_empty_document_rejected():
    with pytest.raises(wflens.WorkflowParseError):
        wflens.parse_workflow("")


def test_syntax_error_carries_position():
    text = (FIXTURES / "broken.yml").read_text(encoding="utf-8")
    with pytest.raises(wflens.WorkflowParseError) as exc:
        wflens.parse_workflow(text)
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_anchor_aliases_expand():
    tree = wflens.parse_workflow("base: &b\n  x: 1\n  y: 2\nother: *b\n")
    rendered = [wflens.render_path(p) for p in wflens.enumerate_paths(tree)]
    assert rendered == ["base", "base.x", "base.y", "other", "other.x", "other.y"]


def test_recursive_alias_rejected():
    with pytest.raises(wflens.WorkflowParseError, match="cycle"):
        wflens.parse_workflow("a: &x\n  b: *x\n")


def test_bom_is_stripped():
    tree = wflens.parse_workflow("\ufeffname: CI\n")
    assert wflens.render_path(wflens.enumerate_paths(tree)[0]) == "name"


def test_render_parse_round_trip_on_fixture(node_ci_paths):
    for path in node_ci_paths:
        assert wflens.parse_path(wflens.render_path(path)) == path


_key_chars = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_-",
    min_size=1,
    max_size=12,
)
_segments = st.lists(
    st.one_of(_key_chars.map(Key), st.integers(min_value=0, max_value=99).map(Index)),
    min_size=0,
    max_size=6,
)


@given(first=_key_chars, rest=_segments)
def test_render_parse_fixpoint(first, rest):
    path = (Key(first), *rest)
    assert wflens.parse_path(wflens.render_path(path)) == path


def test_discovery_prefers_canonical_layout():
    files = wflens.discover_workflow_files(FIXTURES / "corpus")
    names = [Path(f).name for f in files]
    assert names == ["ci.yml", "release.yml", "tiny.yml"]
    assert all(".github/workflows" in f for f in files)


def test_discovery_falls_back_to_flat_search(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.yml").write_text("name: a\n")
    (tmp_path / "sub" / "b.yaml").write_text("name: b\n")
    names = [Path(f).name for f in wflens.discover_workflow_files(tmp_path)]
    assert names == ["a.yml", "b.yaml"]


def test_tree_nodes_are_immutable(node_ci_text):
    tree = wflens.parse_workflow(node_ci_text)
    assert isinstance(tree.root, Mapping)
    with pytest.raises(AttributeError):
        tree.root.entries = ()
    seq = next(v for k, v in tree.root.entries if k == "jobs")
    assert isinstance(seq, Mapping)


def test_sequences_hold_nodes(node_ci_text):
    tree = wflens.parse_workflow(node_ci_text)
    jobs = dict(tree.root.entries)["jobs"]
    build = dict(jobs.entries)["build"]
    steps = dict(build.entries)["steps"]
    assert isinstance(steps, Sequence)
    assert len(steps.items) == 2


def _discovery_tree(root):
    """Repositories and stray files that exercise every discovery rule."""
    files = [
        "a/.github/workflows/ci.yml",
        "a/.github/workflows/build.yaml",
        "a/.github/workflows/Upper.YML",
        "a/.github/workflows/sub/deeper.yml",
        "a/.github/workflows/nested/.github/workflows/inner.yml",
        "a/notes.yml",
        "a/tools/.github/workflows/tool.yml",
        "a-b/.github/workflows/x.yml",
        ".hidden/.github/workflows/h.yml",
        "real/.github/workflows/r.yml",
        "target/.github/workflows/t.yaml",
        "flat/a.yml",
        "flat/sub/b.yaml",
        "flat/.hidden/c.yml",
        "flat/X.YML",
        "flat/dir.yml/inner.yml",
        "flat/notes.txt",
        "outside/o.yml",
    ]
    for rel in files:
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("on: push\n", encoding="utf-8")
    (root / "a/.github/workflows/dir.yml").mkdir()  # a directory, not a file
    (root / "link").symlink_to(root / "real", target_is_directory=True)
    (root / "viaenv").mkdir()
    (root / "viaenv/.github").symlink_to(root / "target/.github", target_is_directory=True)
    (root / "flat/linked").symlink_to(root / "outside", target_is_directory=True)
    (root / "flat/file-link.yml").symlink_to(root / "outside/o.yml")
    (root / "flat/broken.yml").symlink_to(root / "missing.yml")


def test_discovery_pins_order_and_layout_rules(tmp_path, monkeypatch):
    _discovery_tree(tmp_path)
    monkeypatch.chdir(tmp_path.parent)

    def found(root):
        files = [Path(f).relative_to(tmp_path).as_posix() for f in wflens.discover_workflow_files(root)]
        if root.is_dir():
            # The CLI names each file under its directory argument as
            # str(Path) spells it, however the argument was spelled.
            spelled = root.relative_to(tmp_path.parent).as_posix()
            for spelling in (f"./{spelled}", f"{spelled}/", f"{spelled}//"):
                assert cli._expand_paths((spelling,)) == [f"{tmp_path.name}/{f}" for f in files]
        return files

    # Directories sort by path component, so "a/..." precedes "a-b/...".  A
    # symlinked directory is not descended into, but a symlinked .github
    # under a visited directory is followed.
    assert found(tmp_path) == [
        ".hidden/.github/workflows/h.yml",
        "a/.github/workflows/build.yaml",
        "a/.github/workflows/ci.yml",
        "a/.github/workflows/nested/.github/workflows/inner.yml",
        "a/tools/.github/workflows/tool.yml",
        "a-b/.github/workflows/x.yml",
        "real/.github/workflows/r.yml",
        "target/.github/workflows/t.yaml",
        "viaenv/.github/workflows/t.yaml",
    ]
    # A workflows directory given as the root is searched flat, unless a
    # .github/workflows lies below it.
    assert found(tmp_path / "a-b/.github/workflows") == ["a-b/.github/workflows/x.yml"]
    assert found(tmp_path / "a/.github/workflows") == [
        "a/.github/workflows/nested/.github/workflows/inner.yml",
    ]
    assert found(tmp_path / "a/.github/workflows/sub") == [
        "a/.github/workflows/sub/deeper.yml",
    ]
    # Without any .github/workflows: every *.yml/*.yaml file, hidden
    # directories included, case-sensitive, symlinked files but not
    # symlinked directories or broken links.
    assert found(tmp_path / "flat") == [
        "flat/.hidden/c.yml",
        "flat/a.yml",
        "flat/dir.yml/inner.yml",
        "flat/file-link.yml",
        "flat/sub/b.yaml",
    ]
    assert found(tmp_path / "flat/a.yml") == ["flat/a.yml"]
    assert found(tmp_path / "absent") == []
    # The current directory as the root adds no "./" to the names.
    monkeypatch.chdir(tmp_path / "flat")
    assert cli._expand_paths((".",)) == [".hidden/c.yml", "a.yml", "dir.yml/inner.yml", "file-link.yml", "sub/b.yaml"]
