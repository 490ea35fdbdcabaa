"""The single-pass scan kernel against the tree → paths → abstraction chain.

``scan_text`` walks the composed YAML node graph once.  The reference is
the public chain ``parse_workflow`` → ``enumerate_paths`` →
``abstract_workflow`` → ``validate_workflow(..., paths)``; both must give
the same construct bag, path total and unknown constructs, and the same
first error with its mark.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import wflens
from wflens import model

from conftest import FIXTURES
from test_cli import doubling_anchors

CATALOG = wflens.default_catalog()


def reference(text):
    try:
        paths = wflens.enumerate_paths(wflens.parse_workflow(text))
        if not paths:
            raise wflens.WorkflowParseError("workflow mapping is empty")
    except wflens.WorkflowParseError as exc:
        return ("error", exc.message, exc.line, exc.column)
    bag = wflens.abstract_workflow(paths, CATALOG.rules)
    report = wflens.validate_workflow(bag, CATALOG, paths)
    return list(bag.counts.items()), bag.total_paths, tuple(c for c, _ in report.unknown)


def kernel(text):
    result = wflens.scan_text(text, "doc.yml", CATALOG)
    if result.error is not None:
        return ("error", result.error.message, result.error.line, result.error.column)
    return list(result.bag.counts.items()), result.bag.total_paths, result.metrics.unknown_constructs


# ------------------------------------------------------------ generated documents

# Keys that reach the abstraction rules (jobs.<id>, matrix variables and their
# include/exclude exceptions, env, with, services, inputs), the spellings of
# the trigger key, the empty key, and repeats so that duplicate keys occur.
KEYS = [
    "on", '"on"', "true", "yes", "ON", "off", "jobs", "build", "steps", "env", "with",
    "strategy", "matrix", "include", "exclude", "services", "container", "inputs",
    "workflow_dispatch", "outputs", "runs-on", "uses", "name", "x", '""',
]
SCALARS = ["1", "x", "true", "on", "null", "~", "'q'", '"s"', "2.5", "ubuntu-latest", "0x1F"]
ANCHORS = ["a", "b", "c"]

# One leaf in four is an alias.
leaf = st.tuples(st.integers(0, 3), st.sampled_from(SCALARS), st.sampled_from(ANCHORS)).map(
    lambda draw: ("alias", draw[2]) if draw[0] == 0 else ("scalar", draw[1])
)
# One key in twenty is a sequence, which is rejected.
key = st.tuples(
    st.integers(0, 19),
    st.sampled_from(KEYS),
    st.tuples(st.just("seq"), st.none(), st.lists(leaf, max_size=2)),
).map(lambda draw: draw[2] if draw[0] == 0 else draw[1])


def collections(children):
    anchor = st.one_of(st.none(), st.sampled_from(ANCHORS))
    return st.one_of(
        st.tuples(st.just("seq"), anchor, st.lists(children, max_size=4)),
        st.tuples(
            st.just("map"),
            anchor,
            st.lists(st.tuples(key, children), max_size=4),
        ),
    )


node = st.recursive(leaf, collections, max_leaves=25)


def anchor_of(item, defined):
    """The anchor text of a collection; each name is defined once, aliases only after it."""
    name = item[1]
    if name is None or name in defined:
        return ""
    defined.add(name)
    return f"&{name}"


def flow(item, defined):
    kind = item[0]
    if kind == "scalar":
        return item[1]
    if kind == "alias":
        return f"*{item[1]}" if item[1] in defined else "x"
    head = anchor_of(item, defined)
    if kind == "seq":
        return f"{head} [" + ", ".join(flow(child, defined) for child in item[2]) + "]"
    pairs = (f"? {flow_key(k, defined)} : {flow(v, defined)}" for k, v in item[2])
    return f"{head} {{" + ", ".join(pairs) + "}"


def flow_key(k, defined):
    return k if isinstance(k, str) else flow(k, defined)


def block(entries, indent, style, defined):
    """Block mapping lines; ``style`` picks block or flow form per nested value."""
    pad = " " * indent
    lines = []
    for (k, value), nested in zip(entries, style):
        if not isinstance(k, str):
            lines.append(f"{pad}? {flow(k, defined)}")
            lines.append(f"{pad}: {flow(value, defined)}")
        elif nested and value[0] in ("map", "seq") and value[2]:
            lines.append(f"{pad}{k}: {anchor_of(value, defined)}")
            if value[0] == "map":
                lines.extend(block(value[2], indent + 2, style[1:] + style[:1], defined))
            else:
                lines.extend(f"{pad}  - {flow(child, defined)}" for child in value[2])
        else:
            lines.append(f"{pad}{k}: {flow(value, defined)}")
    return lines


documents = st.builds(
    lambda entries, style: "\n".join(block(entries, 0, style or [False], set())) + "\n",
    st.lists(st.tuples(key, node), min_size=1, max_size=6),
    st.lists(st.booleans(), max_size=4),
)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(documents)
@example("ON: push\njobs: {b: {steps: [{with: {x: 1}}, {env: {A: 1}}]}}\n")  # scans
@example("jobs: {b: {strategy: {matrix: {os: [x], include: [{os: y}], exclude: [{os: x}]}}}}\n")
@example("jobs: {b: 1, b: 2}\n")  # duplicate key
@example("jobs: {[b]: 1}\n")  # non-scalar key
@example("a: &a {x: [*a]}\n")  # alias cycle
@example("a: *b\n")  # undefined alias
@example("on: 1\ntrue: 2\n")  # trigger spellings collide
@example('"":\n  z: 1\na: 2\n')  # ".z" sorts before "a"
def test_kernel_matches_reference_chain(text):
    assert kernel(text) == reference(text)


# ------------------------------------------------------------ fixtures and budgets


@pytest.mark.parametrize(
    "path",
    sorted(p for p in FIXTURES.rglob("*") if p.is_file()),
    ids=lambda p: str(p.relative_to(FIXTURES)),
)
def test_kernel_matches_reference_on_fixture(path):
    text = path.read_text(encoding="utf-8")
    assert kernel(text) == reference(text)


def nested_sequences(depth, padding=""):
    return f"a: {'[' * depth}{']' * depth}\n{padding}"


@pytest.mark.parametrize(
    "text",
    [
        nested_sequences(model.MAX_DEPTH - 1),
        nested_sequences(model.MAX_DEPTH),
        nested_sequences(300),
        # Over the nesting-character bound: rejected by the event pass.
        nested_sequences(300, "# " + ":" * 10_000 + "\n"),
        "top: &x [[[[*x]]]]\n",
        doubling_anchors(14),
        doubling_anchors(25),
    ],
    ids=["depth-255", "depth-256", "depth-300", "depth-300-event-pass", "cycle", "aliases-14",
         "aliases-25"],
)
def test_kernel_matches_reference_at_budgets(text):
    assert kernel(text) == reference(text)


def test_depth_budget_marks_the_first_node_too_deep():
    # The root mapping is level 1, so the 256th "[" (column 259) is level 257.
    assert kernel(nested_sequences(model.MAX_DEPTH - 1))[1] == model.MAX_DEPTH - 1
    for text in (nested_sequences(300), nested_sequences(300, "# " + ":" * 10_000 + "\n")):
        assert kernel(text) == (
            "error", f"collections nested deeper than {model.MAX_DEPTH} levels", 1, 259
        )


def test_pure_python_loader_keeps_depth_guard_and_marks(monkeypatch):
    monkeypatch.setattr(model, "_LOADER", yaml.SafeLoader)
    monkeypatch.setattr(model, "_UNCHECKED_NESTING", model.MAX_DEPTH)
    assert kernel(nested_sequences(5000))[1:] == (
        f"collections nested deeper than {model.MAX_DEPTH} levels", 1, 259
    )
    broken = (FIXTURES / "broken.yml").read_text(encoding="utf-8")
    assert kernel(broken)[2:] == (2, 5)


def test_compose_uses_libyaml_when_built_with_it(monkeypatch):
    loaders = []
    compose_all = yaml.compose_all

    def spy(stream, Loader):
        loaders.append(Loader)
        return compose_all(stream, Loader=Loader)

    monkeypatch.setattr(yaml, "compose_all", spy)
    wflens.scan_text("on: push\n", "doc.yml")
    wflens.parse_workflow("on: push\n")
    expected = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    # Both compose with one loader that skips tag resolution, built on libyaml's.
    kernel_loader, tree_loader = loaders
    assert issubclass(kernel_loader, expected) and kernel_loader is not expected
    assert tree_loader is kernel_loader


def test_deep_flow_sequence_exits_2_without_crash(tmp_path):
    deep = tmp_path / "deep.yml"
    deep.write_text(nested_sequences(100_000), encoding="utf-8")
    src = str(Path(wflens.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-m", "wflens.cli", "scan", "--format", "jsonl", str(deep)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert '"line": 1' in proc.stdout and '"column": 259' in proc.stdout
