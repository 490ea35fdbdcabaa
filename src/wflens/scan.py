"""End-to-end scan of workflow files: parse, abstract, classify, measure."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .abstraction import ConstructBag
from .catalog import (
    ANY_INDEX,
    ANY_KEY,
    Catalog,
    ConstructNode,
    ScanIndex,
    default_catalog,
    tally_constructs,
)
from .metrics import WorkflowMetrics, metrics_from_tally, metrics_to_dict
from .model import (
    MAX_DEPTH,
    MAX_PATHS,
    WorkflowParseError,
    _cycle,
    _duplicate_key,
    _key_text,
    _too_deep,
    _too_many_paths,
    compose_workflow,
    read_workflow_text,
)


@dataclass(frozen=True)
class ScanResult:
    file: str
    error: WorkflowParseError | None
    bag: ConstructBag | None = None  # the other fields are None when error is set
    metrics: WorkflowMetrics | None = None

    @property
    def parsed(self) -> bool:
        return self.error is None

    @property
    def valid(self) -> bool:
        """Parses and every construct is catalog-known."""
        return self.metrics is not None and not self.metrics.unknown_constructs


def _walk(root: yaml.MappingNode, index: ScanIndex) -> tuple[dict[ConstructNode, int], int]:
    """Construct counts and path total.

    One pre-order walk gives the construct bag that ``enumerate_paths`` →
    ``abstract_workflow`` give for ``parse_workflow``'s tree, and raises the
    same first error, but builds no tree and no path list.  Counts are keyed
    by index node in the order the constructs are first met; a construct
    outside the index gets a node of this walk's own.  It recurses once per
    collection, so it needs :data:`MAX_DEPTH` frames of headroom;
    ``active`` holds the collections on the path, for the cycle check.
    """
    counts: dict[ConstructNode, int] = {}
    own: dict[tuple[ConstructNode, object], ConstructNode] = {}
    active: set[int] = set()

    def off_index(parent: ConstructNode, token: object) -> ConstructNode:
        child = own.get((parent, token))
        if child is None:
            child = own[parent, token] = index.extend(parent, token)
        return child

    def visit(node: yaml.Node, at: ConstructNode, depth: int, n_paths: int) -> int:
        """Count the paths below ``node``, a collection of construct ``at``; the path total after them."""
        if id(node) in active:
            raise _cycle(node)
        if depth > MAX_DEPTH:
            raise _too_deep(node)
        active.add(id(node))
        children = at.children
        if isinstance(node, yaml.SequenceNode):
            child = children.get(ANY_INDEX) or off_index(at, ANY_INDEX)
            for item in node.value:
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(item)
                counts[child] = counts.get(child, 0) + 1
                if not isinstance(item, yaml.ScalarNode):
                    n_paths = visit(item, child, depth + 1, n_paths)
        else:
            rule = at.rule
            top_level = depth == 1
            keys: set[str] = set()
            for key_node, value in node.value:
                key = key_node.value
                if top_level or not isinstance(key_node, yaml.ScalarNode):
                    key = _key_text(key_node, top_level)
                if key in keys:
                    raise _duplicate_key(key_node, key)
                keys.add(key)
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(key_node)
                token = ANY_KEY if rule is not None and key not in rule.except_keys else key
                child = children.get(token) or off_index(at, token)
                counts[child] = counts.get(child, 0) + 1
                if not isinstance(value, yaml.ScalarNode):
                    n_paths = visit(value, child, depth + 1, n_paths)
        active.discard(id(node))
        return n_paths

    n_paths = visit(root, index.root, 1, 0)
    if not n_paths:
        raise WorkflowParseError("workflow mapping is empty")
    return counts, n_paths


def scan_text(text: str, file: str, catalog: Catalog | None = None) -> ScanResult:
    if catalog is None:
        catalog = default_catalog()
    index = catalog.index
    try:
        counts, n_paths = _walk(compose_workflow(text), index)
    except WorkflowParseError as exc:
        return ScanResult(file, exc)
    bag = ConstructBag({node.construct: n for node, n in counts.items()}, n_paths)
    tally = tally_constructs([(node.text, node.construct, n, node.entry) for node, n in counts.items()])
    return ScanResult(file, None, bag, metrics_from_tally(tally, bag, index.feature_sizes))


def scan_file(path: str | Path, catalog: Catalog | None = None) -> ScanResult:
    file = str(path)
    try:
        text = read_workflow_text(path)
    except OSError as exc:
        return ScanResult(file, WorkflowParseError(f"cannot read file: {exc}"))
    except WorkflowParseError as exc:
        return ScanResult(file, exc)
    return scan_text(text, file, catalog)


def scan_record(result: ScanResult) -> dict:
    """The JSON record for one scanned file."""
    record: dict = {"file": result.file, "valid": result.valid}
    if result.error is not None:
        record["error"] = {
            "message": result.error.message,
            "line": result.error.line,
            "column": result.error.column,
        }
        return record
    assert result.metrics is not None
    record.update(metrics_to_dict(result.metrics))
    return record
