"""End-to-end scan of workflow files: parse, abstract, classify, measure."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .abstraction import Construct, ConstructBag
from .catalog import (
    ANY_INDEX,
    ANY_KEY,
    Catalog,
    ConstructNode,
    ScanIndex,
    ValidationReport,
    default_catalog,
    tally_constructs,
)
from .metrics import WorkflowMetrics, metrics_from_tally, metrics_to_dict
from .model import (
    MAX_DEPTH,
    MAX_PATHS,
    ConcretePath,
    Index,
    Key,
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
    bag: ConstructBag | None
    metrics: WorkflowMetrics | None
    validation: ValidationReport | None

    @property
    def parsed(self) -> bool:
        return self.error is None

    @property
    def valid(self) -> bool:
        """Parses and every construct is catalog-known."""
        return self.parsed and self.validation is not None and self.validation.is_language_valid


def _walk(
    root: yaml.MappingNode, index: ScanIndex
) -> tuple[dict[ConstructNode, int], dict[Construct, ConcretePath], int]:
    """Construct counts, first example paths of unknown constructs and path total.

    One pre-order walk gives what ``enumerate_paths`` → ``abstract_workflow``
    → ``validate_workflow`` give for ``parse_workflow``'s tree, and raises
    the same first error, but builds no tree and no path list.  Counts are
    keyed by index node in the order the constructs are first met; a
    construct outside the index gets a node of this walk's own.  A frame is
    ``[node, next index, concrete prefix, index node of the prefix, keys
    seen]``; sequences have no keys seen.  Nodes on the stack are the
    alias-cycle check's path.
    """
    counts: dict[ConstructNode, int] = {}
    examples: dict[Construct, ConcretePath] = {}
    own: dict[tuple[ConstructNode, object], ConstructNode] = {}

    def off_index(parent: ConstructNode, token: object) -> ConstructNode:
        child = own.get((parent, token))
        if child is None:
            child = own[parent, token] = index.extend(parent, token)
        return child

    n_paths = 0
    active = {id(root)}
    stack: list[list] = [[root, 0, (), index.root, set()]]
    while stack:
        frame = stack[-1]
        node, start, prefix, seen_at, keys = frame
        items = node.value
        children = seen_at.children
        descend = None
        if keys is None:
            child = children.get(ANY_INDEX) or off_index(seen_at, ANY_INDEX)
            for i in range(start, len(items)):
                item = items[i]
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(item)
                n = counts.get(child)
                if n is None:
                    counts[child] = 1
                    if child.entry is None:
                        examples[child.construct] = prefix + (Index(i),)
                else:
                    counts[child] = n + 1
                if not isinstance(item, yaml.ScalarNode):
                    frame[1] = i + 1
                    descend = item, prefix + (Index(i),), child
                    break
        else:
            rule = seen_at.rule
            top_level = len(stack) == 1
            for i in range(start, len(items)):
                key_node, value = items[i]
                if top_level or not isinstance(key_node, yaml.ScalarNode):
                    key = _key_text(key_node, top_level)
                else:
                    key = key_node.value
                if key in keys:
                    raise _duplicate_key(key_node, key)
                keys.add(key)
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(key_node)
                token = ANY_KEY if rule is not None and key not in rule.except_keys else key
                child = children.get(token) or off_index(seen_at, token)
                n = counts.get(child)
                if n is None:
                    counts[child] = 1
                    if child.entry is None:
                        examples[child.construct] = prefix + (Key(key),)
                else:
                    counts[child] = n + 1
                if not isinstance(value, yaml.ScalarNode):
                    frame[1] = i + 1
                    descend = value, prefix + (Key(key),), child
                    break
        if descend is None:
            stack.pop()
            active.discard(id(node))
            continue
        value, path, child = descend
        if id(value) in active:
            raise _cycle(value)
        if len(stack) >= MAX_DEPTH:
            raise _too_deep(value)
        active.add(id(value))
        keys = set() if isinstance(value, yaml.MappingNode) else None
        stack.append([value, 0, path, child, keys])
    if not n_paths:
        raise WorkflowParseError("workflow mapping is empty")
    return counts, examples, n_paths


def scan_text(text: str, file: str, catalog: Catalog | None = None) -> ScanResult:
    if catalog is None:
        catalog = default_catalog()
    index = catalog.index
    try:
        counts, examples, n_paths = _walk(compose_workflow(text), index)
    except WorkflowParseError as exc:
        return ScanResult(file=file, error=exc, bag=None, metrics=None, validation=None)
    bag = ConstructBag({node.construct: n for node, n in counts.items()}, n_paths)
    tally = tally_constructs([(node.text, node.construct, n, node.entry) for node, n in counts.items()])
    return ScanResult(
        file=file,
        error=None,
        bag=bag,
        metrics=metrics_from_tally(tally, bag, index),
        validation=tally.report(examples),
    )


def scan_file(path: str | Path, catalog: Catalog | None = None) -> ScanResult:
    file = str(path)
    try:
        text = read_workflow_text(path)
    except OSError as exc:
        error = WorkflowParseError(f"cannot read file: {exc}")
        return ScanResult(file=file, error=error, bag=None, metrics=None, validation=None)
    except WorkflowParseError as exc:
        return ScanResult(file=file, error=exc, bag=None, metrics=None, validation=None)
    return scan_text(text, file, catalog)


def scan_record(result: ScanResult, workflow_id: str | None = None) -> dict:
    """The JSON record for one scanned file."""
    record: dict = {"file": result.file, "valid": result.valid}
    if workflow_id is not None:
        record["workflow_id"] = workflow_id
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
