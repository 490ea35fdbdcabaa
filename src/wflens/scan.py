"""End-to-end scan of workflow files: parse, abstract, classify, measure."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import yaml

from .abstraction import AbstractionRuleSet, Construct, ConstructBag, Placeholder, Wildcard
from .catalog import Catalog, ValidationReport, default_catalog, validation_report
from .metrics import WorkflowMetrics, metrics_to_dict, workflow_metrics
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


class _Seen:
    """One construct met in a walk: its count, first concrete path and abstracted children.

    Children are keyed by the key text, or by a token for the segment that
    stands for any key (a placeholder) or any index (the wildcard).
    """

    __slots__ = ("construct", "rule", "children", "count", "example")

    def __init__(self, construct: Construct, example: ConcretePath, rules: AbstractionRuleSet):
        self.construct = construct
        self.rule = rules.rule_for(construct)
        self.children: dict[object, _Seen] = {}
        self.count = 0
        self.example = example


_ANY_KEY = object()
_ANY_INDEX = object()


def _child(parent: _Seen, token: object, example: ConcretePath, rules: AbstractionRuleSet,
           order: list[_Seen]) -> _Seen:
    if token is _ANY_INDEX:
        segment = Wildcard()
    elif token is _ANY_KEY:
        segment = Placeholder(parent.rule.kind)
    else:
        segment = example[-1]  # a literal key abstracts to itself
    child = _Seen(parent.construct + (segment,), example, rules)
    parent.children[token] = child
    order.append(child)
    return child


def _walk(
    root: yaml.MappingNode, rules: AbstractionRuleSet
) -> tuple[ConstructBag, dict[Construct, ConcretePath]]:
    """Construct counts, path total and first example paths in one pre-order walk.

    Gives what ``enumerate_paths`` → ``abstract_workflow`` → ``validate_workflow``
    give for ``parse_workflow``'s tree, and raises the same first error, but
    builds no tree and no path list.  A frame is ``[node, next index,
    concrete prefix, construct of the prefix, keys seen]``; sequences have
    no keys seen.  Nodes on the stack are the alias-cycle check's path.
    """
    top = _Seen((), (), rules)
    order: list[_Seen] = []
    n_paths = 0
    active = {id(root)}
    stack: list[list] = [[root, 0, (), top, set()]]
    while stack:
        frame = stack[-1]
        node, start, prefix, seen_at, keys = frame
        items = node.value
        children = seen_at.children
        descend = None
        if keys is None:
            child = children.get(_ANY_INDEX)
            for i in range(start, len(items)):
                item = items[i]
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(item)
                if child is None:
                    child = _child(seen_at, _ANY_INDEX, prefix + (Index(i),), rules, order)
                child.count += 1
                if not isinstance(item, yaml.ScalarNode):
                    frame[1] = i + 1
                    descend = item, prefix + (Index(i),), child
                    break
        else:
            rule = seen_at.rule
            top_level = len(stack) == 1
            for i in range(start, len(items)):
                key_node, value = items[i]
                key = _key_text(key_node, top_level)
                if key in keys:
                    raise _duplicate_key(key_node, key)
                keys.add(key)
                n_paths += 1
                if n_paths > MAX_PATHS:
                    raise _too_many_paths(key_node)
                token = _ANY_KEY if rule is not None and key not in rule.except_keys else key
                child = children.get(token)
                if child is None:
                    child = _child(seen_at, token, prefix + (Key(key),), rules, order)
                child.count += 1
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
    bag = ConstructBag({s.construct: s.count for s in order}, n_paths)
    return bag, {s.construct: s.example for s in order}


def scan_text(text: str, file: str, catalog: Catalog | None = None) -> ScanResult:
    if catalog is None:
        catalog = default_catalog()
    try:
        bag, examples = _walk(compose_workflow(text), catalog.rules)
    except WorkflowParseError as exc:
        return ScanResult(file=file, error=exc, bag=None, metrics=None, validation=None)
    return ScanResult(
        file=file,
        error=None,
        bag=bag,
        metrics=workflow_metrics(bag, catalog),
        validation=validation_report(bag, catalog, examples),
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
