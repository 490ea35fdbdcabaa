"""End-to-end scan of workflow files: parse, abstract, classify, measure."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from functools import lru_cache
from math import inf
from operator import attrgetter
from pathlib import Path

import yaml

from .abstraction import ConstructBag
from .catalog import (
    ANY_INDEX,
    ANY_KEY,
    Catalog,
    FEATURES,
    ConstructNode,
    ScanIndex,
    default_catalog,
    tally_constructs,
)
from .instants import dumps_line
from .metrics import (
    _ABSENT,
    FeatureUsage,
    WorkflowMetrics,
    _features_to_dict,
    _metric_fields,
    _usage_to_dict,
    metrics_from_tally,
    round4,
)
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


def _record(result: ScanResult, features: Callable[[WorkflowMetrics], object]) -> dict:
    """The record for one scanned file, with ``features(metrics)`` as its ``"features"`` value."""
    record: dict = {"file": result.file, "valid": result.valid}
    if result.error is not None:
        record["error"] = {
            "message": result.error.message,
            "line": result.error.line,
            "column": result.error.column,
        }
        return record
    assert result.metrics is not None
    record.update(_metric_fields(result.metrics, features(result.metrics)))
    return record


def scan_record(result: ScanResult) -> dict:
    """The JSON record for one scanned file."""
    return _record(result, _features_to_dict)


CACHED_USAGES = 2048
"""Bound on the JSON texts of distinct feature usages that :func:`scan_line` keeps."""

_usage_fields = attrgetter(*(field.name for field in dataclass_fields(FeatureUsage)))
_TALLIED = (bool, int, int, float, float, float, bool)
"""Field types of a present feature's usage, as ``metrics_from_tally`` makes it."""

_ABSENT_JSON = dumps_line(_usage_to_dict(_ABSENT))
_FEATURE_KEYS = [(feature, dumps_line(feature) + ": ") for feature in sorted(FEATURES)]
_BOOL_JSON = {False: "false", True: "true"}


@lru_cache(maxsize=CACHED_USAGES)
def _tallied_usage_json(fields: tuple) -> str:
    """``dumps_line(_usage_to_dict(FeatureUsage(*fields)))`` for tallied types and positive finite floats.

    For these, json writes a bool as ``true``/``false`` and an int or a
    float as its ``repr``, so the text is formatted here directly.
    """
    present, n_paths, used, coverage, ratio, capped, structural_only = fields
    return (
        f'{{"capped_ratio": {round4(capped)!r}, "construct_coverage": {round4(coverage)!r}, '
        f'"n_constructs_used": {used!r}, "n_paths": {n_paths!r}, '
        f'"path_to_construct_ratio": {round4(ratio)!r}, "present": {_BOOL_JSON[present]}, '
        f'"structural_only": {_BOOL_JSON[structural_only]}}}'
    )


def _usage_json(usage: FeatureUsage) -> str:
    if usage is _ABSENT:
        return _ABSENT_JSON
    fields = _usage_fields(usage)
    _, _, _, coverage, ratio, capped, _ = fields
    # Values that compare equal but write apart (True, 1 and 1.0; 0.0 and
    # -0.0) must not share a cache entry, and json writes NaN and Infinity
    # its own way: only tallied types and positive finite floats go there.
    if tuple(map(type, fields)) == _TALLIED and 0.0 < coverage < inf and 0.0 < ratio < inf and 0.0 < capped < inf:
        return _tallied_usage_json(fields)
    return dumps_line(_usage_to_dict(usage))


def _features_json(metrics: WorkflowMetrics) -> str:
    per_feature = metrics.per_feature
    return "{" + ", ".join([key + _usage_json(per_feature[feature]) for feature, key in _FEATURE_KEYS]) + "}"


def scan_line(result: ScanResult) -> str:
    """``json.dumps(scan_record(result), sort_keys=True)``, built from the cached text of each feature's usage."""
    record = _record(result, _features_json)
    features = record.pop("features", None)
    if features is None:  # a parse failure
        return dumps_line(record)
    # "features" sorts before every other key of a parsed file's record
    return '{"features": ' + features + ", " + dumps_line(record)[1:]
