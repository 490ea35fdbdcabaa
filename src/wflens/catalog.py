"""The construct catalog: known constructs, their level, feature, and status.

The bundled default catalog holds 197 constructs grouped into 14 features
and three levels (workflow / job / step).  Catalogs can also be extracted
from scanned workflows; extracted entries carry the feature marker
``unclassified`` because feature assignment is curated, not derivable from
the path grammar alone.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from operator import itemgetter
from pathlib import Path

from .abstraction import (
    AbstractionRule,
    AbstractionRuleSet,
    AbstractSegment,
    Construct,
    ConstructBag,
    Placeholder,
    Wildcard,
    abstract_path,
    default_ruleset,
    parse_construct,
    render_construct,
    ruleset_from_data,
    ruleset_to_data,
)
from .instants import bundled_json, expect
from .model import ConcretePath, Key, _segment_text

FEATURES: tuple[str, ...] = (
    "triggers",
    "permissions",
    "workflow_reuse",
    "job_orchestration",
    "containers",
    "matrix_strategy",
    "commands",
    "services",
    "environment_variables",
    "naming",
    "context",
    "action_reuse",
    "step_orchestration",
    "deployment",
)
LEVELS: tuple[str, ...] = ("workflow", "job", "step")
UNCLASSIFIED = "unclassified"
UNKNOWN = "unknown"

EXPECTED_TOTAL = 197
EXPECTED_LEVEL_COUNTS = {"workflow": 119, "job": 65, "step": 13}
EXPECTED_FEATURE_COUNTS = {
    "triggers": 85,
    "permissions": 30,
    "workflow_reuse": 14,
    "job_orchestration": 12,
    "containers": 9,
    "matrix_strategy": 8,
    "commands": 7,
    "services": 7,
    "environment_variables": 6,
    "naming": 5,
    "context": 5,
    "action_reuse": 3,
    "step_orchestration": 3,
    "deployment": 3,
}


@dataclass(frozen=True)
class CatalogEntry:
    construct: Construct
    level: str
    feature: str  # one of FEATURES, or UNCLASSIFIED in extracted catalogs
    status: str = "active"  # active | deprecated
    provenance: str = "reconstructed"
    structural: bool = False


ANY_KEY = object()
"""Scan-index token of a key that the abstraction turns into a placeholder."""
ANY_INDEX = object()
"""Scan-index token of a sequence item."""


class ConstructNode:
    """One construct in a scan index: its rule, rendered text and catalog entry.

    ``children`` maps the token of the next path segment (the key text,
    :data:`ANY_KEY` or :data:`ANY_INDEX`) to the node of the longer construct.
    """

    __slots__ = ("construct", "rule", "text", "entry", "children")

    def __init__(self, construct: Construct, rule: AbstractionRule | None, text: str):
        self.construct = construct
        self.rule = rule
        self.text = text
        self.entry: CatalogEntry | None = None
        self.children: dict[object, ConstructNode] = {}


class ScanIndex:
    """A catalog's constructs and all their prefixes, as a trie of :class:`ConstructNode`.

    Built once per catalog and read-only after that: the scan walk keeps
    the nodes of constructs outside the index to itself, so the index never
    grows with its input.  A catalog construct that no abstraction can
    produce (a placeholder where no rule applies, say) is left out.
    """

    def __init__(self, catalog: Catalog):
        self.rules = catalog.rules
        self.root = ConstructNode((), self.rules.rule_for(()), "")
        self.feature_sizes = catalog.feature_sizes()
        for construct, entry in catalog.entries.items():
            node = self.root
            for segment in construct:
                token = _token(node.rule, segment)
                if token is None:
                    break
                child = node.children.get(token)
                if child is None:
                    child = node.children[token] = self.extend(node, token)
                node = child
            else:
                node.entry = entry

    def extend(self, parent: ConstructNode, token: object) -> ConstructNode:
        """A new node for ``parent``'s construct followed by the segment ``token`` stands for."""
        if token is ANY_INDEX:
            segment: AbstractSegment = Wildcard()
        elif token is ANY_KEY:
            segment = Placeholder(parent.rule.kind)
        else:
            segment = Key(token)
        construct = parent.construct + (segment,)
        text = parent.text + _segment_text(segment, not parent.construct)
        return ConstructNode(construct, self.rules.rule_for(construct), text)


def _token(rule: AbstractionRule | None, segment: AbstractSegment) -> object | None:
    """The walk's token for an abstract segment below ``rule``, or None if none gives it."""
    if isinstance(segment, Wildcard):
        return ANY_INDEX
    if isinstance(segment, Placeholder):
        return ANY_KEY if rule is not None and rule.kind == segment.kind else None
    if rule is None or segment.name in rule.except_keys:
        return segment.name
    return None


@dataclass(frozen=True)
class Catalog:
    version: str
    entries: dict[Construct, CatalogEntry]
    rules: AbstractionRuleSet

    @cached_property
    def index(self) -> ScanIndex:
        """The scan index, compiled on first use; ``entries`` must not change after it."""
        return ScanIndex(self)

    def feature_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for entry in self.entries.values():
            sizes[entry.feature] = sizes.get(entry.feature, 0) + 1
        return sizes

    def level_sizes(self) -> dict[str, int]:
        sizes: dict[str, int] = {}
        for entry in self.entries.values():
            sizes[entry.level] = sizes.get(entry.level, 0) + 1
        return sizes


@dataclass(frozen=True)
class CatalogCheck:
    name: str
    expected: object
    actual: object

    @property
    def passed(self) -> bool:
        return self.expected == self.actual


@dataclass(frozen=True)
class CatalogReport:
    checks: tuple[CatalogCheck, ...]

    @property
    def ok(self) -> bool:
        return all(check.passed for check in self.checks)

    def failures(self) -> list[str]:
        return [
            f"{c.name}: {c.actual} != {c.expected}" for c in self.checks if not c.passed
        ]


@dataclass(frozen=True)
class ValidationReport:
    """Split of one workflow's constructs into catalog-known and unknown."""

    known: tuple[Construct, ...]
    unknown: tuple[tuple[Construct, ConcretePath | None], ...]

    @property
    def is_language_valid(self) -> bool:
        return not self.unknown


def level_of(construct: Construct) -> str:
    """Level inferred from the leading segments.

    Constructs strictly below ``jobs.<id>.steps[*]`` are step level; those
    at or below ``jobs.<id>`` are job level (the step list and its items are
    job properties); everything else, including ``jobs`` itself, is
    workflow level.
    """
    job_prefix = (Key("jobs"), Placeholder("id"))
    step_prefix = job_prefix + (Key("steps"), Wildcard())
    if len(construct) > 4 and construct[:4] == step_prefix:
        return "step"
    if len(construct) >= 2 and construct[:2] == job_prefix:
        return "job"
    return "workflow"


def _entry_from_data(item: dict) -> CatalogEntry:
    construct = parse_construct(expect(item["construct"], str, "catalog construct"))
    level = item["level"]
    if level not in LEVELS:
        raise ValueError(f"unknown level {level!r} for {item['construct']}")
    feature = item["feature"]
    if feature not in FEATURES and feature != UNCLASSIFIED:
        raise ValueError(f"unknown feature {feature!r} for {item['construct']}")
    status = item.get("status", "active")
    if status not in ("active", "deprecated"):
        raise ValueError(f"unknown status {status!r} for {item['construct']}")
    structural = item.get("structural", False)
    if not isinstance(structural, bool):
        raise ValueError(f"structural must be true or false, not {structural!r}, for {item['construct']}")
    return CatalogEntry(
        construct=construct,
        level=level,
        feature=feature,
        status=status,
        provenance=item.get("provenance", "reconstructed"),
        structural=structural,
    )


def catalog_from_data(data: dict) -> Catalog:
    expect(data, dict, "catalog")
    entries: dict[Construct, CatalogEntry] = {}
    for item in expect(data["constructs"], list, "catalog constructs"):
        entry = _entry_from_data(expect(item, dict, "catalog construct entry"))
        if entry.construct in entries:
            raise ValueError(f"duplicate catalog construct {item['construct']}")
        entries[entry.construct] = entry
    rules = ruleset_from_data(data.get("rules", []))
    return Catalog(version=data.get("version", "0"), entries=entries, rules=rules)


def catalog_to_data(catalog: Catalog) -> dict:
    constructs = []
    for entry in catalog.entries.values():
        item: dict = {
            "construct": render_construct(entry.construct),
            "level": entry.level,
            "feature": entry.feature,
            "status": entry.status,
            "provenance": entry.provenance,
        }
        if entry.structural:
            item["structural"] = True
        constructs.append(item)
    constructs.sort(key=lambda item: item["construct"])
    return {
        "version": catalog.version,
        "rules": ruleset_to_data(catalog.rules),
        "constructs": constructs,
    }


def load_catalog(path: str | Path) -> Catalog:
    with open(path, encoding="utf-8") as fh:
        return catalog_from_data(json.load(fh))


@lru_cache(maxsize=1)
def default_catalog() -> Catalog:
    return catalog_from_data(bundled_json("catalog.json"))


def validate_catalog(catalog: Catalog) -> CatalogReport:
    """Check the pinned shape of the default catalog.

    Returns per-check expected/actual pairs rather than raising, so callers
    can render deltas such as ``triggers: 84 != 85``.
    """
    checks = [CatalogCheck("total constructs", EXPECTED_TOTAL, len(catalog.entries))]
    levels = catalog.level_sizes()
    for level in LEVELS:
        checks.append(
            CatalogCheck(f"level {level}", EXPECTED_LEVEL_COUNTS[level], levels.get(level, 0))
        )
    features = catalog.feature_sizes()
    for feature in FEATURES:
        checks.append(
            CatalogCheck(
                f"feature {feature}",
                EXPECTED_FEATURE_COUNTS[feature],
                features.get(feature, 0),
            )
        )
    unexpected = sorted(set(features) - set(FEATURES))
    checks.append(CatalogCheck("unexpected features", [], unexpected))
    mislabeled = sorted(
        render_construct(c)
        for c, e in catalog.entries.items()
        if e.level != level_of(c)
    )
    checks.append(CatalogCheck("levels consistent with prefix rule", [], mislabeled))
    return CatalogReport(tuple(checks))


def classify(construct: Construct, catalog: Catalog) -> str:
    """Feature of a construct, or ``"unknown"`` when not in the catalog."""
    entry = catalog.entries.get(construct)
    return entry.feature if entry is not None else UNKNOWN


def validate_workflow(
    bag: ConstructBag,
    catalog: Catalog,
    paths: list[ConcretePath] | None = None,
) -> ValidationReport:
    """Partition a workflow's constructs by catalog membership.

    When the concrete ``paths`` that produced the bag are supplied, each
    unknown construct is reported with one example path.
    """
    examples: dict[Construct, ConcretePath] = {}
    if paths is not None:
        for path in paths:
            construct = abstract_path(path, catalog.rules)
            examples.setdefault(construct, path)
    tally = tally_constructs(bag_rows(bag, catalog))
    return ValidationReport(tally.known, tuple((c, examples.get(c)) for c in tally.unknown))


Row = tuple[str, Construct, int, "CatalogEntry | None"]
"""A construct of one workflow: rendered text, construct, path count, catalog entry."""


def bag_rows(bag: ConstructBag, catalog: Catalog) -> list[Row]:
    entries = catalog.entries
    return [(render_construct(c), c, n, entries.get(c)) for c, n in bag.counts.items()]


@dataclass(frozen=True)
class ConstructTally:
    """One workflow's constructs split by catalog membership, with per-feature sums.

    ``known`` and ``unknown`` are in rendered order.  ``features`` maps each
    feature met to [paths, constructs used, constructs not structural].
    """

    known: tuple[Construct, ...]
    unknown: tuple[Construct, ...]
    features: dict[str, list[int]]


def tally_constructs(rows: Iterable[Row]) -> ConstructTally:
    """The one aggregation behind the validation report and the workflow metrics.

    Rows with the same rendered text keep their order.
    """
    known = []
    unknown = []
    features: dict[str, list[int]] = {}
    for _, construct, count, entry in sorted(rows, key=itemgetter(0)):
        if entry is None:
            unknown.append(construct)
            continue
        known.append(construct)
        sums = features.get(entry.feature)
        if sums is None:
            sums = features[entry.feature] = [0, 0, 0]
        sums[0] += count
        sums[1] += 1
        if not entry.structural:
            sums[2] += 1
    return ConstructTally(tuple(known), tuple(unknown), features)


def extract_catalog(bags: Iterable[ConstructBag], rules: AbstractionRuleSet | None = None) -> Catalog:
    """Union the constructs of scanned workflows into a fresh catalog.

    Levels are inferred from the prefix rule; features are left
    ``unclassified``.
    """
    if rules is None:
        rules = default_ruleset()
    entries: dict[Construct, CatalogEntry] = {}
    constructs = sorted({c for bag in bags for c in bag.counts}, key=render_construct)
    for construct in constructs:
        entries[construct] = CatalogEntry(
            construct=construct,
            level=level_of(construct),
            feature=UNCLASSIFIED,
            provenance="extracted",
        )
    return Catalog(version="extracted", entries=entries, rules=rules)
