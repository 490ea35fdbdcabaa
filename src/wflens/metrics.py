"""Per-workflow size and feature-usage metrics.

Ratios are exact rationals internally; serialization rounds to four
fractional digits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .abstraction import Construct, ConstructBag, render_construct
from .catalog import FEATURES, Catalog

RATIO_CAP = Fraction(10)
SIZE_METRICS: tuple[str, ...] = ("n_paths", "n_constructs", "n_features", "path_construct_ratio")


@dataclass(frozen=True)
class FeatureUsage:
    present: bool
    n_paths: int
    n_constructs_used: int
    construct_coverage: Fraction
    path_to_construct_ratio: Fraction | None
    capped_ratio: Fraction | None
    structural_only: bool


@dataclass(frozen=True)
class WorkflowMetrics:
    n_paths: int
    n_constructs: int
    n_features: int
    path_construct_ratio: Fraction
    per_feature: dict[str, FeatureUsage]
    unknown_constructs: tuple[Construct, ...]

    def size_metric(self, name: str) -> float:
        if name not in SIZE_METRICS:
            raise KeyError(f"unknown size metric {name!r}")
        return float(getattr(self, name))


def workflow_metrics(bag: ConstructBag, catalog: Catalog) -> WorkflowMetrics:
    """Size metrics and per-feature usage for one workflow.

    Unknown constructs count toward the size metrics but belong to no
    feature.
    """
    if not bag.counts or bag.total_paths <= 0:
        raise ValueError("empty workflow: no paths to measure")

    feature_sizes = catalog.feature_sizes()
    paths_by_feature: dict[str, int] = {f: 0 for f in FEATURES}
    used_by_feature: dict[str, int] = {f: 0 for f in FEATURES}
    informative_by_feature: dict[str, int] = {f: 0 for f in FEATURES}
    unknown: list[Construct] = []

    for construct, count in bag.counts.items():
        entry = catalog.entries.get(construct)
        if entry is None:
            unknown.append(construct)
            continue
        if entry.feature not in paths_by_feature:
            continue  # unclassified entries (extracted catalogs) have no feature
        paths_by_feature[entry.feature] += count
        used_by_feature[entry.feature] += 1
        if not entry.structural:
            informative_by_feature[entry.feature] += 1

    per_feature: dict[str, FeatureUsage] = {}
    for feature in FEATURES:
        n_paths = paths_by_feature[feature]
        used = used_by_feature[feature]
        ratio = Fraction(n_paths, used) if used else None
        per_feature[feature] = FeatureUsage(
            present=n_paths > 0,
            n_paths=n_paths,
            n_constructs_used=used,
            construct_coverage=Fraction(used, feature_sizes.get(feature, 0)) if used else Fraction(0),
            path_to_construct_ratio=ratio,
            capped_ratio=min(ratio, RATIO_CAP) if ratio is not None else None,
            structural_only=n_paths > 0 and informative_by_feature[feature] == 0,
        )

    return WorkflowMetrics(
        n_paths=bag.total_paths,
        n_constructs=bag.distinct(),
        n_features=sum(1 for usage in per_feature.values() if usage.present),
        path_construct_ratio=Fraction(bag.total_paths, bag.distinct()),
        per_feature=per_feature,
        unknown_constructs=tuple(sorted(unknown, key=render_construct)),
    )


def round4(value: Fraction | float | None) -> float | None:
    """Serialization rounding: four fractional digits."""
    if value is None:
        return None
    return round(float(value), 4)


def metrics_to_dict(metrics: WorkflowMetrics) -> dict:
    """JSON-ready dict with deterministic content."""
    features = {}
    for feature in FEATURES:
        usage = metrics.per_feature[feature]
        features[feature] = {
            "present": usage.present,
            "n_paths": usage.n_paths,
            "n_constructs_used": usage.n_constructs_used,
            "construct_coverage": round4(usage.construct_coverage),
            "path_to_construct_ratio": round4(usage.path_to_construct_ratio),
            "capped_ratio": round4(usage.capped_ratio),
            "structural_only": usage.structural_only,
        }
    return {
        "n_paths": metrics.n_paths,
        "n_constructs": metrics.n_constructs,
        "n_features": metrics.n_features,
        "path_construct_ratio": round4(metrics.path_construct_ratio),
        "features": features,
        "unknown_constructs": [render_construct(c) for c in metrics.unknown_constructs],
    }
