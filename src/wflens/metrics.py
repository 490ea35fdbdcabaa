"""Per-workflow size and feature-usage metrics.

Each ratio is one ``int / int`` division, correctly rounded to a float;
serialization rounds to four fractional digits.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abstraction import Construct, ConstructBag, render_construct
from .catalog import FEATURES, Catalog, ConstructTally, bag_rows, tally_constructs

RATIO_CAP = 10.0
SIZE_METRICS: tuple[str, ...] = ("n_paths", "n_constructs", "n_features", "path_construct_ratio")


@dataclass(frozen=True)
class FeatureUsage:
    present: bool
    n_paths: int
    n_constructs_used: int
    construct_coverage: float
    path_to_construct_ratio: float | None
    capped_ratio: float | None
    structural_only: bool


@dataclass(frozen=True)
class WorkflowMetrics:
    n_paths: int
    n_constructs: int
    n_features: int
    path_construct_ratio: float
    per_feature: dict[str, FeatureUsage]
    unknown_constructs: tuple[Construct, ...]

    def size_metric(self, name: str) -> float:
        if name not in SIZE_METRICS:
            raise KeyError(f"unknown size metric {name!r}")
        return float(getattr(self, name))


_ABSENT = FeatureUsage(
    present=False,
    n_paths=0,
    n_constructs_used=0,
    construct_coverage=0.0,
    path_to_construct_ratio=None,
    capped_ratio=None,
    structural_only=False,
)


def workflow_metrics(bag: ConstructBag, catalog: Catalog) -> WorkflowMetrics:
    """Size metrics and per-feature usage for one workflow.

    Unknown constructs count toward the size metrics but belong to no
    feature.
    """
    if not bag.counts or bag.total_paths <= 0:
        raise ValueError("empty workflow: no paths to measure")
    return metrics_from_tally(tally_constructs(bag_rows(bag, catalog)), bag, catalog.feature_sizes())


def metrics_from_tally(
    tally: ConstructTally, bag: ConstructBag, feature_sizes: dict[str, int]
) -> WorkflowMetrics:
    """:func:`workflow_metrics` given the bag's tally and the catalog's constructs per feature."""
    per_feature: dict[str, FeatureUsage] = {}
    n_features = 0
    for feature in FEATURES:
        sums = tally.features.get(feature)
        if sums is None:
            per_feature[feature] = _ABSENT
            continue
        n_paths, used, informative = sums
        ratio = n_paths / used
        present = n_paths > 0
        per_feature[feature] = FeatureUsage(
            present=present,
            n_paths=n_paths,
            n_constructs_used=used,
            construct_coverage=used / feature_sizes[feature],
            path_to_construct_ratio=ratio,
            capped_ratio=min(ratio, RATIO_CAP),
            structural_only=present and informative == 0,
        )
        n_features += present

    return WorkflowMetrics(
        n_paths=bag.total_paths,
        n_constructs=bag.distinct(),
        n_features=n_features,
        path_construct_ratio=bag.total_paths / bag.distinct(),
        per_feature=per_feature,
        unknown_constructs=tally.unknown,
    )


def round4(value: float | None) -> float | None:
    """Serialization rounding: four fractional digits."""
    if value is None:
        return None
    return round(value, 4)


def _usage_to_dict(usage: FeatureUsage) -> dict:
    return {
        "present": usage.present,
        "n_paths": usage.n_paths,
        "n_constructs_used": usage.n_constructs_used,
        "construct_coverage": round4(usage.construct_coverage),
        "path_to_construct_ratio": round4(usage.path_to_construct_ratio),
        "capped_ratio": round4(usage.capped_ratio),
        "structural_only": usage.structural_only,
    }


_ABSENT_DICT = _usage_to_dict(_ABSENT)


def _features_to_dict(metrics: WorkflowMetrics) -> dict:
    features = {}
    for feature in FEATURES:
        usage = metrics.per_feature[feature]
        features[feature] = dict(_ABSENT_DICT) if usage is _ABSENT else _usage_to_dict(usage)
    return features


def metrics_to_dict(metrics: WorkflowMetrics) -> dict:
    """JSON-ready dict with deterministic content."""
    return _metric_fields(metrics, _features_to_dict(metrics))


def _metric_fields(metrics: WorkflowMetrics, features: object) -> dict:
    """:func:`metrics_to_dict` with ``features`` as its ``"features"`` value."""
    return {
        "n_paths": metrics.n_paths,
        "n_constructs": metrics.n_constructs,
        "n_features": metrics.n_features,
        "path_construct_ratio": round4(metrics.path_construct_ratio),
        "features": features,
        "unknown_constructs": [render_construct(c) for c in metrics.unknown_constructs],
    }
