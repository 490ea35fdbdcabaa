"""Risk-weighted lint rules over workflow metrics.

The bundled model carries size thresholds plus effect sizes (failure odds
ratios and commit incidence-rate ratios) estimated on a large corpus of
public workflow runs.  Diagnostics report associations, never causes, and
every message says so.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .catalog import FEATURES
from .instants import bundled_json, expect
from .metrics import SIZE_METRICS, FeatureUsage, WorkflowMetrics

CAVEAT = "This is an association observed across workflows, not a causal guarantee."

_METRIC_LABELS = {
    "n_paths": "paths",
    "n_constructs": "distinct constructs",
    "n_features": "features",
    "path_construct_ratio": "path-to-construct ratio",
}
_WARN_CODES = {m: f"W{i + 1:03d}" for i, m in enumerate(SIZE_METRICS)}
_INFO_CODES = {m: f"I{i + 1:03d}" for i, m in enumerate(SIZE_METRICS)}
_FEATURE_CODES = {f: f"F{i + 1:03d}" for i, f in enumerate(FEATURES)}


@dataclass(frozen=True)
class FeatureEffect:
    presence_or: float | None
    presence_irr: float | None
    per_path_or: float | None
    per_path_irr: float | None


@dataclass(frozen=True)
class SizeEffect:
    failure_or: float
    commits_irr: float


@dataclass(frozen=True)
class RiskModel:
    version: str
    thresholds: dict[str, tuple[float, float]]  # metric -> (t1, t2)
    size_effects: dict[str, SizeEffect]
    feature_effects: dict[str, FeatureEffect]


@dataclass(frozen=True)
class Diagnostic:
    rule_id: str
    severity: str  # warn | info
    file: str
    message: str
    evidence: dict


@dataclass(frozen=True)
class RiskSummary:
    relative_failure_odds: float
    relative_commit_rate: float
    caveat: str = CAVEAT


def _positive(value, what: str) -> float:
    """``value`` as a positive float; NaN and infinities, which ``json.load`` reads, are refused."""
    try:
        number = float(value)
    except OverflowError:  # an integer past the float range
        number = math.inf
    if not 0 < number < math.inf:
        raise ValueError(f"{what} must be a positive finite number")
    return number


def risk_model_from_data(data: dict) -> RiskModel:
    expect(data, dict, "risk model")
    thresholds: dict[str, tuple[float, float]] = {}
    for metric, pair in expect(data.get("size_thresholds", {}), dict, "size_thresholds").items():
        if metric not in SIZE_METRICS:
            raise ValueError(f"unknown size metric {metric!r} in risk model")
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"size_thresholds for {metric} must be a [t1, t2] pair")
        t1, t2 = (_positive(t, f"threshold for {metric}") for t in pair)
        if not t1 < t2:
            raise ValueError(f"thresholds for {metric} must satisfy 0 < t1 < t2")
        thresholds[metric] = (t1, t2)

    size_effects: dict[str, SizeEffect] = {}
    for metric, row in expect(data.get("size_effects", {}), dict, "size_effects").items():
        if metric not in SIZE_METRICS:
            raise ValueError(f"unknown size metric {metric!r} in risk model")
        if not isinstance(row, dict) or "failure_or" not in row or "commits_irr" not in row:
            raise ValueError(f"size_effects for {metric} must give failure_or and commits_irr")
        size_effects[metric] = SizeEffect(
            _positive(row["failure_or"], f"{metric}.failure_or"),
            _positive(row["commits_irr"], f"{metric}.commits_irr"),
        )

    feature_effects: dict[str, FeatureEffect] = {}
    for feature, row in expect(data.get("feature_effects", {}), dict, "feature_effects").items():
        if feature not in FEATURES:
            raise ValueError(f"unknown feature {feature!r} in risk model")
        if not isinstance(row, dict):
            raise ValueError(f"feature_effects for {feature} must be a mapping of ratios")
        values = {}
        for key in ("presence_or", "presence_irr", "per_path_or", "per_path_irr"):
            value = row.get(key)
            values[key] = None if value is None else _positive(value, f"{feature}.{key}")
        feature_effects[feature] = FeatureEffect(**values)

    return RiskModel(
        version=data.get("version", "0"),
        thresholds=thresholds,
        size_effects=size_effects,
        feature_effects=feature_effects,
    )


def load_risk_model(path: str | Path) -> RiskModel:
    with open(path, encoding="utf-8") as fh:
        return risk_model_from_data(json.load(fh))


@lru_cache(maxsize=1)
def default_risk_model() -> RiskModel:
    return risk_model_from_data(bundled_json("risk_model.json"))


def _size_diagnostics(
    metrics: WorkflowMetrics, model: RiskModel, file: str
) -> list[Diagnostic]:
    out = []
    for metric in SIZE_METRICS:
        if metric not in model.thresholds:
            continue
        t1, t2 = model.thresholds[metric]
        value = metrics.size_metric(metric)
        effect = model.size_effects.get(metric)
        evidence = {
            "metric": metric,
            "value": round(value, 4),
            "thresholds": [t1, t2],
        }
        if effect is not None:
            evidence["failure_or_per_unit"] = effect.failure_or
            evidence["commits_irr_per_unit"] = effect.commits_irr
        label = _METRIC_LABELS[metric]
        if value > t2:
            per_unit = (
                f" each unit is associated with {effect.failure_or}x failure odds"
                f" and {effect.commits_irr}x maintenance commits;"
                if effect
                else ""
            )
            out.append(
                Diagnostic(
                    rule_id=_WARN_CODES[metric],
                    severity="warn",
                    file=file,
                    message=(
                        f"{label} = {_fmt(value)} exceeds the high-size threshold {_fmt(t2)};"
                        f"{per_unit} {CAVEAT}"
                    ),
                    evidence=evidence,
                )
            )
        elif value > t1:
            out.append(
                Diagnostic(
                    rule_id=_INFO_CODES[metric],
                    severity="info",
                    file=file,
                    message=(
                        f"{label} = {_fmt(value)} lies in the mid-size band"
                        f" ({_fmt(t1)}, {_fmt(t2)}]. {CAVEAT}"
                    ),
                    evidence=evidence,
                )
            )
    return out


def _fmt(value: float) -> str:
    return f"{value:g}"


def _feature_diagnostic(
    feature: str, usage: FeatureUsage, effect: FeatureEffect, file: str
) -> Diagnostic | None:
    evidence = {
        "feature": feature,
        "n_paths": usage.n_paths,
        "presence_or": effect.presence_or,
        "presence_irr": effect.presence_irr,
        "per_path_or": effect.per_path_or,
        "per_path_irr": effect.per_path_irr,
    }
    title = feature.replace("_", " ")
    if effect.presence_or is not None and effect.presence_or > 1:
        irr_part = (
            f" and {effect.presence_irr}x maintenance commits"
            if effect.presence_irr is not None
            else ""
        )
        return Diagnostic(
            rule_id=_FEATURE_CODES[feature],
            severity="warn",
            file=file,
            message=(
                f"uses {title}: associated with {effect.presence_or}x failure"
                f" odds{irr_part}. {CAVEAT}"
            ),
            evidence=evidence,
        )
    if effect.presence_irr is not None and effect.presence_irr > 1:
        or_part = (
            f" lower failure odds ({effect.presence_or}x) but"
            if effect.presence_or is not None
            else ""
        )
        return Diagnostic(
            rule_id=_FEATURE_CODES[feature],
            severity="info",
            file=file,
            message=(
                f"uses {title}: associated with{or_part}"
                f" {effect.presence_irr}x maintenance commits. {CAVEAT}"
            ),
            evidence=evidence,
        )
    return None


def evaluate(
    metrics: WorkflowMetrics, model: RiskModel | None = None, file: str = "<workflow>"
) -> tuple[list[Diagnostic], RiskSummary]:
    """Lint one workflow's metrics against a risk model.

    Returns the diagnostics sorted by (rule id, file) and a summary whose
    relative odds/rate are the products of the presence effect ratios of
    the features the workflow actually uses.
    """
    if model is None:
        model = default_risk_model()
    diagnostics = _size_diagnostics(metrics, model, file)
    failure_odds = 1.0
    commit_rate = 1.0
    for feature in FEATURES:
        effect = model.feature_effects.get(feature)
        usage = metrics.per_feature[feature]
        # Purely structural presence (the jobs/steps scaffolding every
        # workflow has) does not signal feature use.
        if effect is None or not usage.present or usage.structural_only:
            continue
        if effect.presence_or is not None:
            failure_odds *= effect.presence_or
        if effect.presence_irr is not None:
            commit_rate *= effect.presence_irr
        diagnostic = _feature_diagnostic(feature, usage, effect, file)
        if diagnostic is not None:
            diagnostics.append(diagnostic)
    diagnostics.sort(key=lambda d: (d.rule_id, d.file))
    summary = RiskSummary(relative_failure_odds=failure_odds, relative_commit_rate=commit_rate)
    return diagnostics, summary


def diagnostic_to_dict(diagnostic: Diagnostic) -> dict:
    return {
        "rule_id": diagnostic.rule_id,
        "severity": diagnostic.severity,
        "file": diagnostic.file,
        "message": diagnostic.message,
        "evidence": diagnostic.evidence,
    }
