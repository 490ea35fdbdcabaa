"""Corpus-level usage statistics and monthly evolution series.

A corpus is a stream of scanned workflows (construct bag + metrics).  History
manifests describe which file was the live content of a workflow during
which interval, so monthly snapshots can be materialized at month
boundaries (the first UTC instant of each month).
"""

from __future__ import annotations

import statistics
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from .abstraction import Construct, ConstructBag, Placeholder, Wildcard, render_construct
from .catalog import FEATURES, Catalog
from .instants import parse_instant, read_jsonl
from .metrics import WorkflowMetrics
from .stats import FiveNumber, five_number, gini, linear_quantiles, spearman

MIN_LIFESPAN = timedelta(days=30)
DEFAULT_TOP_K = (1, 5, 10, 20, 50, 100)


@dataclass(frozen=True)
class ConstructFrequency:
    occurrences: int
    workflows_using: int
    pct_workflows: float
    median_occurrences: float | None  # None when the construct admits one occurrence


@dataclass(frozen=True)
class CorpusStats:
    n_workflows: int
    construct_freq: dict[Construct, ConstructFrequency]
    feature_usage_rate: dict[str, float]
    gini: float
    topk_share: dict[int, float]
    spearman_paths_constructs: float | None
    dist_n_paths: FiveNumber
    dist_n_constructs: FiveNumber
    dist_n_features: FiveNumber
    dist_ratio: FiveNumber
    feature_coverage: dict[str, FiveNumber | None]
    feature_ratio: dict[str, FiveNumber | None]


def _repeatable(construct: Construct) -> bool:
    """Whether a construct can occur more than once per workflow."""
    return any(isinstance(seg, (Wildcard, Placeholder)) for seg in construct)


def corpus_stats(scans: Iterable[tuple[WorkflowMetrics, ConstructBag]]) -> CorpusStats:
    """Aggregate usage statistics over scanned workflows, reading ``scans`` once.

    Each workflow is folded in as it comes: one dict lookup per construct
    appends its count, and the size and per-feature columns grow by a
    float each.  A construct's occurrences are the sum of its counts and
    its users their number.
    """
    per_workflow: dict[Construct, list[int]] = {}
    n_paths, n_constructs, n_features, ratios = (array("d") for _ in range(4))
    used = {feature: (array("d"), array("d")) for feature in FEATURES}
    for metrics, bag in scans:
        for construct, count in bag.counts.items():
            counts = per_workflow.get(construct)
            if counts is None:
                per_workflow[construct] = [count]
            else:
                counts.append(count)
        n_paths.append(metrics.n_paths)
        n_constructs.append(metrics.n_constructs)
        n_features.append(metrics.n_features)
        ratios.append(metrics.path_construct_ratio)
        per_feature = metrics.per_feature
        for feature, (coverage, ratio) in used.items():
            usage = per_feature[feature]
            if usage.present:
                coverage.append(usage.construct_coverage)
                ratio.append(usage.path_to_construct_ratio)
    n = len(n_paths)
    if not n:
        raise ValueError("corpus is empty")

    construct_freq: dict[Construct, ConstructFrequency] = {}
    for construct, counts in per_workflow.items():
        construct_freq[construct] = ConstructFrequency(
            occurrences=sum(counts),
            workflows_using=len(counts),
            pct_workflows=len(counts) / n,
            median_occurrences=float(statistics.median(counts)) if _repeatable(construct) else None,
        )
    occurrences = [freq.occurrences for freq in construct_freq.values()]

    totals = np.array(sorted(occurrences, reverse=True), dtype=float)
    grand_total = totals.sum()
    ks = sorted({k for k in DEFAULT_TOP_K if k < totals.size} | {totals.size})
    topk_share = {k: float(totals[:k].sum() / grand_total) for k in ks}

    rho: float | None
    try:
        rho = spearman(n_paths, n_constructs)
    except ValueError:
        rho = None

    return CorpusStats(
        n_workflows=n,
        construct_freq=construct_freq,
        feature_usage_rate={feature: len(coverage) / n for feature, (coverage, _) in used.items()},
        gini=gini(occurrences),
        topk_share=topk_share,
        spearman_paths_constructs=rho,
        dist_n_paths=five_number(n_paths),
        dist_n_constructs=five_number(n_constructs),
        dist_n_features=five_number(n_features),
        dist_ratio=five_number(ratios),
        feature_coverage={f: five_number(c) if c else None for f, (c, _) in used.items()},
        feature_ratio={f: five_number(r) if r else None for f, (_, r) in used.items()},
    )


@dataclass(frozen=True)
class HistoryInterval:
    workflow_id: str
    repo: str
    valid_from: datetime
    valid_to: datetime | None  # None: still live
    file: str


def load_history_manifest(path: str | Path) -> list[HistoryInterval]:
    """Read a JSONL history manifest; file references stay relative to it."""
    intervals: list[HistoryInterval] = []
    base = Path(path).parent
    for lineno, row in read_jsonl(path, "manifest record", "manifest"):
        try:
            intervals.append(
                HistoryInterval(
                    workflow_id=row["workflow_id"],
                    repo=row.get("repo", ""),
                    valid_from=parse_instant(row["valid_from"]),
                    valid_to=parse_instant(row["valid_to"]) if row.get("valid_to") else None,
                    file=str(base / row["file"]),
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed manifest record: {exc}") from exc
    return intervals


def month_start(month: str) -> datetime:
    """First UTC instant of a YYYY-MM month."""
    parts = month.split("-")
    if len(parts) != 2:
        raise ValueError(f"month must look like YYYY-MM, not {month!r}")
    year, mon = parts
    try:
        return datetime(int(year), int(mon), 1, tzinfo=timezone.utc)
    except OverflowError as exc:  # a year or month past a C long
        raise ValueError(f"month {month!r} is out of range") from exc


def month_range(start: str, end: str) -> list[str]:
    """Inclusive list of YYYY-MM months."""
    first = month_start(start)
    last = month_start(end)
    if last < first:
        raise ValueError(f"month range {start}..{end} is reversed")
    out = []
    year, mon = first.year, first.month
    while (year, mon) <= (last.year, last.month):
        out.append(f"{year:04d}-{mon:02d}")
        mon += 1
        if mon > 12:
            year, mon = year + 1, 1
    return out


def materialize_snapshots(
    intervals: list[HistoryInterval], months: list[str]
) -> dict[str, list[HistoryInterval]]:
    """Per month, the interval live at the month's first UTC instant.

    Workflows whose total lifespan is under 30 days are excluded entirely;
    overlapping intervals for one workflow are an error naming it.
    """
    by_workflow: dict[str, list[HistoryInterval]] = {}
    for interval in intervals:
        if interval.valid_to is not None and interval.valid_to <= interval.valid_from:
            raise ValueError(f"workflow {interval.workflow_id}: empty or reversed interval")
        by_workflow.setdefault(interval.workflow_id, []).append(interval)

    eligible: dict[str, list[HistoryInterval]] = {}
    for workflow_id, rows in by_workflow.items():
        rows.sort(key=lambda r: r.valid_from)
        for previous, current in zip(rows, rows[1:]):
            if previous.valid_to is None or current.valid_from < previous.valid_to:
                raise ValueError(f"workflow {workflow_id}: overlapping history intervals")
        if rows[-1].valid_to is not None:
            lifespan = rows[-1].valid_to - rows[0].valid_from
            if lifespan < MIN_LIFESPAN:
                continue
        eligible[workflow_id] = rows

    snapshots: dict[str, list[HistoryInterval]] = {}
    for month in months:
        instant = month_start(month)
        alive: list[HistoryInterval] = []
        for workflow_id in sorted(eligible):
            for row in eligible[workflow_id]:
                ends = row.valid_to or datetime.max.replace(tzinfo=timezone.utc)
                if row.valid_from <= instant < ends:
                    alive.append(row)
                    break
        snapshots[month] = alive
    return snapshots


@dataclass(frozen=True)
class EvolutionPoint:
    month: str
    n: int
    mean: float | None
    median: float | None
    q1: float | None
    q3: float | None


@dataclass(frozen=True)
class EvolutionSeries:
    metric: str
    points: tuple[EvolutionPoint, ...]


def evolution_series(values_by_month: list[tuple[str, list[float]]], metric: str) -> EvolutionSeries:
    """Aggregate per-month values into an evolution series.

    Months with no alive workflows yield n=0 and null aggregates.  Months
    must be strictly increasing.
    """
    seen: list[str] = []
    points = []
    for month, values in values_by_month:
        if seen and month <= seen[-1]:
            raise ValueError(f"months out of order at {month}")
        seen.append(month)
        if not values:
            points.append(EvolutionPoint(month, 0, None, None, None, None))
            continue
        x = np.array(values, dtype=float)
        mean = float(x.mean())  # in input order, before the quantiles partition x
        q1, med, q3 = linear_quantiles(x, (0.25, 0.5, 0.75))
        points.append(EvolutionPoint(month, x.size, mean, med, q1, q3))
    return EvolutionSeries(metric=metric, points=tuple(points))


def corpus_stats_to_dict(stats: CorpusStats) -> dict:
    """JSON-ready dict with constructs rendered and keys sortable."""

    def fivenum(value: FiveNumber | None) -> dict | None:
        if value is None:
            return None
        return {
            "min": value.min,
            "q1": value.q1,
            "median": value.median,
            "q3": value.q3,
            "max": value.max,
        }

    return {
        "n_workflows": stats.n_workflows,
        "gini": round(stats.gini, 4),
        "spearman_paths_constructs": (
            round(stats.spearman_paths_constructs, 4)
            if stats.spearman_paths_constructs is not None
            else None
        ),
        "topk_share": {str(k): round(v, 4) for k, v in stats.topk_share.items()},
        "feature_usage_rate": {f: round(r, 4) for f, r in stats.feature_usage_rate.items()},
        "construct_freq": {
            render_construct(c): {
                "occurrences": freq.occurrences,
                "workflows_using": freq.workflows_using,
                "pct_workflows": round(freq.pct_workflows, 4),
                "median_occurrences": freq.median_occurrences,
            }
            for c, freq in sorted(stats.construct_freq.items(), key=lambda kv: render_construct(kv[0]))
        },
        "distributions": {
            "n_paths": fivenum(stats.dist_n_paths),
            "n_constructs": fivenum(stats.dist_n_constructs),
            "n_features": fivenum(stats.dist_n_features),
            "path_construct_ratio": fivenum(stats.dist_ratio),
            "features": {
                f: {
                    "construct_coverage": fivenum(stats.feature_coverage[f]),
                    "path_to_construct_ratio": fivenum(stats.feature_ratio[f]),
                }
                for f in FEATURES
            },
        },
    }
