"""Run-outcome analytics: failure rate, commit counts, repair time, availability.

Run records arrive as JSONL, one run per line, with a workflow id, commit
sha, UTC timestamp, and conclusion.  Only success/failure runs count toward
rates and the carry-forward state machine; cancelled and skipped runs are
kept for commit counting but cause no state transition.
"""

from __future__ import annotations

import logging
import math
from collections.abc import Callable
from dataclasses import dataclass
from datetime import datetime, timedelta
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .catalog import FEATURES
from .instants import parse_instant, read_jsonl
from .metrics import SIZE_METRICS
from .stats import (
    EffectSize,
    bh_adjust,
    check_alpha,
    cliffs_delta,
    effect_table,
    linear_quantiles,
    mann_whitney_u,
)
from .stats.glm import _ALL_ZERO, _RANK_DEFICIENT, _Binomial, _Counts, _fit_logistic, _fit_negbin, _full_rank

log = logging.getLogger(__name__)

CONCLUSIONS = ("success", "failure", "cancelled", "skipped", "other")
OUTCOME_METRICS = ("failure_rate", "n_commits", "ttr", "availability")
ALPHA = 0.01
MIN_RUNS = 3
USAGE_BAND = (0.05, 0.95)
_STACK_ROWS = 1 << 13
"""Design rows (tables x workflows) that ``regress`` fits in one stack at most.
Each per-row array of a stacked fit then stays within 64 KB, and the fit's
working set near 1 MB, however many tables and workflows there are."""


class RunRecord(NamedTuple):
    """One run; a tuple, so it compares and sorts field by field."""

    workflow_id: str
    commit_sha: str
    committed_at: datetime
    conclusion: str


def load_run_records(path: str | Path, warn: Callable[[str], object] = log.warning) -> list[RunRecord]:
    """Read run records from JSONL, in any line order, sorted by (workflow_id, committed_at).

    Unknown conclusion strings map to ``other`` with a warning, passed to
    ``warn`` (by default, logged); malformed lines raise with their line
    number.  Runs with equal keys keep their line order.
    """
    records: list[RunRecord] = []
    append = records.append
    new = tuple.__new__  # skips the NamedTuple's generated Python __new__
    # one string per workflow id and per conclusion, so equal ones compare by identity
    ids: dict[str, str] = {}
    known = {c: c for c in CONCLUSIONS}
    for lineno, row in read_jsonl(path, "run record", "runs file"):
        try:
            text = str(row["conclusion"])
            conclusion = known.get(text)
            if conclusion is None:
                warn(f"{path}:{lineno}: unknown conclusion {text!r} mapped to 'other'")
                conclusion = "other"
            workflow_id = str(row["workflow_id"])
            commit_sha = str(row["commit_sha"])
            committed_at = parse_instant(row["committed_at"])
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed run record: {exc}") from exc
        append(new(RunRecord, (ids.setdefault(workflow_id, workflow_id), commit_sha, committed_at, conclusion)))
    records.sort(key=itemgetter(0, 2))  # (workflow_id, committed_at)
    return records


def _finite(number: float) -> float:
    if not math.isfinite(number):
        raise ValueError(f"non-finite number {number}")
    return number


def load_scan_tables(
    path: str | Path,
) -> tuple[dict[str, dict[str, float]], dict[str, dict[str, bool]], dict[str, dict[str, int]]]:
    """Size, presence and per-feature path tables from scan records in JSONL.

    Records of files that failed to parse carry no sizes and are skipped.
    A ``workflow_id`` (``file`` if absent, null or empty) is read as text.
    A malformed record, a non-finite number or a duplicate id raises
    :class:`ValueError` with its line number.
    """
    sizes: dict[str, dict[str, float]] = {m: {} for m in SIZE_METRICS}
    presence: dict[str, dict[str, bool]] = {f: {} for f in FEATURES}
    path_counts: dict[str, dict[str, int]] = {f: {} for f in FEATURES}
    for lineno, record in read_jsonl(path, "scan record", "sizes file"):
        if not isinstance(record, dict):
            raise ValueError(f"{path}:{lineno}: scan record is not a JSON object")
        if "n_paths" not in record:
            continue
        try:
            workflow_id = record.get("workflow_id")
            workflow_id = str(record["file"] if workflow_id in (None, "") else workflow_id)
            duplicate = workflow_id in sizes["n_paths"]
            if not duplicate:
                for metric in SIZE_METRICS:
                    sizes[metric][workflow_id] = _finite(float(record[metric]))
                for feature, usage in record.get("features", {}).items():
                    if feature in presence:
                        used = usage["present"] and not usage["structural_only"]
                        presence[feature][workflow_id] = bool(used)
                        path_counts[feature][workflow_id] = _finite(int(usage["n_paths"]))
        except KeyError as exc:
            raise ValueError(f"{path}:{lineno}: scan record lacks {exc}") from exc
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise ValueError(f"{path}:{lineno}: bad scan record: {exc}") from exc
        if duplicate:
            raise ValueError(f"{path}:{lineno}: duplicate workflow_id {workflow_id!r}")
    if not sizes["n_paths"]:
        raise ValueError(f"sizes file {path} holds no scan records with metrics")
    return sizes, presence, path_counts


@dataclass(frozen=True)
class ReliabilityMetrics:
    workflow_id: str
    n_runs_counted: int
    n_failures: int
    n_commits: int
    failure_rate: float | None
    ttr: timedelta | None
    availability: float | None


def reliability_metrics(
    records: list[RunRecord], window: tuple[datetime, datetime]
) -> ReliabilityMetrics:
    """Outcome metrics for one workflow's runs inside a window.

    ttr covers the first breakage only: the time from the window's first
    failing commit to the next succeeding one, None when nothing fails or
    nothing recovers.  Availability carries the last success/failure state
    forward over the window, backfilling the state before the first counted
    run with that run's own state.
    """
    start, end = window
    if end <= start:
        raise ValueError("window end must be after its start")
    if not records:
        raise ValueError("no run records supplied")
    workflow_id = records[0][0]
    for r in records:
        if r[0] != workflow_id:
            raise ValueError("records of multiple workflows passed to reliability_metrics")

    # stable, and linear on the time-sorted runs that load_run_records gives
    in_window = sorted([r for r in records if start <= r[2] <= end], key=itemgetter(2))
    n_commits = len({r[1] for r in in_window})
    # (committed_at, failed) of each success or failure run, in time order
    counted = [(r[2], r[3] == "failure") for r in in_window if r[3] in ("success", "failure")]
    failures = sum(map(itemgetter(1), counted))

    failure_rate = failures / len(counted) if counted else None

    ttr: timedelta | None = None
    if failures:
        # counted is time-sorted: no run before the first failure is later than it
        runs = iter(counted)
        for broke, run_failed in runs:
            if run_failed:
                break
        for at, run_failed in runs:
            if not run_failed and at > broke:
                ttr = at - broke
                break

    availability: float | None = None
    if counted:
        failed_time = timedelta(0)
        state = counted[0][1]  # backfill before the first counted run
        cursor = start
        for at, run_failed in counted:
            if state:
                failed_time += at - cursor
            cursor = at
            state = run_failed
        if state:
            failed_time += end - cursor
        availability = 1.0 - failed_time / (end - start)

    return ReliabilityMetrics(
        workflow_id=workflow_id,
        n_runs_counted=len(counted),
        n_failures=failures,
        n_commits=n_commits,
        failure_rate=failure_rate,
        ttr=ttr,
        availability=availability,
    )


def group_records(records: list[RunRecord]) -> dict[str, list[RunRecord]]:
    """Each workflow's records in input order, keyed by workflow id in sorted order."""
    by_workflow = itemgetter(0)
    return {w: list(g) for w, g in groupby(sorted(records, key=by_workflow), key=by_workflow)}


@dataclass(frozen=True)
class SizeGroups:
    metric: str
    t1: float
    t2: float
    small: tuple[str, ...]
    medium: tuple[str, ...]
    large: tuple[str, ...]


def tercile_split(values: dict[str, float], metric: str = "") -> SizeGroups:
    """Split workflows at the 33.3rd/66.7th percentiles of a size metric.

    small holds values <= t1, medium (t1, t2], large > t2.
    """
    if len(values) < 3:
        raise ValueError("tercile split needs at least 3 workflows")
    data = np.array(list(values.values()), dtype=float)
    # np.unique's count, NaNs as one value, without the numpy.ma it imports
    if len({v if v == v else math.nan for v in data.tolist()}) < 3:
        raise ValueError("degenerate grouping: fewer than 3 distinct values")
    t1, t2 = linear_quantiles(data, ((100.0 / 3.0) / 100, (200.0 / 3.0) / 100))
    small, medium, large = [], [], []
    for workflow_id in sorted(values):
        value = values[workflow_id]
        if value <= t1:
            small.append(workflow_id)
        elif value <= t2:
            medium.append(workflow_id)
        else:
            large.append(workflow_id)
    return SizeGroups(metric, t1, t2, tuple(small), tuple(medium), tuple(large))


@dataclass(frozen=True)
class ComparisonCell:
    size_metric: str
    outcome: str
    n_small: int
    n_large: int
    u_statistic: float | None
    p_raw: float | None
    p_adjusted: float | None
    effect: EffectSize | None
    significant: bool


@dataclass(frozen=True)
class ComparisonReport:
    alpha: float
    cells: tuple[ComparisonCell, ...]

    def cell(self, size_metric: str, outcome: str) -> ComparisonCell:
        for cell in self.cells:
            if cell.size_metric == size_metric and cell.outcome == outcome:
                return cell
        raise KeyError((size_metric, outcome))


def outcome_table(metrics: list[ReliabilityMetrics]) -> dict[str, dict[str, float]]:
    """Per-outcome value maps; workflows lacking an outcome are omitted."""
    table: dict[str, dict[str, float]] = {name: {} for name in OUTCOME_METRICS}
    for m in metrics:
        if m.failure_rate is not None:
            table["failure_rate"][m.workflow_id] = m.failure_rate
        table["n_commits"][m.workflow_id] = float(m.n_commits)
        if m.ttr is not None:
            table["ttr"][m.workflow_id] = m.ttr.total_seconds()
        if m.availability is not None:
            table["availability"][m.workflow_id] = m.availability
    return table


def compare_groups(
    sizes: dict[str, dict[str, float]],
    outcomes: dict[str, dict[str, float]],
    alpha: float = ALPHA,
) -> ComparisonReport:
    """Small-vs-large comparison across all size metrics and outcomes.

    Every size metric is tercile-split; each outcome is tested large vs
    small with a two-sided Mann-Whitney U plus Cliff's delta (positive
    delta: larger workflows have higher values).  BH runs jointly over all
    cells; MTTR cells cover only workflows that recovered.  ``alpha`` must
    lie strictly between 0 and 1.
    """
    check_alpha(alpha)
    prepared = []
    for size_metric in SIZE_METRICS:
        if size_metric not in sizes:
            continue
        groups = tercile_split(sizes[size_metric], size_metric)
        for outcome in OUTCOME_METRICS:
            values = outcomes.get(outcome, {})
            small = [values[w] for w in groups.small if w in values]
            large = [values[w] for w in groups.large if w in values]
            prepared.append((size_metric, outcome, small, large))

    tested = [
        (mann_whitney_u(large, small), cliffs_delta(large, small)) if small and large else (None, None)
        for _, _, small, large in prepared
    ]
    adjusted = iter(bh_adjust([test.p_value for test, _ in tested if test is not None]))
    cells = []
    for (size_metric, outcome, small, large), (test, effect) in zip(prepared, tested):
        p_adj = None if test is None else next(adjusted)
        cells.append(
            ComparisonCell(
                size_metric=size_metric,
                outcome=outcome,
                n_small=len(small),
                n_large=len(large),
                u_statistic=None if test is None else test.statistic,
                p_raw=None if test is None else test.p_value,
                p_adjusted=p_adj,
                effect=effect,
                significant=p_adj is not None and p_adj < alpha,
            )
        )
    return ComparisonReport(alpha=alpha, cells=tuple(cells))


@dataclass(frozen=True)
class RegressionRow:
    predictor: str
    outcome: str
    analysis: str  # size | presence | per_path
    ratio: float
    ci_low: float
    ci_high: float
    p_raw: float
    p_adjusted: float
    n: int


def _designs(members: list[tuple[int, np.ndarray]]) -> np.ndarray:
    """The stack of designs [1, x] of tables given as (position, x)."""
    stack = np.ones((len(members), len(members[0][1]), 2))
    stack[:, :, 1] = [x for _, x in members]
    return stack


def _regression_rows(
    tables: list[tuple[str, str, dict[str, float]]],
    metrics: list[ReliabilityMetrics],
    min_runs: int,
) -> list[RegressionRow]:
    """Slope rows of both outcome models on each (predictor, analysis, x) table.

    A table with fewer than 3 workflows of ``min_runs`` counted runs or a
    constant x, and a fit that did not converge, give no row.  A workflow
    with no counted run is never used: it has no failure odds.  Tables over
    the same usable workflows (usually all of them) share their two
    prepared outcomes and are fitted together, in stacks of at most
    :data:`_STACK_ROWS` design rows, one stacked call per model; a table's
    fits are those it would get alone.  Errors are raised in table order,
    as fitting one table at a time would raise them.
    """
    usable = {m.workflow_id: m for m in metrics if m.n_runs_counted >= max(min_runs, 1)}
    terms = ("intercept", "slope")
    # usable ids -> (position, x) of each table over them
    groups: dict[tuple[str, ...], list[tuple[int, np.ndarray]]] = {}
    unreadable = None  # the error of the first table whose ids or values cannot be read
    for position, (_, _, table) in enumerate(tables):
        try:
            ids = tuple(w for w in sorted(table) if w in usable)
            x = [float(table[w]) for w in ids]
        except (TypeError, ValueError, OverflowError) as exc:
            unreadable = exc  # raised after the errors of the tables before it
            break
        if len(ids) >= 3 and len(set(x)) >= 2:
            groups.setdefault(ids, []).append((position, np.array(x)))
    stacks = []  # (ids, [(position, x), ...]) of each stack of at most _STACK_ROWS design rows
    for ids, members in groups.items():
        size = max(1, _STACK_ROWS // len(ids))
        stacks.extend((ids, members[start : start + size]) for start in range(0, len(members), size))
    checks = [  # (position, ids, full rank) of each table fitted
        (position, ids, full_rank)
        for ids, members in stacks
        for (position, _), full_rank in zip(members, _full_rank(_designs(members)).tolist())
    ]

    outcomes: dict[tuple[str, ...], tuple[_Binomial, _Counts]] = {}
    for _, ids, full_rank in sorted(checks, key=itemgetter(0)):
        if not full_rank:
            raise ValueError(_RANK_DEFICIENT)
        if ids not in outcomes:
            rows = [usable[w] for w in ids]
            outcomes[ids] = (
                _Binomial([m.n_failures for m in rows], [m.n_runs_counted for m in rows]),
                _Counts([m.n_commits for m in rows]),
            )
        if not outcomes[ids][1].any_positive:
            raise ValueError(_ALL_ZERO)
    if unreadable is not None:
        raise unreadable

    fits = {}
    for ids, members in stacks:
        binomial, counts = outcomes[ids]
        designs = _designs(members)
        pairs = zip(_fit_logistic(designs, binomial, terms), _fit_negbin(designs, counts, terms))
        fits.update((position, (len(ids), pair)) for (position, _), pair in zip(members, pairs))
    results = []
    for position, (n, pair) in sorted(fits.items()):
        predictor, analysis, _ = tables[position]
        for outcome, fit in zip(("failure_rate", "n_commits"), pair):
            if fit.converged:
                results.append((predictor, outcome, analysis, effect_table(fit)[1], n))

    adjusted = bh_adjust([slope.p_value for _, _, _, slope, _ in results]) if results else []
    return [
        RegressionRow(
            predictor=predictor,
            outcome=outcome,
            analysis=analysis,
            ratio=slope.ratio,
            ci_low=slope.ci_low,
            ci_high=slope.ci_high,
            p_raw=slope.p_value,
            p_adjusted=adj,
            n=n,
        )
        for (predictor, outcome, analysis, slope, n), adj in zip(results, adjusted)
    ]


def regress_sizes(
    sizes: dict[str, dict[str, float]],
    metrics: list[ReliabilityMetrics],
    min_runs: int = MIN_RUNS,
) -> list[RegressionRow]:
    """Univariate regressions of run outcomes on each size metric.

    Failure odds use binomial logistic regression with the counted runs as
    trials; commit counts use the negative binomial.  Workflows with fewer
    than ``min_runs`` counted runs are excluded, and a metric with fewer
    than 3 of them or a constant value gives no rows.  BH spans all
    reported slopes jointly.
    """
    tables = [(metric, "size", sizes[metric]) for metric in SIZE_METRICS if metric in sizes]
    return _regression_rows(tables, metrics, min_runs)


def features_in_band(presence: dict[str, dict[str, bool]]) -> list[str]:
    """Features whose usage rate lies inside [5%, 95%] of the workflows."""
    out = []
    for feature in sorted(presence):
        rows = presence[feature]
        if not rows:
            continue
        rate = sum(1 for v in rows.values() if v) / len(rows)
        if USAGE_BAND[0] <= rate <= USAGE_BAND[1]:
            out.append(feature)
    return out


class UsageBandError(ValueError):
    """Features were requested that lie outside the usage band."""


def regress_features(
    presence: dict[str, dict[str, bool]],
    path_counts: dict[str, dict[str, int]],
    metrics: list[ReliabilityMetrics],
    min_runs: int = MIN_RUNS,
    features: list[str] | None = None,
) -> list[RegressionRow]:
    """Per-feature univariate regressions: presence and per-feature paths.

    Features outside the 5%-95% usage band are excluded; requesting one
    raises :class:`UsageBandError`.  BH spans all reported slopes.
    """
    band = features_in_band(presence)
    if features is None:
        features = band
    else:
        outside = [f for f in features if f not in band]
        if outside:
            raise UsageBandError(
                f"features outside the {USAGE_BAND[0]:.0%}-{USAGE_BAND[1]:.0%} usage band: "
                + ", ".join(sorted(outside))
            )
    tables = [
        (feature, analysis, table)
        for feature in features
        for analysis, table in (("presence", presence[feature]), ("per_path", path_counts[feature]))
    ]
    return _regression_rows(tables, metrics, min_runs)
