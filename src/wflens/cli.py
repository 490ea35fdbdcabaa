"""Command-line entry points.

Exit codes: 0 success, 1 lint warnings or failed validation checks,
2 input or parse failures, 64 usage errors, 74 a failed write to stdout.
"""

from __future__ import annotations

import errno
import os
import sys
from collections.abc import Callable, Iterable, Iterator, Mapping
from datetime import datetime
from functools import partial
from itertools import chain, islice
from pathlib import Path
from typing import TypeVar

import click

from . import __version__
from .abstraction import parse_construct
from .catalog import (
    FEATURES,
    Catalog,
    catalog_to_data,
    classify,
    default_catalog,
    extract_catalog,
    level_of,
    load_catalog,
    validate_catalog,
)
from .corpus import (
    EvolutionSeries,
    corpus_stats,
    corpus_stats_to_dict,
    evolution_series,
    load_history_manifest,
    materialize_snapshots,
    month_range,
)
from .instants import _write, dumps_line, parse_instant
from .lint import Diagnostic, default_risk_model, diagnostic_to_dict, evaluate, load_risk_model
from .metrics import SIZE_METRICS, WorkflowMetrics, round4
from .model import discover_workflow_files
from .reliability import (
    ReliabilityMetrics,
    RunRecord,
    UsageBandError,
    compare_groups,
    group_records,
    load_run_records,
    load_scan_tables,
    outcome_table,
    regress_features,
    regress_sizes,
    reliability_metrics,
)
from .scan import ScanResult, scan_file, scan_line, scan_record
from .stats import check_alpha, mann_kendall


T = TypeVar("T")


class InputError(click.ClickException):
    """A readable-but-bad input: maps to exit code 2."""

    exit_code = 2


class StdoutError(Exception):
    """An :class:`OSError` (its ``__cause__``) from a write to stdout: maps to exit code 74.

    Not an :class:`OSError` itself, so click passes it on instead of
    mapping a closed pipe to exit code 1.
    """


def _echo(text: str, nl: bool = True) -> None:
    """``click.echo(text)`` on stdout, a failed write raised as :class:`StdoutError`."""
    try:
        click.echo(text, nl=nl)
    except OSError as exc:
        raise StdoutError() from exc


def _emit_json(data: object) -> None:
    """Echo ``dumps_indented(data)`` in bounded parts, drawing each iterator in it as written."""
    out: list[str] = []
    _write(data, out, "\n", {}, partial(_echo, nl=False))
    _echo("".join(out))


LINES_PER_WRITE = 256
"""Lines per write of a command that prints one line per record."""


def _echo_lines(lines: Iterable[str]) -> None:
    """Echo each of ``lines`` and a newline, LINES_PER_WRITE lines at a time."""
    lines = iter(lines)
    while batch := list(islice(lines, LINES_PER_WRITE)):
        _echo("\n".join(batch))
        del batch  # before the next is drawn: two batches alive at once grow the heap


def _load(what: str, load: Callable[[str], T], path: str | None, default: Callable[[], T]) -> T:
    """``default()`` without a path, else ``load(path)`` with its faults, deep JSON too, as input errors."""
    if path is None:
        return default()
    try:
        return load(path)
    except (OSError, ValueError, KeyError, TypeError, RecursionError) as exc:
        raise InputError(f"cannot load {what} {path}: {exc}") from exc


def _read(load: Callable[[str], T], path: str) -> T:
    """``load(path)`` of a JSONL input, whose messages name the path already."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc


def _read_runs(path: str) -> list[RunRecord]:
    """The run records of ``path``; the loader's warnings are the command's own, on stderr."""
    return _read(partial(load_run_records, warn=partial(click.echo, err=True)), path)


def _parsed(files: list[str], catalog: Catalog, failed: list[str]) -> Iterator[ScanResult]:
    """Scan ``files`` one at a time and yield those that parse; each failure goes to stderr and ``failed``."""
    for file in files:
        result = scan_file(file, catalog)
        if result.parsed:
            yield result
        else:
            click.echo(f"{result.file}: {result.error}", err=True)
            failed.append(result.file)


def _expand_paths(paths: tuple[str, ...]) -> list[str]:
    """Files stay as given; directories are searched for workflow files."""
    out: list[str] = []
    for raw in paths:
        if Path(raw).is_dir():
            out.extend(discover_workflow_files(raw))
        else:
            out.append(raw)
    if not out:
        raise click.UsageError("no workflow files found under the given paths")
    return out


def _parse_window(text: str) -> tuple[datetime, datetime]:
    parts = text.split("..")
    if len(parts) != 2:
        raise click.UsageError('window must look like "2023-01-01..2023-12-31"')
    try:
        start, end = (parse_instant(p) for p in parts)
    except ValueError as exc:
        raise click.UsageError(f"bad window instant: {exc}") from exc
    if end <= start:
        raise click.UsageError("window end must be after its start")
    return start, end


def _check_alpha(ctx: click.Context, param: click.Parameter, value: float) -> float:
    try:
        return check_alpha(value)
    except ValueError as exc:
        raise click.BadParameter("must be strictly between 0 and 1") from exc


def _num(value: float | None) -> float | None:
    return None if value is None else round(value, 6)


def _fields(row: object) -> dict:
    """A dataclass row's fields, floats rounded by :func:`_num`."""
    return {k: _num(v) if isinstance(v, float) else v for k, v in vars(row).items()}


catalog_option = click.option(
    "--catalog",
    "catalog_path",
    type=click.Path(),
    default=None,
    envvar="WFLENS_CATALOG",
    help="Construct catalog JSON (default: bundled catalog; env WFLENS_CATALOG).",
)


@click.group()
@click.version_option(__version__, prog_name="wflens")
def cli() -> None:
    """Analyze GitHub Actions workflow files."""


# ---------------------------------------------------------------- scan


def _scan_text_line(result: ScanResult) -> str:
    err = result.error
    if err is not None:
        where = "" if err.line is None else f" at line {err.line}, column {err.column}"
        return f"{result.file}: parse error{where}: {err.message}"
    metrics = result.metrics
    unknown = metrics.unknown_constructs
    tail = f", unknown constructs: {len(unknown)}" if unknown else ""
    return (
        f"{result.file}: paths={metrics.n_paths} constructs={metrics.n_constructs} "
        f"features={metrics.n_features} ratio={round4(metrics.path_construct_ratio)}{tail}"
    )


@cli.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@catalog_option
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["json", "jsonl", "text"]),
    default="json",
    show_default=True,
)
def scan(paths: tuple[str, ...], catalog_path: str | None, fmt: str) -> None:
    """Parse workflow files and report per-file size metrics."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    files = sorted(_expand_paths(paths))  # the order of the records' "file"
    make, write = {"json": (scan_record, _emit_json), "jsonl": (scan_line, _echo_lines),
                   "text": (_scan_text_line, _echo_lines)}[fmt]
    failed = False

    def record(file: str) -> object:
        nonlocal failed
        result = scan_file(file, catalog)
        failed = failed or not result.parsed
        return make(result)

    write(map(record, files))
    if failed:
        sys.exit(2)


# ---------------------------------------------------------------- lint


class _RiskEntries(Mapping):
    """Each file's ``risk`` object, built from its (odds, rate, caveat) only as it is written."""

    def __init__(self, risk: dict[str, tuple[float, float, str | None]]):
        self._risk = risk

    def __getitem__(self, file: str) -> dict:
        odds, rate, caveat = self._risk[file]
        return {"relative_failure_odds": odds, "relative_commit_rate": rate, "caveat": caveat}

    def __iter__(self) -> Iterator[str]:
        return iter(self._risk)

    def __len__(self) -> int:
        return len(self._risk)


@cli.command()
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@catalog_option
@click.option(
    "--model",
    "model_path",
    type=click.Path(),
    default=None,
    envvar="WFLENS_RISK_MODEL",
    help="Risk model JSON (default: bundled model; env WFLENS_RISK_MODEL).",
)
@click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="text", show_default=True
)
def lint(paths: tuple[str, ...], catalog_path: str | None, model_path: str | None, fmt: str) -> None:
    """Flag workflow traits associated with worse run outcomes."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    model = _load("risk model", load_risk_model, model_path, default_risk_model)
    failed: list[str] = []
    risk: dict[str, tuple[float, float, str | None]] = {}  # file -> rounded odds, rate and caveat
    warned = False

    def diagnostics() -> Iterator[Diagnostic]:
        nonlocal warned
        for result in _parsed(_expand_paths(paths), catalog, failed):
            diags, summary = evaluate(result.metrics, model, file=result.file)
            warned = warned or any(d.severity == "warn" for d in diags)
            odds, rate = round(summary.relative_failure_odds, 4), round(summary.relative_commit_rate, 4)
            risk[result.file] = (odds, rate, summary.caveat)
            yield from diags

    # ``risk`` fills up while the diagnostics are drawn, in argument order, so
    # both formats write it after them: sort_keys writes "diagnostics" first.
    if fmt == "json":
        _emit_json({"diagnostics": map(diagnostic_to_dict, diagnostics()), "risk": _RiskEntries(risk)})
    else:
        _echo_lines(f"{d.file}: {d.rule_id} {d.severity}: {d.message}" for d in diagnostics())
        _echo_lines(
            f"{file}: relative failure odds {odds}, relative commit rate {rate}"
            for file, (odds, rate, _) in sorted(risk.items())
        )
    if failed:
        sys.exit(2)
    if warned:
        sys.exit(1)


# ---------------------------------------------------------------- catalog


@cli.group("catalog")
def catalog_group() -> None:
    """Inspect, extract, or validate construct catalogs."""


@catalog_group.command("validate")
@catalog_option
def catalog_validate(catalog_path: str | None) -> None:
    """Check a catalog's totals against the published composition."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    report = validate_catalog(catalog)
    for check in report.checks:
        mark = "ok" if check.passed else "FAIL"
        _echo(f"{mark} {check.name}: {check.actual}" + ("" if check.passed else f" (expected {check.expected})"))
    if not report.ok:
        sys.exit(1)


@catalog_group.command("extract")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@catalog_option
def catalog_extract(paths: tuple[str, ...], catalog_path: str | None) -> None:
    """Build a catalog skeleton from the constructs observed in files."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    failed: list[str] = []
    bags = (r.bag for r in _parsed(_expand_paths(paths), catalog, failed))
    extracted = extract_catalog(bags, rules=catalog.rules)
    if not extracted.entries:  # a parsed workflow has at least one construct
        raise InputError("no workflow files could be parsed")
    _emit_json(catalog_to_data(extracted))
    if failed:
        sys.exit(2)


@catalog_group.command("classify")
@click.argument("construct_text")
@catalog_option
def catalog_classify(construct_text: str, catalog_path: str | None) -> None:
    """Print the feature of one abstract construct (or "unknown")."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    try:
        construct = parse_construct(construct_text)
    except ValueError as exc:
        raise click.UsageError(f"bad construct: {exc}") from exc
    _emit_json(
        {
            "construct": construct_text,
            "feature": classify(construct, catalog),
            "level": level_of(construct),
            "known": construct in catalog.entries,
        }
    )


# ---------------------------------------------------------------- corpus


@cli.group("corpus")
def corpus_group() -> None:
    """Statistics over many workflows, and their change over time."""


@corpus_group.command("stats")
@click.argument("paths", nargs=-1, required=True, type=click.Path())
@catalog_option
def corpus_stats_cmd(paths: tuple[str, ...], catalog_path: str | None) -> None:
    """Frequency, concentration, and size distributions of a corpus."""
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    failed: list[str] = []
    scans = ((r.metrics, r.bag) for r in _parsed(_expand_paths(paths), catalog, failed))
    first = next(scans, None)
    if first is None:
        raise InputError("no workflow files could be parsed")
    _emit_json(corpus_stats_to_dict(corpus_stats(chain((first,), scans))))
    if failed:
        sys.exit(2)


def _metric_reader(metric: str) -> Callable[[WorkflowMetrics], float]:
    """The reader of ``metric``, a size metric or ``usage:<feature>``, from one workflow's metrics."""
    if metric in SIZE_METRICS:
        return lambda metrics: metrics.size_metric(metric)
    kind, _, feature = metric.partition(":")
    if kind == "usage" and feature in FEATURES:
        return lambda metrics: 1.0 if metrics.per_feature[feature].present else 0.0
    raise click.UsageError(
        f"unknown metric {metric!r}; use one of {', '.join(SIZE_METRICS)} or usage:<feature>"
    )


def _evolution_series(
    manifest: str, start: str, end: str, metric: str, catalog_path: str | None
) -> EvolutionSeries:
    """The monthly series of ``metric``; its usage errors are raised before any input is read."""
    read = _metric_reader(metric)
    try:
        months = month_range(start, end)
    except ValueError as exc:
        raise click.UsageError(f"bad --from/--to: {exc}") from exc
    catalog = _load("catalog", load_catalog, catalog_path, default_catalog)
    try:
        snapshots = materialize_snapshots(load_history_manifest(manifest), months)
    except (OSError, ValueError) as exc:
        raise InputError(str(exc)) from exc

    cache: dict[str, float] = {}
    values_by_month: list[tuple[str, list[float]]] = []
    for month in months:
        values: list[float] = []
        for interval in snapshots[month]:
            if interval.file not in cache:
                result = scan_file(interval.file, catalog)
                if result.metrics is None:
                    raise InputError(f"{interval.file}: {result.error}")
                cache[interval.file] = read(result.metrics)
            values.append(cache[interval.file])
        values_by_month.append((month, values))
    return evolution_series(values_by_month, metric)


manifest_option = click.option(
    "--manifest", required=True, type=click.Path(exists=True, dir_okay=False),
    help="JSONL history manifest; file references resolve relative to it.",
)
from_option = click.option("--from", "start", required=True, metavar="YYYY-MM")
to_option = click.option("--to", "end", required=True, metavar="YYYY-MM")
metric_option = click.option(
    "--metric", default="n_paths", show_default=True,
    help=f"One of {', '.join(SIZE_METRICS)} or usage:<feature>.",
)


@corpus_group.command("evolve")
@manifest_option
@from_option
@to_option
@metric_option
@catalog_option
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv", show_default=True
)
def corpus_evolve(
    manifest: str, start: str, end: str, metric: str, catalog_path: str | None, fmt: str
) -> None:
    """Monthly aggregates of one metric over snapshotted corpora."""
    series = _evolution_series(manifest, start, end, metric, catalog_path)
    if fmt == "json":
        _emit_json({"metric": series.metric, "points": [_fields(p) for p in series.points]})
        return
    # A month, a count and .6g numbers hold no comma, quote or newline: no field needs CSV quoting.
    rows = (
        [p.month, str(p.n), *("" if v is None else format(v, ".6g") for v in (p.mean, p.median, p.q1, p.q3))]
        for p in series.points
    )
    _echo_lines(map(",".join, chain([["month", "n", "mean", "median", "q1", "q3"]], rows)))


@corpus_group.command("trend")
@manifest_option
@from_option
@to_option
@metric_option
@catalog_option
@click.option(
    "--agg",
    type=click.Choice(["mean", "median", "q1", "q3"]),
    default="median",
    show_default=True,
    help="Monthly aggregate fed to the trend test.",
)
@click.option("--alpha", type=float, default=0.05, show_default=True, callback=_check_alpha)
def corpus_trend(
    manifest: str,
    start: str,
    end: str,
    metric: str,
    catalog_path: str | None,
    agg: str,
    alpha: float,
) -> None:
    """Mann-Kendall monotonic-trend test on a monthly aggregate."""
    series = _evolution_series(manifest, start, end, metric, catalog_path)
    used = [p for p in series.points if p.n > 0]
    values = [getattr(p, agg) for p in used]
    try:
        result = mann_kendall(values, alpha=alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    _emit_json(
        {
            "metric": metric,
            "agg": agg,
            "alpha": alpha,
            "months": [p.month for p in used],
            "n": result.n[0],
            "statistic": _num(result.statistic),
            "tau": _num(result.tau),
            "p_value": _num(result.p_value),
            "trend": result.trend,
            "method": result.method,
        }
    )


# ---------------------------------------------------------------- reliability


@cli.group("reliability")
def reliability_group() -> None:
    """Run-outcome metrics and their association with workflow size."""


runs_option = click.option(
    "--runs", "runs_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="JSONL of run records (workflow_id, commit_sha, committed_at, conclusion).",
)
window_option = click.option(
    "--window", "window_text", required=True, metavar="START..END",
    help='ISO instants, e.g. "2023-01-01..2023-12-31" (dates mean midnight UTC).',
)
sizes_option = click.option(
    "--sizes", "sizes_path", required=True, type=click.Path(exists=True, dir_okay=False),
    help="JSONL of scan records (wflens scan --format jsonl).",
)


def _all_metrics(records, window: tuple[datetime, datetime]) -> list[ReliabilityMetrics]:
    return [reliability_metrics(runs, window) for runs in group_records(records).values()]


def _metrics_row(m: ReliabilityMetrics) -> dict:
    return {
        "workflow_id": m.workflow_id,
        "n_runs_counted": m.n_runs_counted,
        "n_commits": m.n_commits,
        "failure_rate": _num(m.failure_rate),
        "ttr_seconds": None if m.ttr is None else m.ttr.total_seconds(),
        "availability": _num(m.availability),
    }


@reliability_group.command("metrics")
@runs_option
@window_option
@click.option(
    "--format", "fmt", type=click.Choice(["jsonl", "json"]), default="jsonl", show_default=True
)
def reliability_metrics_cmd(runs_path: str, window_text: str, fmt: str) -> None:
    """Per-workflow failure rate, commits, recovery time, availability."""
    window = _parse_window(window_text)
    records = _read_runs(runs_path)
    if not records:
        raise InputError(f"no run records in {runs_path}")
    rows = map(_metrics_row, _all_metrics(records, window))
    if fmt == "json":
        _emit_json(rows)
    else:
        _echo_lines(map(dumps_line, rows))


@reliability_group.command("compare")
@runs_option
@sizes_option
@window_option
@click.option(
    "--size",
    "size_filter",
    type=click.Choice(list(SIZE_METRICS)),
    default=None,
    help="Show only this size metric's cells (tests still adjust jointly).",
)
@click.option("--alpha", type=float, default=0.01, show_default=True, callback=_check_alpha)
def reliability_compare(
    runs_path: str, sizes_path: str, window_text: str, size_filter: str | None, alpha: float
) -> None:
    """Small-vs-large workflow comparison on every outcome metric."""
    window = _parse_window(window_text)
    records = _read_runs(runs_path)
    sizes, _, _ = _read(load_scan_tables, sizes_path)
    metrics = _all_metrics(records, window)
    try:
        report = compare_groups(sizes, outcome_table(metrics), alpha=alpha)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    cells = [
        {
            "size_metric": c.size_metric,
            "outcome": c.outcome,
            "n_small": c.n_small,
            "n_large": c.n_large,
            "u_statistic": c.u_statistic,
            "p_raw": _num(c.p_raw),
            "p_adjusted": _num(c.p_adjusted),
            "delta": None if c.effect is None else _num(c.effect.delta),
            "magnitude": None if c.effect is None else c.effect.magnitude,
            "significant": c.significant,
        }
        for c in report.cells
        if size_filter is None or c.size_metric == size_filter
    ]
    _emit_json({"alpha": report.alpha, "cells": cells})


@reliability_group.command("regress")
@runs_option
@sizes_option
@window_option
@click.option(
    "--analysis",
    type=click.Choice(["sizes", "features"]),
    default="sizes",
    show_default=True,
)
@click.option(
    "--features",
    "features_text",
    default=None,
    help="Comma-separated feature names (features analysis only).",
)
@click.option("--min-runs", type=int, default=3, show_default=True)
def reliability_regress(
    runs_path: str,
    sizes_path: str,
    window_text: str,
    analysis: str,
    features_text: str | None,
    min_runs: int,
) -> None:
    """Univariate outcome regressions on sizes or feature usage."""
    window = _parse_window(window_text)
    # usage errors come before any input is read; the usage band needs the scan records
    if analysis == "sizes" and features_text is not None:
        raise click.UsageError("--features only applies to --analysis features")
    wanted = None
    if features_text is not None:
        wanted = [f.strip() for f in features_text.split(",") if f.strip()]
        unknown = [f for f in wanted if f not in FEATURES]
        if unknown:
            raise click.UsageError(f"unknown features: {', '.join(unknown)}")
    records = _read_runs(runs_path)
    sizes, presence, path_counts = _read(load_scan_tables, sizes_path)
    metrics = _all_metrics(records, window)
    try:
        if analysis == "sizes":
            rows = regress_sizes(sizes, metrics, min_runs=min_runs)
        else:
            rows = regress_features(presence, path_counts, metrics, min_runs=min_runs, features=wanted)
    except UsageBandError as exc:
        raise click.UsageError(str(exc)) from exc
    except ValueError as exc:  # a fit on predictors too far apart for floats
        raise InputError(str(exc)) from exc
    _emit_json({"analysis": analysis, "rows": [_fields(r) for r in rows]})


def main(argv: list[str] | None = None) -> None:
    """Entry point mapping usage mistakes to exit code 64 and a failed write to stdout to 74."""
    try:
        cli.main(args=argv, prog_name="wflens", standalone_mode=False)
    except click.exceptions.Exit as exc:
        sys.exit(exc.exit_code)
    except click.UsageError as exc:
        exc.show()
        sys.exit(64)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except StdoutError as exc:
        if exc.__cause__.errno != errno.EPIPE:  # a reader that left needs no message
            click.echo(f"Error: cannot write to stdout: {exc.__cause__}", err=True)
        # what stdout still buffers goes nowhere, so the interpreter's last flush cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        sys.exit(74)
    sys.exit(0)


if __name__ == "__main__":
    main()
