"""Reference rows of ``wflens reliability regress``: every table fitted alone.

The command fits all tables over the same workflows in one stack of
designs.  Here each table is fitted on its own through the public fitters,
its slope read by ``effect_table`` and the p-values adjusted by
``bh_adjust``, so the rows must equal the command's to the last bit.  It
needs only numpy, so it also runs where the test extra is not installed.
Run as a script, it checks an installed ``wflens`` on a runs/sizes pair,
for both analyses:

    python tests/regress_reference.py WFLENS RUNS SIZES WINDOW
"""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

from wflens.instants import parse_instant
from wflens.metrics import SIZE_METRICS
from wflens.reliability import (
    MIN_RUNS,
    RegressionRow,
    features_in_band,
    group_records,
    load_run_records,
    load_scan_tables,
    reliability_metrics,
)
from wflens.stats import bh_adjust, effect_table, fit_binomial_logistic, fit_negative_binomial

TERMS = ("intercept", "slope")


def regress_tables(analysis: str, sizes, presence, path_counts) -> list[tuple[str, str, dict]]:
    """The (predictor, analysis, x) tables ``regress_sizes`` or ``regress_features`` fits."""
    if analysis == "sizes":
        return [(metric, "size", sizes[metric]) for metric in SIZE_METRICS if metric in sizes]
    return [
        (feature, kind, table)
        for feature in features_in_band(presence)
        for kind, table in (("presence", presence[feature]), ("per_path", path_counts[feature]))
    ]


def fitted_tables(tables, metrics, min_runs: int = MIN_RUNS):
    """Each table that gets fits: (predictor, analysis, ids, design, outcome arrays, (logistic, NB) fits)."""
    usable = {m.workflow_id: m for m in metrics if m.n_runs_counted >= max(min_runs, 1)}
    for predictor, analysis, table in tables:
        ids = tuple(w for w in sorted(table) if w in usable)
        x = [float(table[w]) for w in ids]
        if len(ids) < 3 or len(set(x)) < 2:
            continue
        design = np.column_stack([np.ones(len(x)), x])
        used = [usable[w] for w in ids]
        s = np.array([m.n_failures for m in used], dtype=float)
        t = np.array([m.n_runs_counted for m in used], dtype=float)
        y = np.array([m.n_commits for m in used], dtype=float)
        fits = fit_binomial_logistic(design, s, t, terms=TERMS), fit_negative_binomial(design, y, terms=TERMS)
        yield predictor, analysis, ids, design, (s, t, y), fits


def reference_rows(tables, metrics, min_runs: int = MIN_RUNS) -> list[RegressionRow]:
    """The regression rows of ``tables``, each fitted alone."""
    slopes = [
        (predictor, outcome, analysis, effect_table(fit)[1], len(ids))
        for predictor, analysis, ids, _, _, fits in fitted_tables(tables, metrics, min_runs)
        for outcome, fit in zip(("failure_rate", "n_commits"), fits)
        if fit.converged
    ]
    p_adjusted = bh_adjust([slope.p_value for _, _, _, slope, _ in slopes]) if slopes else []
    return [
        RegressionRow(
            predictor, outcome, analysis, slope.ratio, slope.ci_low, slope.ci_high, slope.p_value, adjusted, n
        )
        for (predictor, outcome, analysis, slope, n), adjusted in zip(slopes, p_adjusted)
    ]


def main(wflens: str, runs: str, sizes_path: str, window_text: str) -> None:
    start, end = (parse_instant(part) for part in window_text.split(".."))
    records = load_run_records(runs, warn=lambda message: None)
    metrics = [reliability_metrics(group, (start, end)) for group in group_records(records).values()]
    sizes, presence, path_counts = load_scan_tables(sizes_path)
    for analysis in ("sizes", "features"):
        argv = ["reliability", "regress", "--runs", runs, "--sizes", sizes_path, "--window", window_text]
        printed = subprocess.run(
            [wflens, *argv, "--analysis", analysis], capture_output=True, text=True, check=True
        ).stdout
        # the command prints each float rounded to 6 decimals
        expected = [
            {k: round(v, 6) if isinstance(v, float) else v for k, v in vars(row).items()}
            for row in reference_rows(regress_tables(analysis, sizes, presence, path_counts), metrics)
        ]
        got = json.loads(printed)["rows"]
        if got != expected or not got:
            sys.exit(f"regress --analysis {analysis}: {len(got)} rows printed, not the {len(expected)} fitted alone")


if __name__ == "__main__":
    main(*sys.argv[1:])
