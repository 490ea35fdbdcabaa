"""Run-outcome metrics, tercile comparisons, outcome regressions."""

import logging
from datetime import datetime, timedelta, timezone

import pytest

import wflens
from wflens.reliability import (
    OUTCOME_METRICS,
    RunRecord,
    features_in_band,
    group_records,
    outcome_table,
)

from conftest import FIXTURES

UTC = timezone.utc
T0 = datetime(2023, 1, 1, tzinfo=UTC)


def day(n: float) -> datetime:
    return T0 + timedelta(days=n)


def runs(workflow_id: str, *events: tuple[float, str]) -> list[RunRecord]:
    return [
        RunRecord(workflow_id, f"{workflow_id}-{i}", day(at), conclusion)
        for i, (at, conclusion) in enumerate(events)
    ]


WINDOW_100 = (day(0), day(100))


def test_fixture_file_semantics():
    records = wflens.load_run_records(FIXTURES / "runs_semantics.jsonl")
    groups = group_records(records)

    ttr = wflens.reliability_metrics(groups["ttr20"], (day(0), day(60)))
    assert ttr.ttr == timedelta(days=20)

    avail = wflens.reliability_metrics(groups["avail70"], WINDOW_100)
    assert avail.availability == pytest.approx(0.70, abs=1e-12)

    half = wflens.reliability_metrics(groups["halffail"], WINDOW_100)
    assert half.failure_rate == 0.5
    assert half.n_runs_counted == 4  # the cancelled run is excluded
    assert half.n_commits == 5  # but its commit still counts

    never = wflens.reliability_metrics(groups["norecovery"], WINDOW_100)
    assert never.ttr is None
    assert never.failure_rate == pytest.approx(2 / 3)


def test_failures_are_counted_not_rebuilt_from_the_rate():
    groups = group_records(wflens.load_run_records(FIXTURES / "runs_semantics.jsonl"))
    for workflow_id, records in groups.items():
        m = wflens.reliability_metrics(records, WINDOW_100)
        counted = [r for r in records if WINDOW_100[0] <= r.committed_at <= WINDOW_100[1]]
        assert m.n_failures == sum(1 for r in counted if r.conclusion == "failure")
        if m.failure_rate is not None:
            assert m.failure_rate == m.n_failures / m.n_runs_counted
    assert wflens.reliability_metrics(groups["halffail"], WINDOW_100).n_failures == 2


def test_ttr_inline():
    m = wflens.reliability_metrics(
        runs("w", (0, "success"), (10, "failure"), (15, "failure"), (30, "success")),
        WINDOW_100,
    )
    assert m.ttr == timedelta(days=20)


def test_availability_carry_forward():
    m = wflens.reliability_metrics(
        runs("w", (0, "success"), (50, "failure"), (80, "success")), WINDOW_100
    )
    assert m.availability == pytest.approx(0.70)


def test_availability_backfill_uses_first_state():
    # First counted run is a failure at day 10: the opening 10 days are
    # backfilled as failed, plus [10, 40) until the success.
    m = wflens.reliability_metrics(runs("w", (10, "failure"), (40, "success")), WINDOW_100)
    assert m.availability == pytest.approx(0.60)


def test_trailing_failure_counts_to_window_end():
    m = wflens.reliability_metrics(runs("w", (0, "success"), (90, "failure")), WINDOW_100)
    assert m.availability == pytest.approx(0.90)
    assert m.ttr is None


def test_all_success():
    m = wflens.reliability_metrics(runs("w", (1, "success"), (2, "success")), WINDOW_100)
    assert m.failure_rate == 0.0
    assert m.availability == 1.0
    assert m.ttr is None


def test_window_is_inclusive_and_filters():
    records = runs("w", (0, "failure"), (50, "success"), (100, "failure"), (150, "success"))
    m = wflens.reliability_metrics(records, WINDOW_100)
    assert m.n_runs_counted == 3  # day-150 run falls outside
    assert m.failure_rate == pytest.approx(2 / 3)


def test_no_counted_runs_leaves_outcomes_absent():
    m = wflens.reliability_metrics(runs("w", (5, "cancelled"), (6, "skipped")), WINDOW_100)
    assert m.n_runs_counted == 0
    assert m.failure_rate is None
    assert m.availability is None
    assert m.n_commits == 2


def test_commits_deduplicate_shas():
    records = [
        RunRecord("w", "same", day(1), "success"),
        RunRecord("w", "same", day(2), "failure"),
        RunRecord("w", "other", day(3), "success"),
    ]
    assert wflens.reliability_metrics(records, WINDOW_100).n_commits == 2


def test_reliability_metrics_input_errors():
    with pytest.raises(ValueError):
        wflens.reliability_metrics([], WINDOW_100)
    with pytest.raises(ValueError):
        wflens.reliability_metrics(runs("w", (0, "success")), (day(5), day(5)))
    mixed = runs("a", (0, "success")) + runs("b", (1, "success"))
    with pytest.raises(ValueError):
        wflens.reliability_metrics(mixed, WINDOW_100)


def test_loader_normalizes_unknown_conclusions(tmp_path, caplog):
    f = tmp_path / "runs.jsonl"
    f.write_text(
        '{"workflow_id": "w", "commit_sha": "s", "committed_at": "2023-01-01T00:00:00Z", "conclusion": "timed_out"}\n',
        encoding="utf-8",
    )
    with caplog.at_level(logging.WARNING):
        records = wflens.load_run_records(f)
    assert records[0].conclusion == "other"
    assert "timed_out" in caplog.text


def test_loader_rejects_malformed_line(tmp_path):
    f = tmp_path / "runs.jsonl"
    f.write_text('{"workflow_id": "w"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        wflens.load_run_records(f)


def test_loader_sorts_records():
    records = wflens.load_run_records(FIXTURES / "runs_semantics.jsonl")
    keys = [(r.workflow_id, r.committed_at) for r in records]
    assert keys == sorted(keys)


# --------------------------------------------------------------- grouping


def test_tercile_split_one_to_nine():
    values = {f"w{i}": float(i) for i in range(1, 10)}
    groups = wflens.tercile_split(values, "n_paths")
    assert groups.small == ("w1", "w2", "w3")
    assert groups.medium == ("w4", "w5", "w6")
    assert groups.large == ("w7", "w8", "w9")


def test_tercile_split_boundary_values():
    data = [10, 20, 29, 29, 45, 61, 61, 70, 80]
    values = {f"w{i}": float(v) for i, v in enumerate(data)}
    groups = wflens.tercile_split(values)
    assert groups.t1 == 29.0
    assert groups.t2 == 61.0
    sizes = {w: values[w] for w in groups.small}
    assert set(sizes.values()) == {10.0, 20.0, 29.0}  # t1 itself goes small
    assert all(values[w] > 61.0 for w in groups.large)


def test_tercile_split_degenerate():
    with pytest.raises(ValueError):
        wflens.tercile_split({"a": 1.0, "b": 2.0})
    with pytest.raises(ValueError, match="degenerate"):
        wflens.tercile_split({"a": 1.0, "b": 1.0, "c": 1.0, "d": 2.0})


def test_outcome_table_omits_absent():
    m = wflens.reliability_metrics(runs("w", (5, "cancelled")), WINDOW_100)
    table = outcome_table([m])
    assert table["failure_rate"] == {}
    assert table["n_commits"] == {"w": 1.0}


def test_compare_groups_directional():
    # Nine workflows; the three largest always fail, the three smallest
    # never do.
    sizes = {"n_paths": {f"w{i}": float(i) for i in range(1, 10)}}
    outcomes = {
        "failure_rate": {f"w{i}": (1.0 if i > 6 else (0.5 if i > 3 else 0.0)) for i in range(1, 10)},
        "n_commits": {f"w{i}": float(i) for i in range(1, 10)},
    }
    report = wflens.compare_groups(sizes, outcomes, alpha=0.05)
    cell = report.cell("n_paths", "failure_rate")
    assert cell.effect.delta == 1.0
    assert cell.p_adjusted >= cell.p_raw - 1e-15
    missing = report.cell("n_paths", "ttr")
    assert missing.p_raw is None and not missing.significant


def test_compare_groups_full_grid(synthetic_corpus):
    sizes, records, window = synthetic_corpus
    groups = group_records(records)
    metrics = [wflens.reliability_metrics(groups[w], window) for w in sorted(groups)]
    report = wflens.compare_groups(sizes, outcome_table(metrics))
    assert len(report.cells) == 16
    seen = {(c.size_metric, c.outcome) for c in report.cells}
    assert len(seen) == 16
    for cell in report.cells:
        if cell.p_raw is not None:
            assert cell.p_adjusted >= cell.p_raw - 1e-15
            assert cell.outcome in OUTCOME_METRICS


# ------------------------------------------------------------- regression


def _regression_inputs(n=90, seed=5):
    import numpy as np

    rng = np.random.default_rng(seed)
    sizes = {"n_paths": {}}
    records = []
    for i in range(n):
        wid = f"w{i:03d}"
        n_paths = float(rng.integers(5, 120))
        sizes["n_paths"][wid] = n_paths
        p_fail = min(0.9, 0.05 + n_paths / 150.0)
        n_runs = int(rng.integers(5, 9))
        pool = max(1, int(n_paths // 12))
        for j in range(n_runs):
            records.append(
                RunRecord(
                    wid,
                    f"{wid}-c{j % pool}",
                    day(float(rng.uniform(0, 99))),
                    "failure" if rng.random() < p_fail else "success",
                )
            )
    groups = group_records(records)
    metrics = [wflens.reliability_metrics(groups[w], WINDOW_100) for w in sorted(groups)]
    return sizes, metrics


def test_regress_sizes_directional():
    sizes, metrics = _regression_inputs()
    rows = wflens.regress_sizes(sizes, metrics)
    by_outcome = {r.outcome: r for r in rows}
    assert by_outcome["failure_rate"].ratio > 1.0
    assert by_outcome["n_commits"].ratio > 1.0
    for row in rows:
        assert row.analysis == "size"
        assert row.p_adjusted >= row.p_raw - 1e-15
        assert row.ci_low <= row.ratio <= row.ci_high


def test_regress_sizes_min_runs_filter():
    sizes, metrics = _regression_inputs()
    all_rows = wflens.regress_sizes(sizes, metrics, min_runs=1)
    strict = wflens.regress_sizes(sizes, metrics, min_runs=6)
    assert strict[0].n < all_rows[0].n


def test_features_in_band():
    presence = {
        "everyone": {f"w{i}": True for i in range(20)},
        "nobody": {f"w{i}": False for i in range(20)},
        "half": {f"w{i}": i % 2 == 0 for i in range(20)},
    }
    assert features_in_band(presence) == ["half"]


def test_regress_features_band_enforced():
    sizes, metrics = _regression_inputs()
    ids = list(sizes["n_paths"])
    presence = {"commands": {w: sizes["n_paths"][w] > 40 for w in ids}}
    counts = {"commands": {w: int(sizes["n_paths"][w] // 10) for w in ids}}
    rows = wflens.regress_features(presence, counts, metrics)
    assert {r.analysis for r in rows} == {"presence", "per_path"}
    assert all(r.predictor == "commands" for r in rows)

    presence["rare"] = {w: w == ids[0] for w in ids}
    counts["rare"] = {w: 1 if w == ids[0] else 0 for w in ids}
    with pytest.raises(ValueError, match="usage band"):
        wflens.regress_features(presence, counts, metrics, features=["rare"])


def test_regress_features_skips_constant_predictor():
    sizes, metrics = _regression_inputs()
    ids = list(sizes["n_paths"])
    presence = {"steady": {w: (sizes["n_paths"][w] > 30) for w in ids}}
    counts = {"steady": {w: 3 for w in ids}}  # constant per-path counts
    rows = wflens.regress_features(presence, counts, metrics)
    assert {r.analysis for r in rows} == {"presence"}


def test_regress_sizes_skips_constant_metric():
    sizes, metrics = _regression_inputs()
    sizes["n_constructs"] = {w: 7.0 for w in sizes["n_paths"]}
    rows = wflens.regress_sizes(sizes, metrics)
    assert {r.predictor for r in rows} == {"n_paths"}
    assert rows == wflens.regress_sizes({"n_paths": sizes["n_paths"]}, metrics)
