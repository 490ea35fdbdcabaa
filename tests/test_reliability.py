"""Run-outcome metrics, tercile comparisons, outcome regressions."""

import json
import logging
from datetime import datetime, timedelta, timezone
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wflens
from wflens.instants import read_jsonl
from wflens.reliability import (
    CONCLUSIONS,
    OUTCOME_METRICS,
    ReliabilityMetrics,
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


def oracle_parse_instant(text):
    """parse_instant as it was before its UTC shortcut: part of the loader oracle."""
    if not isinstance(text, str):
        raise ValueError(f"instant must be a string, not {text!r}")
    value = datetime.fromisoformat(text.replace("Z", "+00:00"))
    if value.tzinfo is None:
        value = value.replace(tzinfo=timezone.utc)
    try:
        return value.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"instant {text!r} is out of range in UTC") from exc


def oracle_load_run_records(path, warn=logging.getLogger("wflens.reliability").warning):
    """load_run_records as it was before the lean loader: the oracle."""
    records = []
    for lineno, row in read_jsonl(path, "run record", "runs file"):
        try:
            conclusion = str(row["conclusion"])
            if conclusion not in CONCLUSIONS:
                warn(f"{path}:{lineno}: unknown conclusion {conclusion!r} mapped to 'other'")
                conclusion = "other"
            records.append(
                RunRecord(
                    str(row["workflow_id"]),
                    str(row["commit_sha"]),
                    oracle_parse_instant(row["committed_at"]),
                    conclusion,
                )
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise ValueError(f"{path}:{lineno}: malformed run record: {exc}") from exc
    records.sort(key=itemgetter(0, 2))  # (workflow_id, committed_at)
    return records


# Several texts per instant (zones, Z, naive UTC), so that runs tie and that
# the text order of the lines is not their time order.
INSTANT_TEXTS = [
    "2023-01-01T00:00:00Z", "2023-01-01T05:00:00+05:00", "2023-01-01T00:00:00", "2022-12-31T21:00:00-03:00",
    "2023-01-01T01:00:00Z", "2023-01-01T03:00:00+02:00", "2023-01-01T00:30:00-00:30",
    "2023-01-02", "2023-01-01T23:59:59.500000+00:00", "2023-01-01T12:00:00+14:00",
]
RUN_ROWS = st.lists(
    st.fixed_dictionaries({
        "workflow_id": st.sampled_from(["a", "b", "c", 7, 2.5, True, None, ["a"], {"k": 1}]),
        "commit_sha": st.sampled_from(["x", "y", 3]),
        "committed_at": st.sampled_from(INSTANT_TEXTS),
        "conclusion": st.sampled_from([*CONCLUSIONS, "timed_out", "", 0]),
    }),
    max_size=30,
)
MALFORMED_LINES = st.sampled_from([
    '{"workflow_id": "a", "commit_sha": "x", "conclusion": "success"}',
    '{"workflow_id": "a", "commit_sha": "x", "committed_at": "noon", "conclusion": "timed_out"}',
    '{"commit_sha": "x", "committed_at": 5, "conclusion": "timed_out"}',
    '{"workflow_id": "a", "commit_sha": "x", "committed_at": "9999-12-31T23:00:00-05:00", "conclusion": "success"}',
    "[1, 2]",
    '"run"',
    '{"workflow_id": "a",',
])
LINE_ORDERS = ("time", "reverse", "grouped", "text", "shuffled")


def ordered_lines(rows, order, rng):
    """The JSON lines of ``rows`` in one of :data:`LINE_ORDERS` (each sort is stable)."""
    if order in ("time", "reverse"):
        rows = sorted(rows, key=lambda row: oracle_parse_instant(row["committed_at"]), reverse=order == "reverse")
    elif order == "grouped":
        rows = sorted(rows, key=lambda row: str(row["workflow_id"]))
    elif order == "text":
        rows = sorted(rows, key=lambda row: row["committed_at"])
    else:
        rows = rows[:]
        rng.shuffle(rows)
    return [json.dumps(row) for row in rows]


def loaded(load, path):
    """The records and the warnings of ``load(path)``, or its error and the warnings before it."""
    warnings = []
    try:
        return load(path, warn=warnings.append), warnings
    except ValueError as exc:
        return f"ValueError: {exc}", warnings


@pytest.fixture(scope="module")
def runs_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loader") / "runs.jsonl"


@settings(max_examples=300, deadline=None)
@given(
    RUN_ROWS,
    st.sampled_from(LINE_ORDERS),
    st.randoms(use_true_random=False),
    st.one_of(st.none(), st.tuples(st.integers(0, 30), MALFORMED_LINES)),
)
def test_loader_matches_the_oracle_in_every_line_order(runs_path, rows, order, rng, malformed):
    lines = ordered_lines(rows, order, rng)
    if malformed is not None:
        lines.insert(malformed[0], malformed[1])
    runs_path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    got, expected = loaded(wflens.load_run_records, runs_path), loaded(oracle_load_run_records, runs_path)
    assert got == expected
    if isinstance(got[0], list):
        assert all(type(r) is RunRecord for r in got[0])


def oracle_reliability_metrics(records, window):
    """reliability_metrics as it was before the one-pass rewrite: the oracle."""
    start, end = window
    if end <= start:
        raise ValueError("window end must be after its start")
    if not records:
        raise ValueError("no run records supplied")
    workflow_id = records[0].workflow_id
    if any(r.workflow_id != workflow_id for r in records):
        raise ValueError("records of multiple workflows passed to reliability_metrics")
    in_window = sorted(
        (r for r in records if start <= r.committed_at <= end), key=lambda r: r.committed_at
    )
    counted = [r for r in in_window if r.conclusion in ("success", "failure")]
    n_commits = len({r.commit_sha for r in in_window})
    failures = sum(1 for r in counted if r.conclusion == "failure")
    failure_rate = failures / len(counted) if counted else None
    ttr = None
    first_failure = next((r for r in counted if r.conclusion == "failure"), None)
    if first_failure is not None:
        recovered = next(
            (r for r in counted
             if r.conclusion == "success" and r.committed_at > first_failure.committed_at),
            None,
        )
        if recovered is not None:
            ttr = recovered.committed_at - first_failure.committed_at
    availability = None
    if counted:
        failed_time = timedelta(0)
        state = counted[0].conclusion
        cursor = start
        for run in counted:
            if state == "failure":
                failed_time += run.committed_at - cursor
            cursor = run.committed_at
            state = run.conclusion
        if state == "failure":
            failed_time += end - cursor
        availability = 1.0 - failed_time / (end - start)
    return ReliabilityMetrics(
        workflow_id, len(counted), failures, n_commits, failure_rate, ttr, availability
    )


def oracle_group_records(records):
    groups = {}
    for record in records:
        groups.setdefault(record.workflow_id, []).append(record)
    return groups


def outcome_of(function, *args):
    try:
        return repr(function(*args))
    except ValueError as exc:
        return repr(exc)


# Few instants, so that runs tie; days -5 and 105 fall outside WINDOW_100.
RUN_RECORDS = st.lists(
    st.builds(
        RunRecord,
        st.sampled_from(["a", "b", "c"]),
        st.sampled_from(["x", "y", "z"]),
        st.sampled_from([-5, 0, 1, 1.5, 30, 99.999, 100, 105]).map(day),
        st.sampled_from(CONCLUSIONS),
    ),
    max_size=25,
)
WINDOWS = st.sampled_from([WINDOW_100, (day(1), day(30)), (day(5), day(5)), (day(40), day(2))])


@settings(max_examples=300, deadline=None)
@given(RUN_RECORDS, WINDOWS)
def test_metrics_and_grouping_match_the_oracle(records, window):
    groups = group_records(records)
    assert list(groups) == sorted(groups)
    assert groups == oracle_group_records(records)
    # each group, then unsorted, mixed-workflow and empty inputs: every field's
    # repr (exact for the float availability and the timedelta ttr), or the error
    for subset in (*groups.values(), records, records[::-1], records[:1]):
        assert outcome_of(wflens.reliability_metrics, subset, window) == outcome_of(
            oracle_reliability_metrics, subset, window
        )


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


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 5.0, float("nan"), float("inf")])
def test_compare_groups_rejects_alpha_outside_unit_interval(alpha):
    sizes = {"n_paths": {f"w{i}": float(i) for i in range(1, 10)}}
    outcomes = {"n_commits": {f"w{i}": float(i) for i in range(1, 10)}}
    with pytest.raises(ValueError, match="alpha must be strictly between 0 and 1"):
        wflens.compare_groups(sizes, outcomes, alpha=alpha)


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


def _reference_rows(tables, metrics, min_runs):
    """Each table fitted on its own through the public fitters, then BH over all slopes."""
    import numpy as np

    from wflens.stats import bh_adjust, effect_table, fit_binomial_logistic, fit_negative_binomial

    usable = {m.workflow_id: m for m in metrics if m.n_runs_counted >= max(min_runs, 1)}
    slopes = []
    for predictor, analysis, table in tables:
        ids = [w for w in sorted(table) if w in usable]
        x = [float(table[w]) for w in ids]
        if len(ids) < 3 or len(set(x)) < 2:
            continue
        design = np.column_stack([np.ones(len(ids)), x])
        rows = [usable[w] for w in ids]
        fits = (
            ("failure_rate", fit_binomial_logistic(
                design, [m.n_failures for m in rows], [m.n_runs_counted for m in rows])),
            ("n_commits", fit_negative_binomial(design, [m.n_commits for m in rows])),
        )
        slopes += [(predictor, outcome, analysis, len(ids), effect_table(fit)[1])
                   for outcome, fit in fits if fit.converged]
    adjusted = bh_adjust([slope.p_value for *_, slope in slopes])
    return [
        (*key, *(v.hex() for v in (s.ratio, s.ci_low, s.ci_high, s.p_value, p)))
        for (*key, s), p in zip(slopes, adjusted)
    ]


def _row_bits(rows):
    return [
        (r.predictor, r.outcome, r.analysis, r.n,
         *(float(v).hex() for v in (r.ratio, r.ci_low, r.ci_high, r.p_raw, r.p_adjusted)))
        for r in rows
    ]


@pytest.mark.parametrize("min_runs", [3, 6])
def test_shared_outcomes_give_the_public_fitters_bits(min_runs):
    sizes, metrics = _regression_inputs(n=120, seed=11)
    ids = sorted(sizes["n_paths"])
    # n_constructs misses every fifth workflow, so its tables cover another set of workflows
    sizes["n_constructs"] = {w: float(int(sizes["n_paths"][w] ** 0.8)) for w in ids[::5] + ids[1::5]}
    sizes["n_features"] = {w: float(i % 9 + 2) for i, w in enumerate(ids)}
    presence = {
        "commands": {w: sizes["n_paths"][w] > 40 for w in ids},
        "permissions": {w: i % 3 == 0 for i, w in enumerate(ids)},
    }
    path_counts = {
        "commands": {w: int(sizes["n_paths"][w] // 10) for w in ids},
        "permissions": {w: i % 7 for i, w in enumerate(ids) if i % 4},
    }

    rows = wflens.regress_sizes(sizes, metrics, min_runs=min_runs)
    tables = [(m, "size", sizes[m]) for m in ("n_paths", "n_constructs", "n_features")]
    assert len({r.n for r in rows}) == 2
    assert _row_bits(rows) == _reference_rows(tables, metrics, min_runs)

    rows = wflens.regress_features(presence, path_counts, metrics, min_runs=min_runs)
    tables = [(f, a, t[f]) for f in ("commands", "permissions")
              for a, t in (("presence", presence), ("per_path", path_counts))]
    assert len({r.n for r in rows}) == 2
    assert _row_bits(rows) == _reference_rows(tables, metrics, min_runs)
