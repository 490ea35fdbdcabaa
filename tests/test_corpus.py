"""Corpus aggregation and monthly evolution."""

import pytest

import wflens
from wflens.corpus import MIN_LIFESPAN, month_start

from conftest import FIXTURES


def scan_paths(path_texts: list[str], catalog):
    ruleset = wflens.default_ruleset()
    bag = wflens.abstract_workflow([wflens.parse_path(p) for p in path_texts], ruleset)
    return wflens.workflow_metrics(bag, catalog), bag


@pytest.fixture(scope="module")
def small_corpus(catalog):
    w1 = scan_paths(["name", "on", "on.push"], catalog)
    w2 = scan_paths(["on", "on.push", "on.pull_request", "jobs", "jobs.a", "jobs.a.runs-on"], catalog)
    w3 = scan_paths(["on", "on.push"], catalog)
    return wflens.corpus_stats([w1, w2, w3])


def _freq(stats, text):
    return stats.construct_freq[wflens.parse_construct(text)]


def test_construct_frequencies(small_corpus):
    on = _freq(small_corpus, "on")
    assert (on.occurrences, on.workflows_using, on.pct_workflows) == (3, 3, 1.0)
    name = _freq(small_corpus, "name")
    assert (name.occurrences, name.workflows_using) == (1, 1)
    assert name.pct_workflows == pytest.approx(1 / 3)


def test_median_occurrences_only_for_repeatable(small_corpus):
    # Fixed-position constructs admit one occurrence per workflow, so a
    # median would always be 1; it is reported as absent instead.
    assert _freq(small_corpus, "on").median_occurrences is None
    assert _freq(small_corpus, "jobs.<id>").median_occurrences == 1.0


def test_corpus_gini_hand_value(small_corpus):
    # Totals {3,3,1,1,1,1,1}: G = 2*54/(7*11) - 8/7 = 20/77.
    assert small_corpus.gini == pytest.approx(20 / 77, abs=1e-12)


def test_topk_share(small_corpus):
    shares = small_corpus.topk_share
    assert shares[1] == pytest.approx(3 / 11)
    assert shares[5] == pytest.approx(9 / 11)
    assert shares[7] == pytest.approx(1.0)
    assert 10 not in shares  # only ks below the construct count, plus the count itself
    assert max(shares) == 7


def test_topk_share_monotone(small_corpus):
    ks = sorted(small_corpus.topk_share)
    values = [small_corpus.topk_share[k] for k in ks]
    assert values == sorted(values)
    assert values[-1] == pytest.approx(1.0)


def test_feature_usage_rate(small_corpus):
    rates = small_corpus.feature_usage_rate
    assert rates["triggers"] == 1.0
    assert rates["naming"] == pytest.approx(1 / 3)
    assert rates["deployment"] == 0.0


def test_spearman_perfect_on_small_corpus(small_corpus):
    # Path counts (3, 6, 2) and construct counts (3, 6, 2) align perfectly.
    assert small_corpus.spearman_paths_constructs == pytest.approx(1.0)


def test_spearman_absent_when_degenerate(catalog):
    w1 = scan_paths(["on", "on.push"], catalog)
    w2 = scan_paths(["on", "on.pull_request"], catalog)
    w3 = scan_paths(["on", "on.push"], catalog)
    stats = wflens.corpus_stats([w1, w2, w3])
    assert stats.spearman_paths_constructs is None  # constant vectors


def test_size_distributions(small_corpus):
    assert small_corpus.dist_n_paths.median == 3.0
    assert small_corpus.dist_n_paths.min == 2.0
    assert small_corpus.dist_n_paths.max == 6.0


def test_feature_coverage_over_users_only(small_corpus):
    # naming is used by one workflow; its coverage distribution is that
    # single value, 1/5.
    cov = small_corpus.feature_coverage["naming"]
    assert cov.min == cov.max == pytest.approx(1 / 5)
    assert small_corpus.feature_coverage["deployment"] is None


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        wflens.corpus_stats([])


def test_corpus_stats_to_dict(small_corpus):
    data = wflens.corpus_stats_to_dict(small_corpus)
    assert data["n_workflows"] == 3
    assert data["gini"] == pytest.approx(20 / 77, abs=1e-4)
    assert data["construct_freq"]["on"]["occurrences"] == 3
    assert set(data["feature_usage_rate"]) == set(wflens.FEATURES)


# --------------------------------------------------------------- history


def test_month_range():
    assert wflens.month_range("2022-11", "2023-02") == ["2022-11", "2022-12", "2023-01", "2023-02"]
    with pytest.raises(ValueError):
        wflens.month_range("2023-05", "2023-01")


def test_manifest_snapshots_and_lifespan():
    intervals = wflens.load_history_manifest(FIXTURES / "history" / "manifest.jsonl")
    months = wflens.month_range("2023-01", "2023-05")
    snapshots = wflens.materialize_snapshots(intervals, months)

    alive = {month: sorted(i.workflow_id for i in rows) for month, rows in snapshots.items()}
    assert alive == {
        "2023-01": [],  # alpha appears Jan 10, after the month boundary
        "2023-02": ["alpha/ci.yml"],
        "2023-03": ["alpha/ci.yml", "beta/ci.yml"],
        "2023-04": ["alpha/ci.yml", "beta/ci.yml"],
        "2023-05": ["alpha/ci.yml"],
    }
    # gamma lived 7 days, under the 30-day floor, so it never appears.
    assert MIN_LIFESPAN.days == 30
    all_ids = {i.workflow_id for rows in snapshots.values() for i in rows}
    assert "gamma/ci.yml" not in all_ids


def test_overlapping_intervals_rejected():
    base = wflens.load_history_manifest(FIXTURES / "history" / "manifest.jsonl")
    clash = wflens.HistoryInterval(
        workflow_id="alpha/ci.yml",
        repo="alpha",
        valid_from=month_start("2023-03"),
        valid_to=None,
        file="small.yml",
    )
    with pytest.raises(ValueError, match="alpha/ci.yml"):
        wflens.materialize_snapshots(base + [clash], ["2023-03"])


def test_malformed_manifest_line_numbered(tmp_path):
    bad = tmp_path / "m.jsonl"
    bad.write_text('{"workflow_id": "x"}\n', encoding="utf-8")
    with pytest.raises(ValueError, match=":1:"):
        wflens.load_history_manifest(bad)


def test_evolution_series_hand_values(catalog):
    intervals = wflens.load_history_manifest(FIXTURES / "history" / "manifest.jsonl")
    months = wflens.month_range("2023-01", "2023-05")
    snapshots = wflens.materialize_snapshots(intervals, months)

    cache = {}
    values_by_month = []
    for month in months:
        values = []
        for interval in snapshots[month]:
            if interval.file not in cache:
                result = wflens.scan_file(interval.file, catalog)
                cache[interval.file] = result.metrics
            values.append(float(cache[interval.file].n_paths))
        values_by_month.append((month, values))

    series = wflens.evolution_series(values_by_month, "n_paths")
    by_month = {p.month: p for p in series.points}
    assert by_month["2023-01"].n == 0
    assert by_month["2023-01"].median is None
    assert by_month["2023-02"].median == 8.0  # small.yml alone
    assert by_month["2023-03"].n == 2
    assert by_month["2023-03"].median == 17.0  # {8, 26}
    assert by_month["2023-03"].q1 == 12.5
    assert by_month["2023-03"].q3 == 21.5
    assert by_month["2023-05"].median == 8.0


def test_evolution_series_month_order_enforced():
    with pytest.raises(ValueError):
        wflens.evolution_series([("2023-02", [1.0]), ("2023-01", [2.0])], "n_paths")


def test_corpus_stats_reads_any_iterable_once(catalog):
    corpus = [
        scan_paths(["name", "on", "on.push"], catalog),
        scan_paths(["on", "jobs", "jobs.a", "jobs.a.steps", "jobs.a.steps[0]", "jobs.a.steps[1]"], catalog),
        scan_paths(["on", "on.push", "jobs", "jobs.a", "jobs.b", "jobs.b.runs-on"], catalog),
        scan_paths(["on", "env", "env.A", "env.B", "env.C"], catalog),
    ]
    assert wflens.corpus_stats(iter(corpus)) == wflens.corpus_stats(corpus)
    assert wflens.corpus_stats(w for w in corpus) == wflens.corpus_stats(tuple(corpus))
    with pytest.raises(ValueError):
        wflens.corpus_stats(iter([]))
