"""Acceptance gate: one test per shipped guarantee, at stated tolerance."""

import itertools
import json
import math
import time
from datetime import timedelta

import numpy as np
import pytest
from click.testing import CliRunner

import wflens
from wflens.abstraction import abstract_path
from wflens.cli import cli, main
from wflens.model import Index, Key
from wflens.reliability import group_records, outcome_table
from wflens.stats import (
    bh_adjust,
    cliffs_delta,
    effect_table,
    fit_binomial_logistic,
    fit_negative_binomial,
    gini,
    logistic_log_likelihood,
    logistic_score,
    mann_kendall,
    mann_whitney_u,
)

from conftest import FIXTURES, build_reliability_files

rng = np.random.default_rng(987654321)


def test_c1_catalog_validates_quickly(catalog):
    start = time.perf_counter()
    report = wflens.validate_catalog(catalog)
    elapsed = time.perf_counter() - start
    assert report.ok, [c.name for c in report.checks if not c.passed]
    assert elapsed < 1.0
    print(f"C1 PASS: default catalog validates in {elapsed:.3f}s")


def test_c2_abstraction_matches_golden_file(ruleset):
    cases = json.loads((FIXTURES / "golden_abstraction.json").read_text(encoding="utf-8"))["cases"]
    assert len(cases) == 50
    for case in cases:
        path = tuple(Index(s) if isinstance(s, int) else Key(s) for s in case["segments"])
        got = wflens.render_construct(abstract_path(path, ruleset))
        assert got == case["construct"], case["path"]
    # the worked single-path example, byte for byte
    steps_run = tuple(map(Key, ["jobs", "build", "steps"])) + (Index(0), Key("run"))
    assert wflens.render_construct(abstract_path(steps_run, ruleset)) == "jobs.<id>.steps[*].run"
    print("C2 PASS: 50 golden abstraction cases byte-exact")


def test_c3_two_job_matrix_workflow_counts(node_ci_bag, node_ci_metrics):
    assert node_ci_bag.total_paths == 26
    assert node_ci_bag.distinct() == 19
    assert node_ci_metrics.n_paths == 26
    assert node_ci_metrics.n_constructs == 19
    assert node_ci_metrics.unknown_constructs == ()
    print("C3 PASS: worked example yields 26 paths over 19 known constructs")


def test_c4_stats_against_independent_oracles():
    # Gini vs the O(n^2) pairwise definition
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 50, size=n).astype(float)
        if x.sum() == 0:
            x[0] = 1.0
        pair = float(np.abs(x[:, None] - x[None, :]).sum() / (2.0 * n**2 * x.mean()))
        assert abs(gini(x) - pair) < 1e-12
    assert time.perf_counter() - start < 5.0

    # Mann-Whitney: normal approximation vs exact enumeration
    def exact_enumeration(x, y):
        from scipy.stats import rankdata

        pooled = list(x) + list(y)
        n = len(x)
        ranks = rankdata(pooled, method="average")

        def u_of(idx):
            return sum(ranks[i] for i in idx) - n * (n + 1) / 2

        observed = u_of(range(n))
        lo = min(observed, len(x) * len(y) - observed)
        hi = len(x) * len(y) - lo
        extreme = total = 0
        for combo in itertools.combinations(range(len(pooled)), n):
            total += 1
            u = u_of(combo)
            extreme += u <= lo + 1e-9 or u >= hi - 1e-9
        return extreme / total

    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        x = rng.normal(size=int(rng.integers(3, 9))).tolist()
        y = (rng.normal(size=int(rng.integers(3, 9))) + 0.5).tolist()
        exact = mann_whitney_u(x, y, method="exact").p_value
        assert exact == pytest.approx(exact_enumeration(x, y), abs=1e-12)
        worst = max(worst, abs(exact - mann_whitney_u(x, y, method="normal").p_value))
        ux = mann_whitney_u(x, y).statistic
        uy = mann_whitney_u(y, x).statistic
        assert ux + uy == pytest.approx(len(x) * len(y), abs=1e-9)
    assert worst < 0.05
    assert time.perf_counter() - start < 5.0

    # Cliff's delta vs brute force, plus the magnitude thresholds
    start = time.perf_counter()
    for _ in range(200):
        x = rng.integers(0, 10, size=int(rng.integers(1, 25))).tolist()
        y = rng.integers(0, 10, size=int(rng.integers(1, 25))).tolist()
        brute = (
            sum(1 for a in x for b in y if a > b) - sum(1 for a in x for b in y if a < b)
        ) / (len(x) * len(y))
        assert cliffs_delta(x, y).delta == brute
    for value, magnitude in [(0.146, "negligible"), (0.147, "small"), (0.33, "medium"), (0.474, "large")]:
        n = 1000
        k = round((value + 1) / 2 * n)
        x = [1] * k + [-1] * (n - k)
        assert cliffs_delta(x, [0] * 50).magnitude == magnitude
    assert time.perf_counter() - start < 5.0

    # Benjamini-Hochberg on the canonical ladder
    start = time.perf_counter()
    assert bh_adjust([0.01, 0.02, 0.03, 0.04]) == pytest.approx([0.04, 0.04, 0.04, 0.04])
    for _ in range(100):
        raw = rng.uniform(0, 1, size=int(rng.integers(1, 20))).tolist()
        adjusted = bh_adjust(raw)
        assert all(a >= r - 1e-15 for a, r in zip(adjusted, raw))
    assert time.perf_counter() - start < 5.0

    # Mann-Kendall on clean and noisy monotone series
    start = time.perf_counter()
    clean = mann_kendall(list(range(1, 13)))
    assert clean.tau == 1.0
    assert clean.trend == "increasing"
    noisy = mann_kendall([i + float(rng.normal(0, 0.3)) for i in range(40)])
    assert noisy.tau >= 0.9
    assert noisy.p_value < 0.001
    assert time.perf_counter() - start < 5.0
    print("C4 PASS: gini/mwu/delta/bh/mk agree with independent oracles")


def test_c5_glm_recovery():
    start = time.perf_counter()

    # 25/100 vs 50/100 gives an exact odds ratio of 3
    design = np.column_stack([np.ones(2), [0.0, 1.0]])
    fit = fit_binomial_logistic(design, [25, 50], [100, 100], terms=("intercept", "x"))
    assert effect_table(fit)[1].ratio == pytest.approx(3.0, abs=1e-6)

    # analytic score matches finite differences at the optimum
    x = rng.uniform(-1, 1, size=200)
    design = np.column_stack([np.ones_like(x), x])
    trials = rng.integers(5, 30, size=200)
    successes = rng.binomial(trials, 1 / (1 + np.exp(-(-0.3 + 0.8 * x))))
    fit = fit_binomial_logistic(design, successes, trials)
    beta = np.array(fit.coefficients)
    score = logistic_score(design, successes, trials, beta)
    for j in range(2):
        step = np.zeros(2)
        step[j] = 1e-6
        fd = (
            logistic_log_likelihood(design, successes, trials, beta + step)
            - logistic_log_likelihood(design, successes, trials, beta - step)
        ) / 2e-6
        assert abs(score[j] - fd) < 1e-4
    assert all(b >= a - 1e-9 for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))

    # negative binomial recovers the planted coefficients and dispersion
    nb_rng = np.random.default_rng(1234)
    x = nb_rng.uniform(0, 2, size=1000)
    mu = np.exp(0.5 + 0.3 * x)
    y = nb_rng.negative_binomial(1.5, 1.5 / (1.5 + mu))
    design = np.column_stack([np.ones_like(x), x])
    fit = fit_negative_binomial(design, y)
    assert fit.converged
    for truth, est, se in zip((0.5, 0.3), fit.coefficients, fit.standard_errors):
        assert abs(est - truth) <= 3 * se
    assert abs(fit.dispersion - 1.5) / 1.5 <= 0.20
    assert all(b >= a - 1e-6 for a, b in zip(fit.ll_trace, fit.ll_trace[1:]))

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"C5 PASS: GLM recovery within tolerance in {elapsed:.2f}s")


def test_c6_reliability_semantics():
    records = wflens.load_run_records(FIXTURES / "runs_semantics.jsonl")
    groups = group_records(records)
    from datetime import datetime, timezone

    day0 = datetime(2023, 1, 1, tzinfo=timezone.utc)
    w100 = (day0, day0 + timedelta(days=100))

    assert wflens.reliability_metrics(groups["ttr20"], (day0, day0 + timedelta(days=60))).ttr == timedelta(days=20)
    assert wflens.reliability_metrics(groups["avail70"], w100).availability == pytest.approx(0.70)
    assert wflens.reliability_metrics(groups["halffail"], w100).failure_rate == 0.5
    assert wflens.reliability_metrics(groups["norecovery"], w100).ttr is None
    print("C6 PASS: ttr=20d, availability=0.70, failure rate=0.5, open failure has no ttr")


def test_c7_synthetic_corpus_sign_pattern(synthetic_corpus):
    sizes, records, window = synthetic_corpus
    assert len(sizes["n_paths"]) == 1000
    groups = group_records(records)
    metrics = [wflens.reliability_metrics(groups[w], window) for w in sorted(groups)]
    report = wflens.compare_groups(sizes, outcome_table(metrics), alpha=0.01)
    assert len(report.cells) == 16

    signs = {"failure_rate": 1, "n_commits": 1, "ttr": 1, "availability": -1}
    for cell in report.cells:
        assert cell.p_raw is not None, (cell.size_metric, cell.outcome)
        assert cell.effect.delta * signs[cell.outcome] > 0, (cell.size_metric, cell.outcome)
    for outcome, sign in signs.items():
        cell = report.cell("n_paths", outcome)
        assert cell.significant, outcome
        assert cell.effect.delta * sign > 0
    print("C7 PASS: size terciles show +failure/+commits/+ttr/-availability")


def test_c8_lint_effects_and_exit_codes(catalog):
    from wflens.abstraction import ConstructBag
    from wflens.catalog import parse_construct

    # the two-feature fixture multiplies the published presence odds
    bag = ConstructBag(
        {parse_construct("env"): 1, parse_construct("jobs.<id>.steps[*].run"): 1}, 2
    )
    _, summary = wflens.evaluate(wflens.workflow_metrics(bag, catalog))
    assert summary.relative_failure_odds == pytest.approx(7.5808, abs=1e-9)

    # diagnostics quote the published effect table verbatim
    text = (FIXTURES / "kitchen.yml").read_text(encoding="utf-8")
    km = wflens.workflow_metrics(
        wflens.abstract_workflow(wflens.enumerate_paths(wflens.parse_workflow(text))), catalog
    )
    diags, _ = wflens.evaluate(km)
    ev = {d.evidence["feature"]: d.evidence for d in diags if "feature" in d.evidence}
    assert ev["commands"]["presence_or"] == 4.12
    assert ev["permissions"]["per_path_or"] == 0.838
    assert ev["context"]["presence_irr"] == 1.58
    assert ev["containers"]["per_path_irr"] == 0.391
    assert len(ev) == 10

    def code_of(args):
        with pytest.raises(SystemExit) as e:
            main(args)
        return e.value.code

    assert code_of(["lint", str(FIXTURES / "tiny.yml")]) == 0
    assert code_of(["lint", str(FIXTURES / "kitchen.yml")]) == 1
    assert code_of(["lint", str(FIXTURES / "broken.yml")]) == 2
    assert code_of(["lint", "--format", "yaml", str(FIXTURES / "tiny.yml")]) == 64
    print("C8 PASS: published effects quoted verbatim; exit codes 0/1/2/64 hold")


def test_c9_reruns_are_byte_identical(tmp_path):
    sizes, runs = build_reliability_files(tmp_path)
    corpus = str(FIXTURES / "corpus")
    manifest = str(FIXTURES / "history" / "manifest.jsonl")
    semantics = str(FIXTURES / "runs_semantics.jsonl")
    window = ["--window", "2023-01-01..2023-12-31"]
    matrix = [
        ["scan", corpus],
        ["lint", "--format", "json", corpus],
        ["catalog", "validate"],
        ["catalog", "extract", corpus],
        ["catalog", "classify", "jobs.<id>.strategy"],
        ["corpus", "stats", corpus],
        ["corpus", "evolve", "--manifest", manifest, "--from", "2023-01", "--to", "2023-05"],
        ["corpus", "trend", "--manifest", manifest, "--from", "2023-01", "--to", "2023-05"],
        ["reliability", "metrics", "--runs", semantics, "--window", "2023-01-01..2023-04-11"],
        ["reliability", "compare", "--runs", str(runs), "--sizes", str(sizes), *window],
        ["reliability", "regress", "--runs", str(runs), "--sizes", str(sizes), *window],
    ]
    for args in matrix:
        first = CliRunner().invoke(cli, args)
        second = CliRunner().invoke(cli, args)
        assert first.stdout_bytes, f"no output: {args}"
        assert first.stdout_bytes == second.stdout_bytes, f"nondeterministic: {args}"
        assert first.exit_code == second.exit_code
    print(f"C9 PASS: {len(matrix)} subcommands byte-identical across reruns")
