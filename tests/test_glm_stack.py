"""Stacked GLM fits: each design of a stack is fitted as it would be alone, to the last bit."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wflens import reliability
from wflens.instants import parse_instant
from wflens.stats import fit_binomial_logistic, fit_negative_binomial, glm

from conftest import bench_module
from regress_reference import fitted_tables, reference_rows, regress_tables


def _hex(values) -> list[str]:
    return [float(v).hex() for v in np.ravel(values).tolist()]


def fields(fit) -> tuple:
    """Every :class:`GlmFit` field, each float by ``float.hex``."""
    dispersion = None if fit.dispersion is None else fit.dispersion.hex()
    return (
        fit.family, fit.terms, _hex(fit.coefficients), _hex(fit.standard_errors), dispersion,
        fit.log_likelihood.hex(), fit.converged, fit.iterations, _hex(fit.ll_trace), fit.diagnostic,
    )


def row_fields(row) -> tuple:
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(row).values())


def fit_stack(designs, successes, trials, counts):
    """Both families fitted on the stack of ``designs``, each checked against the public fitter alone."""
    stack = np.stack(designs)
    logistic = glm._fit_logistic(stack, glm._Binomial(successes, trials), None)
    negbin = glm._fit_negbin(stack, glm._Counts(counts), None)
    assert len(logistic) == len(negbin) == len(designs)
    for design, fit in zip(designs, logistic):
        assert fields(fit) == fields(fit_binomial_logistic(design, successes, trials))
    for design, fit in zip(designs, negbin):
        assert fields(fit) == fields(fit_negative_binomial(design, counts))
    for fit in logistic + negbin:
        if fit.converged:  # the starting likelihood and one per iteration
            assert len(fit.ll_trace) == fit.iterations + 1
    return logistic, negbin


@pytest.mark.parametrize("stack_rows", [reliability._STACK_ROWS, 1000])  # 1000: stacks of 3 designs
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("analysis", ["sizes", "features"])
def test_regress_rows_equal_each_table_fitted_alone(tmp_path, monkeypatch, seed, analysis, stack_rows):
    monkeypatch.setattr(reliability, "_STACK_ROWS", stack_rows)
    gen_runs = bench_module("gen_runs")
    gen_runs.generate_reliability(tmp_path, 300, seed)
    window = tuple(parse_instant(part) for part in gen_runs.WINDOW.split(".."))
    records = reliability.load_run_records(tmp_path / "runs.jsonl", warn=lambda message: None)
    per_workflow = reliability.group_records(records).values()
    metrics = [reliability.reliability_metrics(runs, window) for runs in per_workflow]
    sizes, presence, path_counts = reliability.load_scan_tables(tmp_path / "sizes.jsonl")
    if analysis == "sizes":
        rows = reliability.regress_sizes(sizes, metrics)
    else:
        rows = reliability.regress_features(presence, path_counts, metrics)
    tables = regress_tables(analysis, sizes, presence, path_counts)
    assert rows
    assert list(map(row_fields, rows)) == list(map(row_fields, reference_rows(tables, metrics)))

    groups = {}
    for _, _, ids, design, outcome, _ in fitted_tables(tables, metrics):
        groups.setdefault(ids, (outcome, []))[1].append(design)
    assert max(len(designs) for _, designs in groups.values()) > 1
    for outcome, designs in groups.values():
        fit_stack(designs, *outcome)


design_rows = st.lists(
    st.tuples(
        st.lists(st.floats(-3.0, 3.0).map(lambda v: round(v, 2)), min_size=3, max_size=3),
        st.integers(1, 12),
        st.integers(0, 12),
        st.integers(0, 40),
    ),
    min_size=4,
    max_size=25,
)


@settings(max_examples=60, deadline=None)
@given(design_rows, st.integers(1, 3), st.integers(1, 4), st.booleans())
def test_stacked_fits_equal_fits_alone(rows, k, members, intercept):
    t = np.array([trials for _, trials, _, _ in rows], dtype=float)
    s = np.minimum([successes for _, _, successes, _ in rows], t)
    y = np.array([count for _, _, _, count in rows], dtype=float)
    assume(y.any())
    columns = np.array([values for values, _, _, _ in rows])
    designs = []
    for member in range(members):
        design = np.roll(columns, member, axis=0)[:, :k] * (member + 1)
        if intercept:
            design[:, 0] = 1.0
        designs.append(np.ascontiguousarray(design))
    assume(all(np.linalg.matrix_rank(d) == k for d in designs))
    fit_stack(designs, s, t, y)


def test_stack_members_that_separate_or_are_singular_end_as_they_would_alone():
    ones = np.ones(4)
    designs = [
        np.column_stack([ones, [0.0, 1.0, 0.0, 1.0]]),
        np.column_stack([ones, [0.0, 0.0, 1.0, 1.0]]),  # separates the successes
        np.column_stack([ones, [1.0, 1.0, 1.0, 1.0 + 2.0**-30]]),  # full rank, X'WX singular in LU
        np.column_stack([ones, [3.0, 1.0, 4.0, 1.5]]),
    ]
    logistic, negbin = fit_stack(designs, [0, 0, 4, 4], [4, 4, 4, 4], [0, 1, 5, 9])
    assert [fit.converged for fit in logistic] == [True, False, False, True]
    assert "complete separation" in logistic[1].diagnostic
    assert logistic[2].iterations == negbin[2].iterations == 1
    assert logistic[2].diagnostic == "no convergence after 1 iterations"
    assert np.isnan(logistic[2].standard_errors).all()


def test_stack_members_with_dispersions_held_at_both_bounds():
    n = 2001
    counts = np.zeros(n)
    counts[-1] = 1000
    successes = (np.arange(n) % 3 == 0).astype(float)
    designs = [
        np.column_stack([np.ones(n), np.random.default_rng(seed).uniform(0, 1, n)]) for seed in (0, 3)
    ] + [np.column_stack([np.ones(n), np.linspace(1, 0, n)])]
    _, negbin = fit_stack(designs, successes, np.ones(n), counts)
    bounds = [fit.dispersion for fit in negbin]
    assert glm._THETA_LO in bounds and glm._THETA_HI in bounds
    assert any(glm._THETA_LO < theta < glm._THETA_HI for theta in bounds)


theta_strategy = st.floats(-4.0, 7.0).map(lambda e: 10.0**e)


def update_theta_alone(counts, mu, theta):
    """One member's dispersion solve, one scalar Newton step at a time: the reference of the stacked solve."""
    if glm._theta_score(glm._THETA_HI, counts, mu) > 0:
        return glm._THETA_HI, "dispersion at upper bound (data near-Poisson)"
    if glm._theta_score(glm._THETA_LO, counts, mu) < 0:
        return glm._THETA_LO, "dispersion at lower bound (extreme overdispersion)"
    lo, hi, u = math.log(glm._THETA_LO), math.log(glm._THETA_HI), math.log(theta)
    for _ in range(glm.MAX_ITER):
        theta = math.exp(u)
        score = float(glm._theta_score(theta, counts, mu))
        if score > 0:
            lo = u
        else:
            hi = u
        slope = theta * float(glm._theta_slope(theta, counts, mu))
        step = -score / slope if slope < 0 else math.inf
        if not lo <= u + step <= hi:
            step = (lo + hi) / 2 - u
        u += step
        if abs(step) < 1e-12 or hi - lo < 1e-12:
            break
    return math.exp(u), None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 60), min_size=1, max_size=30),
    st.lists(st.tuples(st.floats(-3.0, 5.0), theta_strategy), min_size=1, max_size=6),
)
def test_stacked_dispersion_solve_takes_each_members_scalar_steps(counts, members):
    y = np.array(counts, dtype=float)
    tails = glm._Counts(y)
    spread = np.linspace(-1.0, 1.0, y.size)
    mu = np.exp([level + tilt * spread for tilt, (level, _) in enumerate(members)])
    start = np.array([theta for _, theta in members])
    thetas, notes = glm._update_theta(tails, mu, start)
    for member, theta, note in zip(range(len(members)), thetas.tolist(), notes):
        expected_theta, expected_note = update_theta_alone(tails, mu[member], start[member])
        assert (theta.hex(), note) == (expected_theta.hex(), expected_note)


def _metrics(n_commits):
    return [
        reliability.ReliabilityMetrics(f"w{i}", 5, i % 3, commits, 0.2, None, 0.9)
        for i, commits in enumerate(n_commits)
    ]


@pytest.mark.parametrize("stack_rows", [reliability._STACK_ROWS, 5])  # 5: one design per stack
def test_regression_errors_come_in_table_order(monkeypatch, stack_rows):
    monkeypatch.setattr(reliability, "_STACK_ROWS", stack_rows)
    metrics = _metrics([0, 0, 0, 0, 0])
    wide = {"w0": 0.0, "w1": 1.0, "w2": 2.0, "w3": 3.0, "w4": 4.0}
    # full rank on its own, but not as matrix_rank judges a design so far off its intercept
    rank_deficient = {"w0": 1e20, "w1": 1e20, "w2": 1e20 * (1 + 2**-40), "w3": 1e20, "w4": 1e20}
    some = {"w0": 0.0, "w1": 1.0, "w2": 2.0}
    with pytest.raises(ValueError, match="^all counts are zero"):
        reliability._regression_rows([("a", "size", wide), ("b", "size", rank_deficient)], metrics, 3)
    with pytest.raises(ValueError, match="^design matrix is rank deficient$"):
        reliability._regression_rows([("b", "size", rank_deficient), ("a", "size", wide)], metrics, 3)
    # a table whose values are not numbers raises in its place too
    junk = {"w0": "x", "w1": 1.0, "w2": 2.0, "w3": 3.0, "w4": 4.0}
    with pytest.raises(ValueError, match="^all counts are zero"):
        reliability._regression_rows([("a", "size", wide), ("j", "size", junk)], metrics, 3)
    with pytest.raises(ValueError, match="^could not convert string to float"):
        reliability._regression_rows([("j", "size", junk), ("a", "size", wide)], metrics, 3)
    # w0-w2 made no commits: a table over them alone raises in its place among the tables over all five
    mixed = _metrics([0, 0, 0, 4, 5])
    with pytest.raises(ValueError, match="^all counts are zero"):
        reliability._regression_rows(
            [("a", "size", wide), ("c", "size", some), ("b", "size", rank_deficient)], mixed, 3
        )
    with pytest.raises(ValueError, match="^design matrix is rank deficient$"):
        reliability._regression_rows(
            [("a", "size", wide), ("b", "size", rank_deficient), ("c", "size", some)], mixed, 3
        )


def test_tables_over_two_sets_of_workflows_fit_in_two_stacks():
    metrics = _metrics([3, 1, 4, 1, 5, 9, 2, 6])
    everyone = {f"w{i}": float(i * i % 7) for i in range(8)}
    most = {f"w{i}": float(i % 3) for i in range(1, 8)}
    tables = [
        ("a", "size", everyone),
        ("b", "size", most),
        ("c", "size", {w: v + 1 for w, v in everyone.items()}),
        ("d", "size", {w: -v for w, v in most.items()}),
    ]
    rows = reliability._regression_rows(tables, metrics, 3)
    assert {(r.predictor, r.n) for r in rows} == {("a", 8), ("b", 7), ("c", 8), ("d", 7)}
    assert list(map(row_fields, rows)) == list(map(row_fields, reference_rows(tables, metrics)))
