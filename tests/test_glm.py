"""Logistic and negative-binomial regression."""

import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wflens.stats import glm
from wflens.stats import (
    GlmFit,
    effect_table,
    fit_binomial_logistic,
    fit_negative_binomial,
    logistic_log_likelihood,
    logistic_score,
    negbin_log_likelihood,
)


def two_group_design():
    return np.column_stack([np.ones(2), [0.0, 1.0]])


def test_logistic_two_by_two_closed_form():
    # 25/100 vs 50/100: OR = (50/50) / (25/75) = 3.
    fit = fit_binomial_logistic(two_group_design(), [25, 50], [100, 100], terms=("intercept", "x"))
    assert fit.converged
    table = effect_table(fit)
    assert table[1].ratio == pytest.approx(3.0, abs=1e-6)
    assert fit.coefficients[0] == pytest.approx(math.log(25 / 75), abs=1e-6)


def test_logistic_gradient_vanishes_at_optimum():
    rng = np.random.default_rng(7)
    x = rng.uniform(-1, 1, size=200)
    design = np.column_stack([np.ones_like(x), x])
    trials = rng.integers(5, 30, size=200)
    probs = 1 / (1 + np.exp(-(-0.3 + 0.8 * x)))
    successes = rng.binomial(trials, probs)
    fit = fit_binomial_logistic(design, successes, trials)
    beta = np.array(fit.coefficients)

    analytic = logistic_score(design, successes, trials, beta)
    eps = 1e-6
    for j in range(2):
        step = np.zeros(2)
        step[j] = eps
        fd = (
            logistic_log_likelihood(design, successes, trials, beta + step)
            - logistic_log_likelihood(design, successes, trials, beta - step)
        ) / (2 * eps)
        assert abs(analytic[j] - fd) < 1e-4
        assert abs(analytic[j]) < 1e-4  # optimum: both parametrizations near zero


def test_logistic_likelihood_trace_nondecreasing():
    rng = np.random.default_rng(11)
    x = rng.normal(size=120)
    design = np.column_stack([np.ones_like(x), x])
    trials = np.full(120, 10)
    successes = rng.binomial(10, 1 / (1 + np.exp(-x)))
    fit = fit_binomial_logistic(design, successes, trials)
    trace = fit.ll_trace
    assert all(b >= a - 1e-9 for a, b in zip(trace, trace[1:]))


def test_logistic_separation_diagnosed():
    design = np.column_stack([np.ones(6), np.arange(6.0)])
    fit = fit_binomial_logistic(design, [0, 0, 0, 1, 1, 1], [1] * 6)
    assert not fit.converged
    assert "separation" in fit.diagnostic
    with pytest.raises(ValueError):
        effect_table(fit)


def test_logistic_rejects_rank_deficient_design():
    design = np.column_stack([np.ones(4), [1.0, 1.0, 1.0, 1.0]])
    with pytest.raises(ValueError):
        fit_binomial_logistic(design, [1, 0, 1, 0], [1, 1, 1, 1])


def test_negative_binomial_recovery():
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    x = rng.uniform(0, 2, size=1000)
    mu = np.exp(0.5 + 0.3 * x)
    theta = 1.5
    y = rng.negative_binomial(theta, theta / (theta + mu))
    design = np.column_stack([np.ones_like(x), x])
    fit = fit_negative_binomial(design, y, terms=("intercept", "x"))
    assert fit.converged
    for truth, est, se in zip((0.5, 0.3), fit.coefficients, fit.standard_errors):
        assert abs(est - truth) <= 3 * se
    assert abs(fit.dispersion - theta) / theta <= 0.20
    assert time.perf_counter() - start < 30.0


def test_negative_binomial_trace_nondecreasing():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1, size=300)
    mu = np.exp(0.2 + 0.5 * x)
    y = rng.negative_binomial(2.0, 2.0 / (2.0 + mu))
    design = np.column_stack([np.ones_like(x), x])
    fit = fit_negative_binomial(design, y)
    trace = fit.ll_trace
    assert all(b >= a - 1e-6 for a, b in zip(trace, trace[1:]))


def test_negative_binomial_poisson_data_hits_cap():
    rng = np.random.default_rng(21)
    x = rng.uniform(0, 2, size=400)
    y = rng.poisson(np.exp(0.2 + 0.1 * x))
    design = np.column_stack([np.ones_like(x), x])
    fit = fit_negative_binomial(design, y)
    assert fit.dispersion == pytest.approx(1e7)
    assert "near-Poisson" in (fit.diagnostic or "")


def test_negative_binomial_dispersion_maximizes_profile():
    rng = np.random.default_rng(31)
    x = rng.uniform(0, 1, size=500)
    mu = np.exp(0.4 + 0.6 * x)
    y = rng.negative_binomial(1.2, 1.2 / (1.2 + mu))
    design = np.column_stack([np.ones_like(x), x])
    fit = fit_negative_binomial(design, y)
    beta = np.array(fit.coefficients)
    at_hat = negbin_log_likelihood(design, y, beta, fit.dispersion)
    for other in (fit.dispersion * 0.5, fit.dispersion * 2.0, 1.0):
        assert at_hat >= negbin_log_likelihood(design, y, beta, other) - 1e-9


def test_effect_table_ci_hand_value():
    fit = GlmFit(
        family="binomial-logistic",
        terms=("intercept", "x"),
        coefficients=(0.0, 0.0),
        standard_errors=(0.05, 0.1),
        dispersion=None,
        log_likelihood=-1.0,
        converged=True,
        iterations=1,
        ll_trace=(-1.0,),
        diagnostic=None,
    )
    row = effect_table(fit)[1]
    assert row.ratio == 1.0
    assert row.ci_low == pytest.approx(math.exp(-0.196), abs=1e-12)
    assert row.ci_high == pytest.approx(math.exp(0.196), abs=1e-12)
    assert row.p_value == pytest.approx(1.0)


def test_logistic_matches_balanced_proportions():
    # Intercept-only model: fitted probability equals the pooled proportion.
    design = np.ones((3, 1))
    fit = fit_binomial_logistic(design, [3, 5, 2], [10, 10, 10])
    p = 1 / (1 + math.exp(-fit.coefficients[0]))
    assert p == pytest.approx(10 / 30, abs=1e-8)


# ------------------------------------------- scipy as a test-only oracle

counts_strategy = st.lists(st.integers(0, 500), min_size=1, max_size=60)
theta_strategy = st.floats(-4.0, 4.0).map(lambda e: 10.0**e)


@settings(max_examples=300, deadline=None)
@given(counts_strategy, theta_strategy)
def test_tail_sums_match_gamma_functions(counts, theta):
    from scipy.special import digamma, gammaln

    y = np.asarray(counts, dtype=float)
    n = y.size
    tails = glm._Counts(y)
    log_gamma = np.sum(gammaln(y + theta)) - n * gammaln(theta) - np.sum(gammaln(y + 1))
    # the gammaln form cancels terms of this size; judge it against them
    scale = np.sum(np.abs(gammaln(y + theta))) + n * abs(gammaln(theta))
    assert tails.log_gamma_terms(theta) == pytest.approx(log_gamma, rel=1e-9, abs=1e-12 * scale)
    di_gamma = np.sum(digamma(y + theta)) - n * digamma(theta)
    di_scale = np.sum(np.abs(digamma(y + theta))) + n * abs(digamma(theta))
    assert tails.digamma_terms(theta) == pytest.approx(di_gamma, rel=1e-9, abs=1e-12 * di_scale)


@settings(max_examples=200, deadline=None)
@given(counts_strategy, theta_strategy, st.floats(-2.0, 2.0))
@example(counts=[1], theta=1e4, slope=0.0)  # the score cancels to -9.76e-9
def test_likelihood_and_theta_score_match_gamma_forms(counts, theta, slope):
    from scipy.special import digamma, gammaln

    y = np.asarray(counts, dtype=float)
    x = np.column_stack([np.ones(y.size), np.linspace(0.0, 1.0, y.size)])
    beta = np.array([1.0, slope])
    mu = np.exp(x @ beta)
    terms = (
        gammaln(y + theta)
        - gammaln(theta)
        - gammaln(y + 1)
        + theta * np.log(theta / (theta + mu))
        + y * np.log(mu / (theta + mu))
    )
    ll = negbin_log_likelihood(x, y, beta, theta)
    assert ll == pytest.approx(np.sum(terms), rel=1e-9, abs=1e-12 * np.sum(np.abs(terms)))
    score_terms = (
        digamma(y + theta)
        - digamma(theta)
        + np.log(theta)
        + 1.0
        - np.log(theta + mu)
        - (y + theta) / (theta + mu)
    )
    score = glm._theta_score(theta, glm._Counts(y), mu)
    # the score cancels parts of this size, which bounds the oracle's own rounding
    parts = (
        np.abs(digamma(y + theta) - digamma(theta))
        + abs(np.log(theta))
        + 1.0
        + np.abs(np.log(theta + mu))
        + np.abs((y + theta) / (theta + mu))
    )
    assert score == pytest.approx(np.sum(score_terms), rel=1e-9, abs=1e-12 * np.sum(parts))


def test_logistic_likelihood_matches_gammaln_form():
    from scipy.special import gammaln

    rng = np.random.default_rng(3)
    x = np.column_stack([np.ones(50), rng.normal(size=50)])
    t = rng.integers(1, 400, size=50).astype(float)
    s = np.floor(t * rng.uniform(size=50))
    beta = np.array([-0.4, 0.7])
    mu = 1 / (1 + np.exp(-(x @ beta)))
    coef = gammaln(t + 1) - gammaln(s + 1) - gammaln(t - s + 1)
    expected = np.sum(coef + s * np.log(mu) + (t - s) * np.log(1 - mu))
    assert logistic_log_likelihood(x, s, t, beta) == pytest.approx(expected, rel=1e-12)


def test_tail_counts_of_all_zero_counts_are_empty():
    tails = glm._Counts([0, 0, 0])
    assert tails.tails.size == 0
    assert tails.log_gamma_terms(2.5) == 0.0
    assert tails.digamma_terms(2.5) == 0.0


def _theta_score_case():
    rng = np.random.default_rng(31)
    mu = np.exp(0.4 + 0.6 * rng.uniform(0, 1, size=500))
    y = rng.negative_binomial(1.2, 1.2 / (1.2 + mu))
    return glm._Counts(y), mu


BRACKETED = [
    (lambda x: x * x - 2.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x**3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 10.0, 0.0, 5.0),
    (lambda x: (x - 1.0) ** 3, 0.0, 3.0),
    (lambda x: math.atan(x - 0.3), -50.0, 1e6),
    (lambda x: 1.0 if x > 0.7 else -1.0, 0.0, 1.0),
    (lambda x: x, -1.0, 0.0),  # a root at an end point
]


def _solve(solver, f, a, b, **kwargs):
    """The root or the (type, message) of the error, and every x tried."""
    calls = []

    def spy(x):
        calls.append(x)
        return f(x)

    try:
        return float(solver(spy, a, b, **kwargs)), calls
    except (ValueError, RuntimeError) as exc:
        return (type(exc), str(exc)), calls


@pytest.mark.parametrize("case", range(len(BRACKETED)))
def test_brentq_matches_scipy_on_textbook_functions(case):
    from scipy.optimize import brentq

    f, a, b = BRACKETED[case]
    for xtol, rtol in ((2e-12, glm._RTOL_MIN), (1e-10, 1e-12), (1e-3, 1e-6)):
        ours, our_calls = _solve(glm._brentq, f, a, b, xtol=xtol, rtol=rtol)
        theirs, their_calls = _solve(brentq, f, a, b, xtol=xtol, rtol=rtol)
        if isinstance(theirs, float):
            assert abs(ours - theirs) <= xtol
        assert ours == theirs  # same steps, same root or the same error
        assert our_calls == their_calls


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    st.floats(-4.0, 0.0),
    st.floats(0.0, 4.0),
    st.sampled_from([(2e-12, glm._RTOL_MIN), (1e-10, 1e-12), (1e-4, 1e-8)]),
)
def test_brentq_matches_scipy_on_random_polynomials(roots, a, b, tolerances):
    from scipy.optimize import brentq

    def f(x):
        return math.prod(x - r for r in roots) + 0.1 * math.sin(3.0 * x)

    xtol, rtol = tolerances
    ours = _solve(glm._brentq, f, a, b, xtol=xtol, rtol=rtol)
    assert ours == _solve(brentq, f, a, b, xtol=xtol, rtol=rtol)


def test_brentq_matches_scipy_on_theta_score():
    from scipy.optimize import brentq

    counts, mu = _theta_score_case()
    args = (counts, mu)
    ours = glm._brentq(glm._theta_score, 1e-4, 1e7, args=args, xtol=1e-10, rtol=1e-12)
    theirs = brentq(glm._theta_score, 1e-4, 1e7, args=args, xtol=1e-10, rtol=1e-12)
    assert abs(ours - theirs) <= 1e-10
    assert abs(glm._theta_score(ours, *args)) < 1e-6


@pytest.mark.parametrize(
    "f, a, b, kwargs",
    [
        (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # no sign change
        (lambda x: x - 5.0, 0.0, 1.0, {}),  # no sign change
        (lambda x: float("nan"), 0.0, 1.0, {}),
        (lambda x: x**3 - 2.0, 0.0, 2.0, {"maxiter": 2}),
        (lambda x: x**3 - 2.0, 0.0, 2.0, {"maxiter": -1}),
        (lambda x: x, -1.0, 2.0, {"xtol": 0.0}),
        (lambda x: x, -1.0, 2.0, {"rtol": 1e-17}),
    ],
)
def test_brentq_raises_like_scipy(f, a, b, kwargs):
    from scipy.optimize import brentq

    theirs, _ = _solve(brentq, f, a, b, **kwargs)
    assert isinstance(theirs, tuple)
    assert _solve(glm._brentq, f, a, b, **kwargs)[0] == theirs


@pytest.mark.parametrize("bad", [[1, 2.5, 3], [1, float("nan"), 3], [1, float("inf"), 3]])
def test_negative_binomial_rejects_non_whole_counts(bad):
    design = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        fit_negative_binomial(design, bad)
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        negbin_log_likelihood(design, bad, [0.0, 0.0], 1.0)


def test_negative_binomial_accepts_whole_floats():
    design = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
    as_ints = fit_negative_binomial(design, [1, 3, 2, 6])
    as_floats = fit_negative_binomial(design, [1.0, 3.0, 2.0, 6.0])
    assert as_ints.coefficients.tolist() == as_floats.coefficients.tolist()
