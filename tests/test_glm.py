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


def test_logistic_fit_held_at_the_clip_is_not_converged():
    # No failure anywhere: the odds run off to zero and the steps stop at the clip.
    fit = fit_binomial_logistic(np.column_stack([np.ones(3), [1.0, 0.0, 1.0]]), [0, 0, 0], [3, 3, 3])
    assert not fit.converged
    assert "separation" in fit.diagnostic
    with pytest.raises(ValueError, match="converged"):
        effect_table(fit)


def test_negative_binomial_fit_held_at_the_clip_is_not_converged():
    # No count in the first group: its mean runs off to zero and the steps stop at the clip.
    fit = fit_negative_binomial(np.column_stack([np.ones(6), [0, 0, 0, 1, 1, 1.0]]), [0, 0, 0, 5, 6, 9])
    assert not fit.converged
    assert "coefficients diverging" in fit.diagnostic
    assert "near-Poisson" in fit.diagnostic
    with pytest.raises(ValueError, match="converged"):
        effect_table(fit)


def test_effect_table_ratios_past_the_float_range_are_infinite():
    # the estimates of the fit above, had it been reported as converged
    fit = GlmFit(
        family="binomial-logit", terms=("intercept", "x"), coefficients=np.array([-30.28, 0.0]),
        standard_errors=np.array([1e6, 1.2e6]), dispersion=None, log_likelihood=-1.0, converged=True,
        iterations=5,
    )
    row = effect_table(fit)[1]
    assert row.ci_low == 0.0
    assert row.ci_high == math.inf
    assert row.p_value == pytest.approx(1.0)


def test_logistic_matches_balanced_proportions():
    # Intercept-only model: fitted probability equals the pooled proportion.
    design = np.ones((3, 1))
    fit = fit_binomial_logistic(design, [3, 5, 2], [10, 10, 10])
    p = 1 / (1 + math.exp(-fit.coefficients[0]))
    assert p == pytest.approx(10 / 30, abs=1e-8)


gain_observations = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.integers(0, 50), st.integers(0, 50)), min_size=1, max_size=30
)
coefficients = st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)).map(np.array)


@settings(max_examples=200, deadline=None)
@given(gain_observations, coefficients, coefficients, st.floats(-4.0, 4.0).map(lambda e: 10.0**e))
@example([(-1.0, 0, 1)], np.array([5.0, 0.0]), np.array([5.0, -3.0]), 1.0)  # eta 5 -> 13, s = 0
def test_irls_gain_matches_the_likelihood_difference(obs, beta, step, theta):
    # |x| <= 1 and coefficients within 10 keep X beta well inside the clip
    x = np.column_stack([np.ones(len(obs)), [v for v, _, _ in obs]])
    y = np.array([k for _, k, _ in obs], dtype=float)
    t = y + np.array([m for _, _, m in obs], dtype=float)
    eta = x @ beta
    lgamma = np.vectorize(math.lgamma)

    def logistic_terms(b):
        p = 1.0 / (1.0 + np.exp(-(x @ b)))
        return lgamma(t + 1) - lgamma(y + 1) - lgamma(t - y + 1), y * np.log(p), (t - y) * np.log(1.0 - p)

    def negbin_terms(b):
        m = np.exp(x @ b)
        gamma = lgamma(y + theta) - lgamma(theta) - lgamma(y + 1)
        return gamma, theta * np.log(theta / (theta + m)), y * np.log(m / (theta + m))

    cases = [
        (logistic_log_likelihood(x, y, t, beta + step) - logistic_log_likelihood(x, y, t, beta),
         glm._logistic_family(eta, y, t, 0.0), logistic_terms),
        (negbin_log_likelihood(x, y, beta + step, theta) - negbin_log_likelihood(x, y, beta, theta),
         glm._negbin_family(eta, np.exp(eta), glm._Counts(y), theta), negbin_terms),
    ]
    for difference, (_, _, _, gain_terms), per_observation in cases:
        # the two totals round at the size of their per-observation terms
        scale = sum(np.sum(np.abs(part)) for b in (beta, beta + step) for part in per_observation(b))
        gain = glm._gain(x, eta, step, *gain_terms)
        assert gain == pytest.approx(difference, abs=1e-12 * scale)


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
    assert tails.trigamma_terms(2.5) == 0.0


@settings(max_examples=300, deadline=None)
@given(counts_strategy, theta_strategy)
def test_trigamma_tail_sums_match_polygamma(counts, theta):
    from scipy.special import polygamma

    y = np.asarray(counts, dtype=float)
    expected = y.size * polygamma(1, theta) - np.sum(polygamma(1, y + theta))
    scale = y.size * polygamma(1, theta) + np.sum(polygamma(1, y + theta))
    assert glm._Counts(y).trigamma_terms(theta) == pytest.approx(expected, rel=1e-9, abs=1e-12 * scale)


@settings(max_examples=200, deadline=None)
@given(counts_strategy, theta_strategy, st.floats(-2.0, 2.0))
def test_theta_slope_matches_central_difference(counts, theta, slope):
    y = np.asarray(counts, dtype=float)
    mu = np.exp(1.0 + slope * np.linspace(0.0, 1.0, y.size))
    tails = glm._Counts(y)
    h = 1e-4  # in log(theta), where the score is smooth on every scale
    ahead = glm._theta_score(theta * math.exp(h), tails, mu)
    behind = glm._theta_score(theta * math.exp(-h), tails, mu)
    # rounding of the score's parts, magnified by 1/h, bounds the difference's accuracy
    parts = tails.digamma_terms(theta) + np.sum(
        abs(np.log(theta)) + 1.0 + np.abs(np.log(theta + mu)) + (y + theta) / (theta + mu)
    )
    assert theta * glm._theta_slope(theta, tails, mu) == pytest.approx(
        (ahead - behind) / (2 * h), rel=1e-6, abs=1e-12 * parts / h
    )


def _profile_ll(tails: glm._Counts, mu: np.ndarray, theta: float) -> float:
    """The NB log-likelihood at fixed means, as a function of the dispersion."""
    return glm._negbin_ll(mu, tails, theta)


_CASE_RNG = np.random.default_rng(31)
_CASE_LOG_MU = 0.4 + 0.6 * _CASE_RNG.uniform(0, 1, size=500)
_CASE_Y = _CASE_RNG.negative_binomial(1.2, 1.2 / (1.2 + np.exp(_CASE_LOG_MU)))
observations = st.lists(st.tuples(st.integers(0, 500), st.floats(-3.0, 6.0)), min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(observations)
@example(list(zip(_CASE_Y.tolist(), _CASE_LOG_MU.tolist())))
@example([(0, 0.0), (3, 0.0)])  # a root inside the range
@example([(1, 0.0)])  # near-Poisson: the upper cap
@example([(0, 6.0), (0, 6.0)])  # the lower cap
def test_update_theta_finds_the_profile_maximum(obs):
    from scipy.optimize import brentq

    y = np.array([c for c, _ in obs], dtype=float)
    mu = np.exp([m for _, m in obs])
    tails = glm._Counts(y)
    lo, hi = glm._THETA_LO, glm._THETA_HI
    s_lo, s_hi = glm._theta_score(lo, tails, mu), glm._theta_score(hi, tails, mu)
    if s_hi > 0:
        reference = hi
    elif s_lo < 0:
        reference = lo
    else:
        # to full precision, which the solver's own stopping rule must match
        reference = brentq(glm._theta_score, lo, hi, args=(tails, mu), xtol=1e-300, rtol=1e-15, maxiter=500)
    for start in (lo, 1.0, hi):
        (theta,), (note,) = glm._update_theta(tails, mu[None], np.array([start]))  # a stack of one
        assert lo <= theta <= hi
        assert (note is None) == (lo < reference < hi)
        ours, theirs = _profile_ll(tails, mu, theta), _profile_ll(tails, mu, reference)
        assert ours >= theirs - 1e-9
        if theirs > ours:
            assert theta == pytest.approx(reference, rel=1e-8)


@pytest.mark.parametrize("bad", [[1, 2.5, 3], [1, float("nan"), 3], [1, float("inf"), 3]])
def test_negative_binomial_rejects_non_whole_counts(bad):
    design = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        fit_negative_binomial(design, bad)
    with pytest.raises(ValueError, match="counts must be whole numbers"):
        negbin_log_likelihood(design, bad, [0.0, 0.0], 1.0)


_DESIGN3 = np.column_stack([np.ones(3), [0.0, 1.0, 2.0]])
_BINOMIAL_RANGE = "need 0 <= successes <= trials and trials > 0"


@pytest.mark.parametrize(
    "fit, message",
    [
        (lambda: fit_binomial_logistic(_DESIGN3, [1, 4, 1], [3, 3, 3]), _BINOMIAL_RANGE),  # s > t
        (lambda: fit_binomial_logistic(_DESIGN3, [0, 0, 0], [3, 0, 3]), _BINOMIAL_RANGE),  # t <= 0
        (lambda: fit_binomial_logistic(_DESIGN3, [1, -1, 1], [3, 3, 3]), _BINOMIAL_RANGE),
        (lambda: fit_binomial_logistic(_DESIGN3, [1, 1], [3, 3]), "successes and trials must match the design rows"),
        (lambda: fit_binomial_logistic(_DESIGN3, [9, 9], [3, 3]), "successes and trials must match the design rows"),
        (lambda: fit_binomial_logistic(_DESIGN3, [9, 1, 1], [3, 3, 3], terms=("a",)), _BINOMIAL_RANGE),
        (lambda: fit_binomial_logistic(_DESIGN3, [1, 1, 1], [3, 3, 3], terms=("a",)),
         "terms must name every design column"),
        (lambda: fit_negative_binomial(_DESIGN3, [1, 2]), "counts must match the design rows"),
        (lambda: fit_negative_binomial(_DESIGN3, [-1, -1]), "counts must match the design rows"),
        (lambda: fit_negative_binomial(_DESIGN3, [1, -2, 3]), "counts must be non-negative"),
        (lambda: fit_negative_binomial(_DESIGN3, [1, 2.5, 3], terms=("a",)), "counts must be whole numbers"),
        (lambda: fit_negative_binomial(_DESIGN3, [0, 0, 0], terms=("a",)),
         "all counts are zero; the mean model is degenerate"),
        (lambda: fit_negative_binomial(_DESIGN3, [0, 1, 0], terms=("a",)), "terms must name every design column"),
        (lambda: fit_negative_binomial(np.column_stack([np.ones(3), np.ones(3)]), [-1, 0, 0]),
         "design matrix is rank deficient"),
    ],
)
def test_fitters_check_their_inputs_in_order(fit, message):
    with pytest.raises(ValueError) as excinfo:
        fit()
    assert str(excinfo.value) == message


def test_negative_binomial_accepts_whole_floats():
    design = np.column_stack([np.ones(4), [0.0, 1.0, 2.0, 3.0]])
    as_ints = fit_negative_binomial(design, [1, 3, 2, 6])
    as_floats = fit_negative_binomial(design, [1.0, 3.0, 2.0, 6.0])
    assert as_ints.coefficients.tolist() == as_floats.coefficients.tolist()
