"""Generalized linear models: binomial logistic and negative binomial.

Both fitters run iteratively reweighted least squares with step halving so
the log-likelihood trace is nondecreasing.  The negative binomial uses the
NB2 parameterization (variance mu + mu^2/theta) with a log link, alternating
the IRLS beta step with a safeguarded Newton solve of the dispersion score.
Counts are whole numbers, so the NB gamma terms and the score and its slope
are exact finite sums over the tail counts T[k] = #{i : y_i > k}; no special
function is needed.
"""

from __future__ import annotations

import math

import numpy as np

from .types import EffectRow, EffectTable, GlmFit
from .ranktests import _normal_sf

MAX_ITER = 100
TOL = 1e-8
_ETA_CLIP = 30.0
_THETA_LO = 1e-4
_THETA_HI = 1e7


def _as_design(design) -> np.ndarray:
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("design matrix must be 2-d and non-empty")
    if np.linalg.matrix_rank(x) < x.shape[1]:
        raise ValueError("design matrix is rank deficient")
    return x


def _term_names(terms, k: int) -> tuple[str, ...]:
    if terms is None:
        return tuple(f"x{i}" for i in range(k))
    names = tuple(terms)
    if len(names) != k:
        raise ValueError("terms must name every design column")
    return names


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(eta, -_ETA_CLIP, _ETA_CLIP)))


def _log_binomial_coefficients(successes: np.ndarray, trials: np.ndarray) -> float:
    """Sum of log C(t, s) over the observations."""
    return math.fsum(
        math.lgamma(t + 1) - math.lgamma(s + 1) - math.lgamma(t - s + 1)
        for s, t in zip(successes.tolist(), trials.tolist())
    )


def _logistic_ll(x, s, t, beta, log_coef: float) -> float:
    mu = np.clip(_sigmoid(x @ beta), 1e-12, 1.0 - 1e-12)
    return log_coef + float(np.sum(s * np.log(mu) + (t - s) * np.log(1.0 - mu)))


def logistic_log_likelihood(design, successes, trials, beta) -> float:
    """Binomial log-likelihood (including the binomial coefficient)."""
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    return _logistic_ll(
        np.asarray(design, dtype=float),
        s,
        t,
        np.asarray(beta, dtype=float),
        _log_binomial_coefficients(s, t),
    )


def logistic_score(design, successes, trials, beta) -> np.ndarray:
    """Gradient of the binomial log-likelihood in beta: X'(s - t*mu)."""
    x = np.asarray(design, dtype=float)
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    b = np.asarray(beta, dtype=float)
    mu = _sigmoid(x @ b)
    return x.T @ (s - t * mu)


def fit_binomial_logistic(design, successes, trials, *, terms=None) -> GlmFit:
    """Logistic regression on aggregated binomial observations.

    Converges when the largest coefficient update falls below 1e-8 within
    100 iterations and no fitted linear predictor reaches the clip at
    +-30; otherwise ``converged`` is false and the diagnostic names the
    likely cause (such as complete separation).
    """
    x = _as_design(design)
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    if s.shape != (x.shape[0],) or t.shape != (x.shape[0],):
        raise ValueError("successes and trials must match the design rows")
    if np.any(t <= 0) or np.any(s < 0) or np.any(s > t):
        raise ValueError("need 0 <= successes <= trials and trials > 0")
    names = _term_names(terms, x.shape[1])

    log_coef = _log_binomial_coefficients(s, t)
    beta = np.zeros(x.shape[1])
    ll = _logistic_ll(x, s, t, beta, log_coef)
    trace = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = _sigmoid(eta)
        w = np.maximum(t * mu * (1.0 - mu), 1e-12)
        z = eta + (s - t * mu) / w
        xtw = x.T * w
        try:
            beta_new = np.linalg.solve(xtw @ x, xtw @ z)
        except np.linalg.LinAlgError:
            break
        step = beta_new - beta
        # step halving keeps the likelihood trace nondecreasing
        ll_new = _logistic_ll(x, s, t, beta + step, log_coef)
        while ll_new < ll - 1e-12 and np.max(np.abs(step)) > 1e-14:
            step *= 0.5
            ll_new = _logistic_ll(x, s, t, beta + step, log_coef)
        beta = beta + step
        ll = max(ll, ll_new)
        trace.append(ll_new)
        if np.max(np.abs(step)) < TOL:
            converged = True
            break

    # a predictor held at the clip stops the steps short of a finite optimum
    clipped = np.max(np.abs(x @ beta)) >= _ETA_CLIP
    converged = converged and not clipped
    diagnostic = None
    if not converged:
        if clipped or np.max(np.abs(beta)) > 25.0:
            diagnostic = "no convergence: coefficients diverging, possible complete separation"
        else:
            diagnostic = f"no convergence after {iterations} iterations"

    eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
    mu = _sigmoid(eta)
    w = np.maximum(t * mu * (1.0 - mu), 1e-12)
    info = (x.T * w) @ x
    se = _standard_errors(info)
    return GlmFit(
        family="binomial-logit",
        terms=names,
        coefficients=beta,
        standard_errors=se,
        dispersion=None,
        log_likelihood=_logistic_ll(x, s, t, beta, log_coef),
        converged=converged,
        iterations=iterations,
        ll_trace=trace,
        diagnostic=diagnostic,
    )


def _standard_errors(info: np.ndarray) -> np.ndarray:
    try:
        cov = np.linalg.inv(info)
        return np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        return np.full(info.shape[0], np.nan)


class _Counts:
    """Whole-number counts with their tail counts T[k] = #{i : y_i > k}.

    Over whole numbers lgamma(y+theta) - lgamma(theta) is the finite sum of
    log(theta+k) for k < y, so summed over the observations each NB gamma,
    digamma and trigamma term is a dot product with T: exact, and free of
    the cancellation between two large lgamma values near the theta cap.
    """

    def __init__(self, counts):
        y = np.asarray(counts, dtype=float)
        if np.any(y < 0):
            raise ValueError("counts must be non-negative")
        if not np.all(np.isfinite(y)) or np.any(y != np.floor(y)):
            raise ValueError("counts must be whole numbers")
        at_least = np.cumsum(np.bincount(y.astype(np.int64).ravel())[::-1])[::-1]
        self.y = y
        self.tails = at_least[1:].astype(float)
        self.k = np.arange(self.tails.size, dtype=float)
        self.log1p_k = np.log1p(self.k)

    def log_gamma_terms(self, theta: float) -> float:
        """sum lgamma(y+theta) - n*lgamma(theta) - sum lgamma(y+1)."""
        return float(self.tails @ (np.log(theta + self.k) - self.log1p_k))

    def digamma_terms(self, theta: float) -> float:
        """sum digamma(y+theta) - n*digamma(theta)."""
        return float(self.tails @ (1.0 / (theta + self.k)))

    def trigamma_terms(self, theta: float) -> float:
        """n*trigamma(theta) - sum trigamma(y+theta)."""
        return float(self.tails @ (1.0 / (theta + self.k) ** 2))


def _negbin_ll(x: np.ndarray, counts: _Counts, beta: np.ndarray, theta: float) -> float:
    y = counts.y
    mu = np.exp(np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP))
    return counts.log_gamma_terms(theta) + float(
        np.sum(theta * np.log(theta / (theta + mu)) + y * np.log(mu / (theta + mu)))
    )


def _negbin_gain(x, y, eta, mu, step, theta: float) -> float:
    """Log-likelihood change from eta = X beta to X (beta + step) at a fixed theta.

    The gamma terms cancel, and differencing each observation keeps the
    change accurate even when it is far below the rounding of the total,
    as it is near convergence.
    """
    d = np.clip(eta + x @ step, -_ETA_CLIP, _ETA_CLIP) - eta
    return float(np.sum(y * d - (y + theta) * np.log1p(mu * np.expm1(d) / (theta + mu))))


def negbin_log_likelihood(design, counts, beta, dispersion) -> float:
    """NB2 log-likelihood with mean exp(X beta) and dispersion theta.

    Counts must be whole numbers.
    """
    return _negbin_ll(
        np.asarray(design, dtype=float),
        _Counts(counts),
        np.asarray(beta, dtype=float),
        float(dispersion),
    )


def _theta_score(theta: float, counts: _Counts, mu: np.ndarray) -> float:
    y = counts.y
    return counts.digamma_terms(theta) + float(
        np.sum(np.log(theta) + 1.0 - np.log(theta + mu) - (y + theta) / (theta + mu))
    )


def _theta_slope(theta: float, counts: _Counts, mu: np.ndarray) -> float:
    """d/dtheta of :func:`_theta_score`."""
    rest = float(np.sum(mu / (theta * (theta + mu)) - (mu - counts.y) / (theta + mu) ** 2))
    return rest - counts.trigamma_terms(theta)


def _update_theta(counts: _Counts, mu: np.ndarray, theta: float) -> tuple[float, str | None]:
    """The dispersion that zeroes its score: Newton steps in u = log(theta) from ``theta``.

    Each score evaluation narrows a bracket of the root by its sign; a step
    that would leave it, or a slope that is not negative, bisects it.  The
    solve stops at a step or bracket below 1e-12 in u, or after MAX_ITER steps.
    """
    if _theta_score(_THETA_HI, counts, mu) > 0:  # likelihood still rising at the cap
        return _THETA_HI, "dispersion at upper bound (data near-Poisson)"
    if _theta_score(_THETA_LO, counts, mu) < 0:
        return _THETA_LO, "dispersion at lower bound (extreme overdispersion)"
    lo, hi, u = math.log(_THETA_LO), math.log(_THETA_HI), math.log(theta)
    for _ in range(MAX_ITER):
        theta = math.exp(u)
        score = _theta_score(theta, counts, mu)
        if score > 0:
            lo = u
        else:
            hi = u
        slope = theta * _theta_slope(theta, counts, mu)  # dscore/du
        step = -score / slope if slope < 0 else math.inf
        if not lo <= u + step <= hi:
            step = (lo + hi) / 2 - u
        u += step
        if abs(step) < 1e-12 or hi - lo < 1e-12:
            break
    return math.exp(u), None


def fit_negative_binomial(design, counts, *, terms=None) -> GlmFit:
    """Negative binomial (NB2) regression with a log link.

    Alternates an IRLS step for the coefficients with a safeguarded Newton
    solve of the dispersion score, started from the previous dispersion.
    Counts must be whole numbers; the cost of each likelihood or score
    evaluation grows with the largest count.
    """
    x = _as_design(design)
    y = np.asarray(counts, dtype=float)
    if y.shape != (x.shape[0],):
        raise ValueError("counts must match the design rows")
    counts = _Counts(y)
    if not np.any(y > 0):
        raise ValueError("all counts are zero; the mean model is degenerate")
    names = _term_names(terms, x.shape[1])

    mean = y.mean()
    variance = y.var()
    theta = mean**2 / (variance - mean) if variance > mean else 100.0
    theta = float(np.clip(theta, _THETA_LO, _THETA_HI))
    beta = np.zeros(x.shape[1])
    beta[0] = math.log(max(mean, 1e-8)) if np.allclose(x[:, 0], 1.0) else 0.0

    trace = [_negbin_ll(x, counts, beta, theta)]
    converged = False
    iterations = 0
    note: str | None = None
    for iterations in range(1, MAX_ITER + 1):
        eta = np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP)
        mu = np.exp(eta)
        w = mu * theta / (theta + mu)
        z = eta + (y - mu) / mu
        xtw = x.T * w
        try:
            beta_new = np.linalg.solve(xtw @ x, xtw @ z)
        except np.linalg.LinAlgError:
            break
        step = beta_new - beta
        # step halving keeps the likelihood trace nondecreasing
        while _negbin_gain(x, y, eta, mu, step, theta) < -1e-12 and np.max(np.abs(step)) > 1e-14:
            step *= 0.5
        beta = beta + step

        mu = np.exp(np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP))
        theta_new, note = _update_theta(counts, mu, theta)
        theta_change = abs(math.log(theta_new) - math.log(theta))
        theta = theta_new
        trace.append(_negbin_ll(x, counts, beta, theta))
        if np.max(np.abs(step)) < TOL and theta_change < 1e-8:
            converged = True
            break

    diagnostic = note
    if not converged and diagnostic is None:
        diagnostic = f"no convergence after {iterations} iterations"

    mu = np.exp(np.clip(x @ beta, -_ETA_CLIP, _ETA_CLIP))
    w = mu * theta / (theta + mu)
    info = (x.T * w) @ x
    se = _standard_errors(info)
    return GlmFit(
        family="negative-binomial-log",
        terms=names,
        coefficients=beta,
        standard_errors=se,
        dispersion=theta,
        log_likelihood=_negbin_ll(x, counts, beta, theta),
        converged=converged,
        iterations=iterations,
        ll_trace=trace,
        diagnostic=diagnostic,
    )


def _exp(x: float) -> float:
    """math.exp, with inf past the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def effect_table(fit: GlmFit) -> EffectTable:
    """Per-term ratio scale: exp(beta), 95% Wald CI, two-sided Wald p.

    For the logistic family the ratios are odds ratios; for the negative
    binomial they are incidence rate ratios.  A ratio or bound past the
    float range is inf.
    """
    if not fit.converged:
        raise ValueError("effect_table requires a converged fit")
    rows = []
    for name, coef, se in zip(fit.terms, fit.coefficients, fit.standard_errors):
        half = 1.96 * se
        p = min(1.0, 2.0 * _normal_sf(abs(coef / se))) if se > 0 else float("nan")
        rows.append(
            EffectRow(
                term=name,
                ratio=_exp(coef),
                ci_low=_exp(coef - half),
                ci_high=_exp(coef + half),
                p_value=p,
            )
        )
    return tuple(rows)
