"""Generalized linear models: binomial logistic and negative binomial.

Both fitters run one IRLS (iteratively reweighted least squares) driver,
:func:`_irls`, on the linear predictor eta = X beta clipped at +-30.  It
halves each step while the log-likelihood falls, judged per observation:
from eta to eta + d each term changes by a*d - b*log1p(c*expm1(d)), with
a=s, b=t, c=sigmoid(eta) for the logistic and a=y, b=y+theta,
c=mu/(theta+mu) for the negative binomial.  A fit left with a predictor at
the clip is not converged.  Both take their standard errors from the Fisher
information X'WX.  Each outcome is checked and prepared once
(:class:`_Binomial`, :class:`_Counts`), so a caller fitting one outcome
against many designs, as ``reliability`` does, shares it between fits.

The negative binomial uses the NB2 parameterization (variance mu + mu^2/theta)
with a log link; after each coefficient step the driver runs a safeguarded
Newton solve of the dispersion score.  Counts are whole numbers, so the NB
gamma terms and the score and its slope are exact finite sums over the tail
counts T[k] = #{i : y_i > k}; no special function is needed.
"""

from __future__ import annotations

import math
from functools import cached_property

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


def _clip(eta: np.ndarray) -> np.ndarray:
    """``eta`` clipped at +-_ETA_CLIP: np.clip's values, without its dispatch cost."""
    return np.minimum(np.maximum(eta, -_ETA_CLIP), _ETA_CLIP)


def _max_abs(v: np.ndarray) -> float:
    return np.maximum.reduce(np.abs(v))


def _irls(x, beta, family, after_step=None) -> dict:
    """IRLS from ``beta``; returns the :class:`GlmFit` fields both families share.

    ``family(eta)`` gives the log-likelihood, weights, working response and
    :func:`_gain` terms at the clipped predictor, and ``after_step(eta)``
    updates any other parameter after each step and says whether it has
    settled.  The fit converges at a step below TOL with that parameter
    settled, within MAX_ITER iterations, and no predictor at the clip.
    """
    eta = _clip(x @ beta)
    ll, w, z, gain_terms = family(eta)
    trace = [ll]
    converged = False
    iterations = 0
    for iterations in range(1, MAX_ITER + 1):
        xtw = x.T * w
        try:
            step = np.linalg.solve(xtw @ x, xtw @ z) - beta
        except np.linalg.LinAlgError:
            break
        # step halving keeps the likelihood trace nondecreasing
        while _gain(x, eta, step, *gain_terms) < -1e-12 and _max_abs(step) > 1e-14:
            step *= 0.5
        beta = beta + step
        eta = _clip(x @ beta)
        settled = after_step is None or after_step(eta)
        ll, w, z, gain_terms = family(eta)
        trace.append(ll)
        if _max_abs(step) < TOL and settled:
            converged = True
            break

    # a predictor held at the clip stops the steps short of a finite optimum
    clipped = _max_abs(eta) >= _ETA_CLIP
    converged = converged and not clipped
    diagnostic = None
    if not converged:
        if clipped or _max_abs(beta) > 25.0:
            diagnostic = "no convergence: coefficients diverging, possible complete separation"
        else:
            diagnostic = f"no convergence after {iterations} iterations"
    return dict(
        coefficients=beta,
        standard_errors=_standard_errors(x, w),
        log_likelihood=trace[-1],
        converged=converged,
        iterations=iterations,
        ll_trace=trace,
        diagnostic=diagnostic,
    )


def _gain(x, eta, step, a, b, c) -> float:
    """Log-likelihood change from the clipped predictor ``eta`` to that of beta + step.

    Summed per observation, it stays accurate far below the rounding of the
    total log-likelihood, as it is near convergence.
    """
    d = _clip(eta + x @ step) - eta
    return float(np.add.reduce(a * d - b * np.log1p(c * np.expm1(d))))


def _standard_errors(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of the inverse Fisher information X'WX."""
    info = (x.T * w) @ x
    try:
        cov = np.linalg.inv(info)
        return np.sqrt(np.maximum(np.diag(cov), 0.0))
    except np.linalg.LinAlgError:
        return np.full(x.shape[1], np.nan)


def _sigmoid(eta: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-eta)) of a predictor that is already clipped."""
    return 1.0 / (1.0 + np.exp(-eta))


def _log_binomial_coefficients(successes: np.ndarray, trials: np.ndarray) -> float:
    """Sum of log C(t, s) over the observations, with lgamma taken once per distinct value."""
    s, t = successes.tolist(), trials.tolist()
    r = [b - a for a, b in zip(s, t)]
    # keyed by these very float objects, so that a NaN finds its own entry
    log_factorial = {v: math.lgamma(v + 1) for v in {*s, *t, *r}}
    return math.fsum(log_factorial[b] - log_factorial[a] - log_factorial[c] for a, b, c in zip(s, t, r))


def _logistic_ll(eta, s, t, log_coef: float) -> float:
    # log-sigmoid form: log(1 - mu) taken from 1 - mu keeps only 1/exp(eta) of mu's digits
    return log_coef + float(np.add.reduce(s * eta - t * np.logaddexp(0.0, eta)))


def logistic_log_likelihood(design, successes, trials, beta) -> float:
    """Binomial log-likelihood (including the binomial coefficient)."""
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    eta = np.asarray(design, dtype=float) @ np.asarray(beta, dtype=float)
    return _logistic_ll(_clip(eta), s, t, _log_binomial_coefficients(s, t))


def logistic_score(design, successes, trials, beta) -> np.ndarray:
    """Gradient of the binomial log-likelihood in beta: X'(s - t*mu)."""
    x = np.asarray(design, dtype=float)
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    b = np.asarray(beta, dtype=float)
    mu = _sigmoid(_clip(x @ b))
    return x.T @ (s - t * mu)


def _logistic_family(eta, s, t, log_coef: float):
    """Log-likelihood, IRLS weights, working response and :func:`_gain` terms at the clipped eta."""
    mu = _sigmoid(eta)
    t_mu = t * mu
    w = np.maximum(t_mu * (1.0 - mu), 1e-12)
    return _logistic_ll(eta, s, t, log_coef), w, eta + (s - t_mu) / w, (s, t, mu)


class _Binomial:
    """Binomial outcome: ``s`` successes of ``t`` trials, checked once, and its log-binomial constant."""

    def __init__(self, successes, trials):
        s = np.asarray(successes, dtype=float)
        t = np.asarray(trials, dtype=float)
        if np.any(t <= 0) or np.any(s < 0) or np.any(s > t):
            raise ValueError("need 0 <= successes <= trials and trials > 0")
        self.s, self.t = s, t

    @cached_property
    def log_coef(self) -> float:
        """Sum of log C(t, s); taken on first use, after the fitter has checked its terms."""
        return _log_binomial_coefficients(self.s, self.t)


def _fit_logistic(x: np.ndarray, outcome: _Binomial, terms) -> GlmFit:
    """:func:`fit_binomial_logistic` on a checked design and a prepared outcome of its rows."""
    names = _term_names(terms, x.shape[1])
    s, t, log_coef = outcome.s, outcome.t, outcome.log_coef
    fit = _irls(x, np.zeros(x.shape[1]), lambda eta: _logistic_family(eta, s, t, log_coef))
    return GlmFit(family="binomial-logit", terms=names, dispersion=None, **fit)


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
    return _fit_logistic(x, _Binomial(s, t), terms)


class _Counts:
    """Whole-number counts with their tail counts T[k] = #{i : y_i > k}.

    Over whole numbers lgamma(y+theta) - lgamma(theta) is the finite sum of
    log(theta+k) for k < y, so summed over the observations each NB gamma,
    digamma and trigamma term is a dot product with T: exact, and free of
    the cancellation between two large lgamma values near the theta cap.
    The digamma terms at the two dispersion bounds, which every dispersion
    solve evaluates, are kept.
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
        self.any_positive = self.tails.size > 0
        self.digamma_at_bounds: dict[float, float] = {}
        for bound in (_THETA_LO, _THETA_HI):
            self.digamma_at_bounds[bound] = self.digamma_terms(bound)

    @cached_property
    def start(self) -> tuple[float, float]:
        """Mean count and a fit's starting dispersion.

        The dispersion is the moment estimate, or 100 without overdispersion.
        """
        mean = self.y.mean()
        variance = self.y.var()
        theta = mean**2 / (variance - mean) if variance > mean else 100.0
        return mean, float(np.clip(theta, _THETA_LO, _THETA_HI))

    def log_gamma_terms(self, theta: float) -> float:
        """sum lgamma(y+theta) - n*lgamma(theta) - sum lgamma(y+1)."""
        return float(self.tails @ (np.log(theta + self.k) - self.log1p_k))

    def digamma_terms(self, theta: float) -> float:
        """sum digamma(y+theta) - n*digamma(theta)."""
        at_bound = self.digamma_at_bounds.get(theta)
        return float(self.tails @ (1.0 / (theta + self.k))) if at_bound is None else at_bound

    def trigamma_terms(self, theta: float) -> float:
        """n*trigamma(theta) - sum trigamma(y+theta)."""
        return float(self.tails @ (1.0 / (theta + self.k) ** 2))


def _negbin_ll(mu: np.ndarray, counts: _Counts, theta: float, theta_mu=None) -> float:
    """NB2 log-likelihood at means ``mu``; ``theta_mu`` is theta + mu when the caller has it."""
    if theta_mu is None:
        theta_mu = theta + mu
    return counts.log_gamma_terms(theta) + float(
        np.add.reduce(theta * np.log(theta / theta_mu) + counts.y * np.log(mu / theta_mu))
    )


def _negbin_family(eta, mu, counts: _Counts, theta: float):
    """Log-likelihood, IRLS weights, working response and :func:`_gain` terms at eta, whose exp is ``mu``."""
    y = counts.y
    theta_mu = theta + mu
    w = mu * theta / theta_mu
    return _negbin_ll(mu, counts, theta, theta_mu), w, eta + (y - mu) / mu, (y, y + theta, mu / theta_mu)


def negbin_log_likelihood(design, counts, beta, dispersion) -> float:
    """NB2 log-likelihood with mean exp(X beta) and dispersion theta.

    Counts must be whole numbers.
    """
    eta = np.asarray(design, dtype=float) @ np.asarray(beta, dtype=float)
    mu = np.exp(_clip(eta))
    return _negbin_ll(mu, _Counts(counts), float(dispersion))


def _theta_score(theta: float, counts: _Counts, mu: np.ndarray) -> float:
    theta_mu = theta + mu
    return counts.digamma_terms(theta) + float(
        np.add.reduce(np.log(theta) + 1.0 - np.log(theta_mu) - (counts.y + theta) / theta_mu)
    )


def _theta_slope(theta: float, counts: _Counts, mu: np.ndarray) -> float:
    """d/dtheta of :func:`_theta_score`."""
    theta_mu = theta + mu
    rest = float(np.add.reduce(mu / (theta * theta_mu) - (mu - counts.y) / theta_mu**2))
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


def _fit_negbin(x: np.ndarray, counts: _Counts, terms) -> GlmFit:
    """:func:`fit_negative_binomial` on a checked design and prepared counts of its rows."""
    if not counts.any_positive:
        raise ValueError("all counts are zero; the mean model is degenerate")
    names = _term_names(terms, x.shape[1])
    mean, theta = counts.start
    beta = np.zeros(x.shape[1])
    beta[0] = math.log(max(mean, 1e-8)) if np.allclose(x[:, 0], 1.0) else 0.0

    note: str | None = None
    last: tuple = (None, None)  # an eta and its exp: update_theta and the family share each step's eta

    def exp_of(eta) -> np.ndarray:
        nonlocal last
        if last[0] is not eta:
            last = (eta, np.exp(eta))
        return last[1]

    def update_theta(eta) -> bool:
        nonlocal theta, note
        previous = theta
        theta, note = _update_theta(counts, exp_of(eta), theta)
        return abs(math.log(theta) - math.log(previous)) < 1e-8

    fit = _irls(x, beta, lambda eta: _negbin_family(eta, exp_of(eta), counts, theta), update_theta)
    fit["diagnostic"] = "; ".join(filter(None, (fit["diagnostic"], note))) or None
    return GlmFit(family="negative-binomial-log", terms=names, dispersion=theta, **fit)


def fit_negative_binomial(design, counts, *, terms=None) -> GlmFit:
    """Negative binomial (NB2) regression with a log link.

    Alternates an IRLS step for the coefficients with a safeguarded Newton
    solve of the dispersion score, started from the previous dispersion.
    Converges as :func:`fit_binomial_logistic` does, with the dispersion
    also settled to 1e-8 in log scale; a diagnostic names a dispersion held
    at its bound.  Counts must be whole numbers; the cost of each likelihood
    or score evaluation grows with the largest count.
    """
    x = _as_design(design)
    y = np.asarray(counts, dtype=float)
    if y.shape != (x.shape[0],):
        raise ValueError("counts must match the design rows")
    return _fit_negbin(x, _Counts(y), terms)


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
