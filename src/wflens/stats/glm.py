"""Generalized linear models: binomial logistic and negative binomial.

Both fitters run iteratively reweighted least squares with step halving so
the log-likelihood trace is nondecreasing.  The negative binomial uses the
NB2 parameterization (variance mu + mu^2/theta) with a log link, alternating
the IRLS beta step with a bracketed root solve of the dispersion score.
Counts are whole numbers, so the NB gamma terms are exact finite sums over
the tail counts T[k] = #{i : y_i > k}; no special function is needed.
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
_RTOL_MIN = 4 * np.finfo(float).eps


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
    100 iterations; otherwise ``converged`` is false and the diagnostic
    names the likely cause (such as complete separation).
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

    diagnostic = None
    if not converged:
        if np.max(np.abs(beta)) > 25.0:
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
    log(theta+k) for k < y, so summed over the observations each NB gamma
    and digamma term is a dot product with T: exact, and free of the
    cancellation between two large lgamma values near the theta cap.
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


# _brentq is a port of scipy/optimize/Zeros/brentq.c, used under this licence:
#
# Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
# All rights reserved.
#
# Redistribution and use in source and binary forms, with or without
# modification, are permitted provided that the following conditions
# are met:
#
# 1. Redistributions of source code must retain the above copyright
#    notice, this list of conditions and the following disclaimer.
#
# 2. Redistributions in binary form must reproduce the above
#    copyright notice, this list of conditions and the following
#    disclaimer in the documentation and/or other materials provided
#    with the distribution.
#
# 3. Neither the name of the copyright holder nor the names of its
#    contributors may be used to endorse or promote products derived
#    from this software without specific prior written permission.
#
# THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
# "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
# LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
# A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
# OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
# SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
# LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
# DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
# THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
# (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
# OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
def _brentq(
    f, xa: float, xb: float, args=(), xtol: float = 2e-12, rtol: float = _RTOL_MIN, maxiter: int = 100
) -> float:
    """Root of f in [xa, xb] by Brent's method.

    Takes the same steps, tolerances and errors as ``scipy.optimize.brentq``:
    a ValueError when f(xa) and f(xb) share a sign or f returns NaN, a
    RuntimeError after ``maxiter`` iterations without convergence.
    """
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL_MIN:g})")

    def call(x: float) -> float:
        value = f(x, *args)
        if math.isnan(value):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot continue.")
        return value

    xpre, xcur = float(xa), float(xb)
    xblk = fblk = spre = scur = 0.0
    fpre = call(xpre)
    fcur = call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def _update_theta(counts: _Counts, mu: np.ndarray) -> tuple[float, str | None]:
    lo, hi = _THETA_LO, _THETA_HI
    s_lo = _theta_score(lo, counts, mu)
    s_hi = _theta_score(hi, counts, mu)
    if s_hi > 0:  # likelihood still rising at the cap: essentially Poisson
        return hi, "dispersion at upper bound (data near-Poisson)"
    if s_lo < 0:
        return lo, "dispersion at lower bound (extreme overdispersion)"
    return _brentq(_theta_score, lo, hi, args=(counts, mu), xtol=1e-10, rtol=1e-12), None


def fit_negative_binomial(design, counts, *, terms=None) -> GlmFit:
    """Negative binomial (NB2) regression with a log link.

    Alternates an IRLS step for the coefficients with a maximum-likelihood
    update of the dispersion found by bracketed root solving of its score.
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
        theta_new, note = _update_theta(counts, mu)
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


def effect_table(fit: GlmFit) -> EffectTable:
    """Per-term ratio scale: exp(beta), 95% Wald CI, two-sided Wald p.

    For the logistic family the ratios are odds ratios; for the negative
    binomial they are incidence rate ratios.
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
                ratio=math.exp(coef),
                ci_low=math.exp(coef - half),
                ci_high=math.exp(coef + half),
                p_value=p,
            )
        )
    return tuple(rows)
