"""Generalized linear models: binomial logistic and negative binomial.

Both fitters run one IRLS (iteratively reweighted least squares) driver,
:func:`_irls`, on a stack of designs that share one outcome, with the
linear predictor eta = X beta clipped at +-30.  Each member of the stack
takes the steps a fit of its own design alone would take, bit for bit:
the stack only shares numpy's calls, and a member leaves it when its fit
ends.  The driver halves each step while the log-likelihood falls, judged
per observation:
from eta to eta + d each term changes by a*d - b*log1p(c*expm1(d)), with
a=s, b=t, c=sigmoid(eta) for the logistic and a=y, b=y+theta,
c=mu/(theta+mu) for the negative binomial.  A fit left with a predictor at
the clip is not converged.  Both take their standard errors from the Fisher
information X'WX.  Each outcome is checked and prepared once
(:class:`_Binomial`, :class:`_Counts`), so a caller fitting one outcome
against many designs, as ``reliability`` does, fits them in one stack.

The negative binomial uses the NB2 parameterization (variance mu + mu^2/theta)
with a log link; after each coefficient step the driver runs a safeguarded
Newton solve of each member's dispersion score.  Counts are whole numbers,
so the NB gamma terms and the score and its slope are exact finite sums
over the tail counts T[k] = #{i : y_i > k}; no special function is needed.
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
_RANK_DEFICIENT = "design matrix is rank deficient"
_ALL_ZERO = "all counts are zero; the mean model is degenerate"


def _as_design(design) -> np.ndarray:
    x = np.asarray(design, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2 or x.shape[0] == 0:
        raise ValueError("design matrix must be 2-d and non-empty")
    if not _full_rank(x):
        raise ValueError(_RANK_DEFICIENT)
    return x


def _full_rank(x: np.ndarray) -> np.ndarray:
    """Whether each design of a stack (..., n, k) has full column rank."""
    return np.linalg.matrix_rank(x) >= x.shape[-1]


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


def _max_abs(v: np.ndarray) -> np.ndarray:
    """max |v| along the last axis: one value per member of a stack."""
    return np.maximum.reduce(np.abs(v), axis=-1)


def _matvec(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """x @ v for each member: designs (..., n, k) times vectors (..., k).

    Each member's product is the BLAS call ``x @ v`` makes for one design.
    """
    return (x @ v[..., None])[..., 0]


def _xtw(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """X' diag(w) for each member, laid out as ``x.T * w`` is for one design."""
    return np.swapaxes(x, -1, -2) * w[..., None, :]


def _normal_equations(x: np.ndarray, w: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X'WX and X'Wz of each member, the weighted least-squares step's system."""
    xtw = _xtw(x, w)
    return xtw @ x, xtw @ z[..., None]


def _each(op, *stacks) -> tuple[np.ndarray, np.ndarray]:
    """``op`` (a LAPACK call) on stacks of matrices, and which members are singular.

    A singular member makes the stacked call raise, so then each member is
    taken alone and a singular one's result is NaN.
    """
    try:
        return op(*stacks), np.zeros(len(stacks[0]), dtype=bool)
    except np.linalg.LinAlgError:
        pass
    results, singular = [], np.zeros(len(stacks[0]), dtype=bool)
    for i, members in enumerate(zip(*stacks)):
        try:
            results.append(op(*(m[None] for m in members))[0])
        except np.linalg.LinAlgError:
            results.append(np.full_like(members[-1], np.nan))
            singular[i] = True
    return np.stack(results), singular


def _irls(x, beta, family, after_step=None) -> list[dict]:
    """IRLS on designs ``x`` (B, n, k) from ``beta`` (B, k); each member's :class:`GlmFit` fields.

    ``family(eta, live)`` gives the log-likelihoods, weights, working
    responses and :func:`_gain` terms at the clipped predictors ``eta`` of
    the members ``live`` (their indices in the stack), and
    ``after_step(eta, live)`` updates any other parameter of theirs after
    each step and says which have settled.  A member converges at a step
    below TOL with that parameter settled, within MAX_ITER iterations, and
    no predictor at the clip.
    """
    fits: list[dict] = [{} for _ in range(len(x))]
    live = np.arange(len(x))
    eta = _clip(_matvec(x, beta))
    ll, w, z, gain_terms = family(eta, live)
    traces = [[v] for v in ll.tolist()]

    def finish(ended, iterations: int, converged: bool) -> None:
        """Record the fits of the live members ``ended`` (a mask) and drop them from the stack."""
        nonlocal live, x, beta, eta, w, z, gain_terms
        # a predictor held at the clip stops the steps short of a finite optimum
        clipped = (_max_abs(eta[ended]) >= _ETA_CLIP).tolist()
        diverging = (_max_abs(beta[ended]) > 25.0).tolist()
        members = zip(live[ended].tolist(), beta[ended], _standard_errors(x[ended], w[ended]), clipped, diverging)
        for i, coefficients, se, at_clip, diverges in members:
            if converged and not at_clip:
                diagnostic = None
            elif at_clip or diverges:
                diagnostic = "no convergence: coefficients diverging, possible complete separation"
            else:
                diagnostic = f"no convergence after {iterations} iterations"
            fits[i] = dict(
                coefficients=coefficients,
                standard_errors=se,
                log_likelihood=traces[i][-1],
                converged=converged and not at_clip,
                iterations=iterations,
                ll_trace=traces[i],
                diagnostic=diagnostic,
            )
        kept = ~ended
        live, x, beta, eta, w, z = live[kept], x[kept], beta[kept], eta[kept], w[kept], z[kept]
        gain_terms = tuple(term[kept] if term.ndim > 1 else term for term in gain_terms)

    for iterations in range(1, MAX_ITER + 1):
        solved, singular = _each(np.linalg.solve, *_normal_equations(x, w, z))
        if singular.any():
            solved = solved[~singular]
            finish(singular, iterations, False)
            if not live.size:
                break
        step = solved[..., 0] - beta
        # step halving keeps each likelihood trace nondecreasing
        while True:
            falling = (_gain(x, eta, step, *gain_terms) < -1e-12) & (_max_abs(step) > 1e-14)
            if not falling.any():
                break
            step[falling] *= 0.5
        beta = beta + step
        eta = _clip(_matvec(x, beta))
        settled = True if after_step is None else after_step(eta, live)
        ll, w, z, gain_terms = family(eta, live)
        for i, value in zip(live.tolist(), ll.tolist()):
            traces[i].append(value)
        ended = (_max_abs(step) < TOL) & settled
        if ended.any():
            finish(ended, iterations, True)
            if not live.size:
                break
    else:
        finish(np.ones(live.size, dtype=bool), MAX_ITER, False)
    return fits


def _gain(x, eta, step, a, b, c) -> np.ndarray:
    """Log-likelihood change from the clipped predictor ``eta`` to that of beta + step.

    Summed per observation, it stays accurate far below the rounding of the
    total log-likelihood, as it is near convergence.
    """
    d = _clip(eta + _matvec(x, step)) - eta
    # Where c * expm1(d) rounds to -1, log1p gives -inf and the gain +inf:
    # its sign is what the halving test reads.
    with np.errstate(divide="ignore"):
        loss = b * np.log1p(c * np.expm1(d))
    return np.add.reduce(a * d - loss, axis=-1)


def _standard_errors(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Square roots of the diagonal of the inverse Fisher information X'WX; NaN where it is singular."""
    cov, _ = _each(np.linalg.inv, _xtw(x, w) @ x)
    return np.sqrt(np.maximum(np.diagonal(cov, axis1=-2, axis2=-1), 0.0))


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


def _logistic_ll(eta, s, t, log_coef: float):
    """Binomial log-likelihood at the clipped predictor ``eta``, per member of a stack."""
    # log-sigmoid form: log(1 - mu) taken from 1 - mu keeps only 1/exp(eta) of mu's digits
    return log_coef + np.add.reduce(s * eta - t * np.logaddexp(0.0, eta), axis=-1)


def logistic_log_likelihood(design, successes, trials, beta) -> float:
    """Binomial log-likelihood (including the binomial coefficient)."""
    s = np.asarray(successes, dtype=float)
    t = np.asarray(trials, dtype=float)
    eta = np.asarray(design, dtype=float) @ np.asarray(beta, dtype=float)
    return float(_logistic_ll(_clip(eta), s, t, _log_binomial_coefficients(s, t)))


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


def _fit_logistic(x: np.ndarray, outcome: _Binomial, terms) -> list[GlmFit]:
    """:func:`fit_binomial_logistic` on each checked design of a stack (B, n, k), with a prepared outcome."""
    names = _term_names(terms, x.shape[2])
    s, t, log_coef = outcome.s, outcome.t, outcome.log_coef
    fits = _irls(x, np.zeros((len(x), x.shape[2])), lambda eta, live: _logistic_family(eta, s, t, log_coef))
    return [GlmFit(family="binomial-logit", terms=names, dispersion=None, **fit) for fit in fits]


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
    return _fit_logistic(x[None], _Binomial(s, t), terms)[0]


class _Counts:
    """Whole-number counts with their tail counts T[k] = #{i : y_i > k}.

    Over whole numbers lgamma(y+theta) - lgamma(theta) is the finite sum of
    log(theta+k) for k < y, so summed over the observations each NB gamma,
    digamma and trigamma term is a dot product with T: exact, and free of
    the cancellation between two large lgamma values near the theta cap.
    Each term takes a dispersion or an array of them, one per member of a
    stack.
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

    @cached_property
    def start(self) -> tuple[float, float]:
        """Mean count and a fit's starting dispersion.

        The dispersion is the moment estimate, or 100 without overdispersion.
        """
        mean = self.y.mean()
        variance = self.y.var()
        theta = mean**2 / (variance - mean) if variance > mean else 100.0
        return mean, float(np.clip(theta, _THETA_LO, _THETA_HI))

    def _tail_sums(self, terms: np.ndarray) -> np.ndarray:
        """T . terms for each row of ``terms``: one dot product per member.

        A matrix-vector product would sum the rows in another order; each
        1 x K by K x 1 product is the dot product of a single member.
        """
        return np.matmul(terms[..., None, :], self.tails[:, None])[..., 0, 0]

    def _plus_k(self, theta) -> np.ndarray:
        return np.asarray(theta)[..., None] + self.k

    def log_gamma_terms(self, theta):
        """sum lgamma(y+theta) - n*lgamma(theta) - sum lgamma(y+1)."""
        return self._tail_sums(np.log(self._plus_k(theta)) - self.log1p_k)

    def digamma_terms(self, theta):
        """sum digamma(y+theta) - n*digamma(theta)."""
        return self._tail_sums(1.0 / self._plus_k(theta))

    def trigamma_terms(self, theta):
        """n*trigamma(theta) - sum trigamma(y+theta)."""
        return self._tail_sums(1.0 / self._plus_k(theta) ** 2)


def _negbin_ll(mu: np.ndarray, counts: _Counts, theta, theta_mu=None):
    """NB2 log-likelihood at means ``mu``; ``theta_mu`` is theta + mu when the caller has it."""
    t = np.asarray(theta)[..., None]
    if theta_mu is None:
        theta_mu = t + mu
    return counts.log_gamma_terms(theta) + np.add.reduce(
        t * np.log(t / theta_mu) + counts.y * np.log(mu / theta_mu), axis=-1
    )


def _negbin_family(eta, mu, counts: _Counts, theta):
    """Log-likelihood, IRLS weights, working response and :func:`_gain` terms at eta, whose exp is ``mu``."""
    y = counts.y
    t = np.asarray(theta)[..., None]
    theta_mu = t + mu
    w = mu * t / theta_mu
    return _negbin_ll(mu, counts, theta, theta_mu), w, eta + (y - mu) / mu, (y, y + t, mu / theta_mu)


def negbin_log_likelihood(design, counts, beta, dispersion) -> float:
    """NB2 log-likelihood with mean exp(X beta) and dispersion theta.

    Counts must be whole numbers.
    """
    eta = np.asarray(design, dtype=float) @ np.asarray(beta, dtype=float)
    mu = np.exp(_clip(eta))
    return float(_negbin_ll(mu, _Counts(counts), float(dispersion)))


def _theta_score(theta, counts: _Counts, mu: np.ndarray):
    t = np.asarray(theta)[..., None]
    theta_mu = t + mu
    return counts.digamma_terms(theta) + np.add.reduce(
        np.log(t) + 1.0 - np.log(theta_mu) - (counts.y + t) / theta_mu, axis=-1
    )


def _theta_slope(theta, counts: _Counts, mu: np.ndarray):
    """d/dtheta of :func:`_theta_score`."""
    t = np.asarray(theta)[..., None]
    theta_mu = t + mu
    rest = np.add.reduce(mu / (t * theta_mu) - (mu - counts.y) / theta_mu**2, axis=-1)
    return rest - counts.trigamma_terms(theta)


def _update_theta(counts: _Counts, mu: np.ndarray, theta: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Each member's dispersion that zeroes its score: Newton steps in u = log(theta) from ``theta``.

    ``mu`` (B, n) holds each member's means and ``theta`` (B,) its last
    dispersion.  Each score evaluation narrows a bracket of the root by its
    sign; a step that would leave it, or a slope that is not negative,
    bisects it.  A member's solve stops at a step or bracket below 1e-12 in
    u, or after MAX_ITER steps.  Returns the dispersions and a note for each
    one held at a bound.
    """
    theta = np.array(theta, dtype=float)
    # each member's score at the upper and at the lower bound, in one evaluation
    at_cap, at_floor = _theta_score(np.array([[_THETA_HI], [_THETA_LO]]), counts, mu)
    at_hi = at_cap > 0  # likelihood still rising at the cap
    at_lo = ~at_hi & (at_floor < 0)
    theta[at_hi], theta[at_lo] = _THETA_HI, _THETA_LO
    notes = [
        "dispersion at upper bound (data near-Poisson)" if hi
        else "dispersion at lower bound (extreme overdispersion)" if lo
        else None
        for hi, lo in zip(at_hi.tolist(), at_lo.tolist())
    ]
    # each member still solving: (index, lo, hi, u), its bracket and u scalars read through math.exp
    inside = ~(at_hi | at_lo)
    solving = [
        (i, math.log(_THETA_LO), math.log(_THETA_HI), math.log(theta[i])) for i in np.flatnonzero(inside).tolist()
    ]
    means = mu[inside]
    for _ in range(MAX_ITER):
        if not solving:
            break
        at = np.array([math.exp(u) for _, _, _, u in solving])
        scores = _theta_score(at, counts, means).tolist()
        slopes = (at * _theta_slope(at, counts, means)).tolist()  # dscore/du
        still = []
        for (i, lo, hi, u), score, slope in zip(solving, scores, slopes):
            if score > 0:
                lo = u
            else:
                hi = u
            step = -score / slope if slope < 0 else math.inf
            if not lo <= u + step <= hi:
                step = (lo + hi) / 2 - u
            u += step
            if abs(step) < 1e-12 or hi - lo < 1e-12:
                theta[i] = math.exp(u)
            else:
                still.append((i, lo, hi, u))
        if len(still) < len(solving):
            means = mu[[i for i, _, _, _ in still]]
        solving = still
    for i, _, _, u in solving:
        theta[i] = math.exp(u)
    return theta, notes


def _fit_negbin(x: np.ndarray, counts: _Counts, terms) -> list[GlmFit]:
    """:func:`fit_negative_binomial` on each checked design of a stack (B, n, k), with prepared counts."""
    if not counts.any_positive:
        raise ValueError(_ALL_ZERO)
    names = _term_names(terms, x.shape[2])
    mean, start = counts.start
    theta = np.full(len(x), start)
    notes: list[str | None] = [None] * len(x)
    beta = np.zeros((len(x), x.shape[2]))
    beta[np.isclose(x[:, :, 0], 1.0).all(axis=1), 0] = math.log(max(mean, 1e-8))  # an intercept column

    last: tuple = (None, None)  # an eta and its exp: update_theta and the family share each step's eta

    def exp_of(eta) -> np.ndarray:
        nonlocal last
        if last[0] is not eta:
            last = (eta, np.exp(eta))
        return last[1]

    def update_theta(eta, live) -> np.ndarray:
        previous = theta[live]
        theta[live], live_notes = _update_theta(counts, exp_of(eta), previous)
        for i, note in zip(live.tolist(), live_notes):
            notes[i] = note
        moved = zip(theta[live].tolist(), previous.tolist())
        return np.array([abs(math.log(now) - math.log(before)) < 1e-8 for now, before in moved])

    def family(eta, live):
        return _negbin_family(eta, exp_of(eta), counts, theta[live])

    fits = _irls(x, beta, family, update_theta)
    for fit, note in zip(fits, notes):
        fit["diagnostic"] = "; ".join(filter(None, (fit["diagnostic"], note))) or None
    return [
        GlmFit(family="negative-binomial-log", terms=names, dispersion=dispersion, **fit)
        for fit, dispersion in zip(fits, theta.tolist())
    ]


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
    return _fit_negbin(x[None], _Counts(y), terms)[0]


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
