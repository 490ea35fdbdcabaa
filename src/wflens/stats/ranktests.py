"""Two-sample rank tests, ordinal effect size, and multiplicity control."""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import combinations

import numpy as np

from .descriptive import midranks
from .types import EffectSize, TestResult

EXACT_LIMIT = 16  # n + m at or below this gets the exact permutation p

# Ordinal-dominance magnitude bounds (negligible < .147 <= small < .33 <= ...)
_MAGNITUDE_LEVELS = (0.147, 0.33, 0.474)
_MAGNITUDE_NAMES = ("negligible", "small", "medium", "large")


def check_alpha(alpha: float) -> float:
    """``alpha``, checked to lie strictly between 0 and 1."""
    # written so that nan fails too: every comparison with nan is false
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be strictly between 0 and 1, not {alpha!r}")
    return alpha


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _exact_p(ranks: np.ndarray, n: int, u: float) -> float:
    """Two-sided exact permutation p for U of the first ``n`` pooled ranks.

    The permutation distribution is symmetric about nm/2, so the two-sided
    p is the mass at or beyond U and its mirror image.
    """
    m = ranks.size - n
    idx = np.array(list(combinations(range(ranks.size), n)), dtype=np.intp)
    u_all = ranks[idx].sum(axis=1) - n * (n + 1) / 2.0
    lo = min(u, n * m - u)
    hi = max(u, n * m - u)
    eps = 1e-9
    count = np.count_nonzero((u_all <= lo + eps) | (u_all >= hi - eps))
    return float(count / u_all.size)


def _normal_p(pooled: np.ndarray, n: int, u: float) -> float:
    """Two-sided normal approximation with tie and continuity corrections."""
    total = pooled.size
    m = total - n
    mean = n * m / 2.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    tie_term = float(((tie_counts**3 - tie_counts).sum()))
    variance = n * m / 12.0 * ((total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0:  # all observations identical
        return 1.0
    diff = abs(u - mean)
    z = max(diff - 0.5, 0.0) / math.sqrt(variance)
    return min(1.0, 2.0 * _normal_sf(z))


def mann_whitney_u(x, y, method: str = "auto") -> TestResult:
    """Two-sided Mann-Whitney U test; returns U for the first sample.

    ``method`` is ``auto`` (exact when n+m <= 16, else normal), ``exact``,
    or ``normal``.  U counts the pairs with x > y as 1 and ties as 1/2.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("mann_whitney_u requires two non-empty samples")
    pooled = np.concatenate([a, b])
    ranks = midranks(pooled)
    u = float(ranks[: a.size].sum() - a.size * (a.size + 1) / 2.0)
    if method == "auto":
        method = "exact" if pooled.size <= EXACT_LIMIT else "normal"
    if method == "exact":
        p = _exact_p(ranks, a.size, u)
        name = "mann-whitney-u-exact"
    elif method == "normal":
        p = _normal_p(pooled, a.size, u)
        name = "mann-whitney-u-normal"
    else:
        raise ValueError(f"unknown method {method!r}")
    return TestResult(statistic=u, p_value=p, method=name, n=(a.size, b.size))


def cliffs_delta(x, y) -> EffectSize:
    """Cliff's delta: P(x > y) - P(x < y) over all cross pairs.

    Counted via binary search in the sorted second sample, O((n+m) log m);
    equal to the O(nm) pair count.  A NaN in either sample, which orders
    against nothing, raises :class:`ValueError`.
    """
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ValueError("cliffs_delta requires two non-empty samples")
    if np.isnan(a).any() or np.isnan(b).any():
        raise ValueError("cliffs_delta requires samples without NaN")
    sb = np.sort(b)
    greater = int(np.searchsorted(sb, a, side="left").sum())
    less = int(b.size * a.size - np.searchsorted(sb, a, side="right").sum())
    delta = (greater - less) / (a.size * b.size)
    # bisect_right puts a |delta| equal to a bound into the level above it
    level = bisect_right(_MAGNITUDE_LEVELS, abs(delta))
    return EffectSize(delta=float(delta), magnitude=_MAGNITUDE_NAMES[level])


def bh_adjust(p_values) -> list[float]:
    """Benjamini-Hochberg step-up adjusted p-values, in input order.

    Sorted ascending, ``adj_(i) = min_(j>=i) p_(j) * m / j`` clipped at 1.
    The adjusted values preserve the ascending order of the raw ones.
    """
    p = np.asarray(p_values, dtype=float)
    if p.ndim != 1:
        raise ValueError("bh_adjust requires a 1-d vector")
    if p.size == 0:
        return []
    if np.any((p < 0) | (p > 1)):
        raise ValueError("p-values must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="mergesort")
    scaled = p[order] * m / np.arange(1, m + 1)
    adjusted_sorted = np.minimum.accumulate(scaled[::-1])[::-1]
    adjusted_sorted = np.minimum(adjusted_sorted, 1.0)
    out = np.empty(m, dtype=float)
    out[order] = adjusted_sorted
    return out.tolist()
