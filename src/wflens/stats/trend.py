"""Mann-Kendall monotonic trend test for short monthly series."""

from __future__ import annotations

import math

import numpy as np

from .ranktests import _normal_sf, check_alpha
from .types import TrendResult

ALPHA = 0.05


def mann_kendall(series, alpha: float = ALPHA) -> TrendResult:
    """Mann-Kendall test on an equally spaced series.

    S sums the signs of all forward differences; the variance carries the
    tie correction and the z statistic the continuity correction.  tau is
    the tie-corrected (tau-b) normalization of S.  ``alpha`` must lie
    strictly between 0 and 1.
    """
    check_alpha(alpha)
    x = np.asarray(series, dtype=float)
    if x.ndim != 1 or x.size < 4:
        raise ValueError("mann_kendall requires at least 4 observations")
    n = x.size
    s = 0
    for i in range(n - 1):
        s += int(np.sign(x[i + 1 :] - x[i]).sum())

    _, tie_counts = np.unique(x, return_counts=True)
    t = tie_counts.astype(float)
    variance = (n * (n - 1) * (2 * n + 5) - (t * (t - 1) * (2 * t + 5)).sum()) / 18.0

    pairs = n * (n - 1) / 2.0
    tie_pairs = (t * (t - 1) / 2.0).sum()
    denom = math.sqrt(pairs * (pairs - tie_pairs))
    tau = s / denom if denom > 0 else 0.0

    if variance <= 0:  # constant series
        z = 0.0
    elif s > 0:
        z = (s - 1) / math.sqrt(variance)
    elif s < 0:
        z = (s + 1) / math.sqrt(variance)
    else:
        z = 0.0
    p = min(1.0, 2.0 * _normal_sf(abs(z)))

    if p < alpha and s > 0:
        trend = "increasing"
    elif p < alpha and s < 0:
        trend = "decreasing"
    else:
        trend = "no trend"
    return TrendResult(
        statistic=float(s), p_value=p, method="mann-kendall", n=(n,), tau=float(tau), trend=trend
    )
