"""Concentration and association measures for usage distributions."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def gini(values) -> float:
    """Gini coefficient of a vector of non-negative magnitudes.

    Computed with the sorted-rank identity
    ``G = (2 * sum(i * x_(i))) / (n * sum(x)) - (n + 1) / n``
    over ascending-sorted values with 1-based ranks, which is O(n log n)
    and equal to the mean-absolute-difference form.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ValueError("gini requires a non-empty 1-d vector")
    if np.any(x < 0):
        raise ValueError("gini requires non-negative values")
    total = x.sum()
    if total == 0:
        raise ValueError("gini is undefined for an all-zero vector")
    x = np.sort(x)
    n = x.size
    ranks = np.arange(1, n + 1)
    return float((2.0 * np.dot(ranks, x)) / (n * total) - (n + 1) / n)


def midranks(values) -> np.ndarray:
    """Ranks 1..n with ties sharing their average rank.

    A tie is a run of equal sorted values; NaN equals nothing, so each NaN
    has a rank of its own.  The runs are found by comparing neighbours,
    not by their difference, which is NaN between two equal infinities.
    """
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="mergesort")
    sx = x[order]
    starts = np.flatnonzero(np.concatenate(([x.size > 0], sx[1:] != sx[:-1])))  # of each run
    sizes = np.diff(np.append(starts, x.size))
    ranks = np.empty(x.size, dtype=float)
    ranks[order] = np.repeat((2 * starts + sizes - 1) / 2.0 + 1.0, sizes)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation: Pearson correlation of mid-ranks."""
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("spearman requires two equal-length 1-d vectors")
    if a.size < 3:
        raise ValueError("spearman requires at least 3 observations")
    ra = midranks(a)
    rb = midranks(b)
    da = ra - ra.mean()
    db = rb - rb.mean()
    denom = np.sqrt(np.dot(da, da) * np.dot(db, db))
    if denom == 0:
        raise ValueError("spearman is undefined for a constant vector")
    return float(np.dot(da, db) / denom)


@dataclass(frozen=True)
class FiveNumber:
    min: float
    q1: float
    median: float
    q3: float
    max: float


def linear_quantiles(x: np.ndarray, qs: tuple[float, ...]) -> list[float]:
    """``np.quantile(x, qs, method="linear")`` of a non-empty float vector, bit for bit.

    The same steps as numpy, minus its ~40 µs of overhead per call and its
    import of ``numpy.ma``: the virtual index ``(n - 1) * q`` and its floor,
    numpy's partition of ``x`` (in place) on those indices, and ``_lerp``'s
    two branches, taken from the upper neighbour once the weight is 0.5 or
    more.  Any NaN gives NaN.  Partitioning as numpy does, rather than
    sorting, keeps the sign of a zero numpy picks among equal zeros.
    """
    last = x.size - 1
    cuts = []
    for q in qs:
        at = last * q
        if at >= last:  # both neighbours are the last element, and the weight is at + 1
            below = above = -1
        else:
            below = math.floor(at)
            above = below + 1
        cuts.append((below, above, at - below))
    x.partition(sorted({0, -1, *(c[0] for c in cuts), *(c[1] for c in cuts)}))
    top = x.item(-1)
    if top != top:
        return [top] * len(qs)
    out = []
    for below, above, t in cuts:
        a = x.item(below)
        b = x.item(above)
        diff = b - a
        out.append(b - diff * (1 - t) if t >= 0.5 else a + diff * t)
    return out


def five_number(values) -> FiveNumber:
    """Min, linear-interpolated quartiles, and max."""
    x = np.array(values, dtype=float)
    if x.size == 0:
        raise ValueError("five_number requires a non-empty vector")
    low, high = x.min(), x.max()
    q1, med, q3 = linear_quantiles(x, (0.25, 0.5, 0.75))
    return FiveNumber(float(low), q1, med, q3, float(high))
