"""Descriptive statistics, rank tests, multiple-testing correction, trend."""

import itertools
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import wflens
from wflens.stats import (
    FiveNumber,
    bh_adjust,
    cliffs_delta,
    five_number,
    gini,
    linear_quantiles,
    mann_kendall,
    mann_whitney_u,
    midranks,
    spearman,
)

rng = np.random.default_rng(414243)


# ------------------------------------------------------------------ gini


def gini_pairwise(x) -> float:
    """O(n^2) oracle: half the relative mean absolute difference."""
    x = np.asarray(x, dtype=float)
    diff = np.abs(x[:, None] - x[None, :]).sum()
    return float(diff / (2.0 * len(x) ** 2 * x.mean()))


def test_gini_equal_counts_is_zero():
    assert gini([1, 1, 1, 1]) == 0.0
    assert gini([7, 7, 7]) == 0.0


def test_gini_hand_values():
    assert gini([1, 1, 1, 5]) == pytest.approx(0.375, abs=1e-15)
    assert gini([0, 0, 0, 1]) == pytest.approx(0.75, abs=1e-15)


def test_gini_against_pairwise_oracle():
    start = time.perf_counter()
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        x = rng.integers(0, 50, size=n).astype(float)
        if x.sum() == 0:
            x[0] = 1.0
        assert abs(gini(x) - gini_pairwise(x)) < 1e-12
    assert time.perf_counter() - start < 5.0


def test_gini_scale_invariant():
    x = [1, 4, 2, 9, 3]
    assert gini(x) == pytest.approx(gini([10 * v for v in x]), abs=1e-12)


def test_gini_rejects_bad_input():
    with pytest.raises(ValueError):
        gini([])
    with pytest.raises(ValueError):
        gini([1, -2, 3])
    with pytest.raises(ValueError):
        gini([0, 0, 0])


# ------------------------------------------------------------------ ranks


def test_midranks_with_ties():
    assert list(midranks([10, 20, 20, 30])) == [1.0, 2.5, 2.5, 4.0]
    assert list(midranks([5, 5, 5])) == [2.0, 2.0, 2.0]


def oracle_midranks(values) -> np.ndarray:
    """The element-by-element loop: each tie run grows while the next sorted value equals its first."""
    x = np.asarray(values, dtype=float)
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=float)
    sx = x[order]
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and sx[j + 1] == sx[i]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


RANKED_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0]),
    st.integers(-3, 3).map(float),
    st.floats(allow_nan=True, allow_infinity=True),
)


@given(st.lists(RANKED_VALUES, max_size=40))
@example([])
@example([2.0])
@example([math.inf, -math.inf, math.inf, -math.inf, 1.0])
@example([math.nan, 0.0, math.nan, -0.0, 0.0])
def test_midranks_match_the_loop_bit_for_bit(values):
    assert midranks(values).tobytes() == oracle_midranks(values).tobytes()


def test_spearman_hand_value():
    assert spearman([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_spearman_monotone_extremes():
    x = [1.0, 2.0, 5.0, 9.0, 11.0]
    assert spearman(x, [v**3 for v in x]) == pytest.approx(1.0)
    assert spearman(x, [-v for v in x]) == pytest.approx(-1.0)


def test_spearman_equals_pearson_of_midranks():
    for _ in range(50):
        n = int(rng.integers(3, 40))
        x = rng.integers(0, 10, size=n).astype(float)
        y = rng.integers(0, 10, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        expected = float(np.corrcoef(midranks(x), midranks(y))[0, 1])
        assert spearman(x, y) == pytest.approx(expected, abs=1e-12)


def test_spearman_rejects_degenerate():
    with pytest.raises(ValueError):
        spearman([1, 2], [3, 4])
    with pytest.raises(ValueError):
        spearman([1, 1, 1], [1, 2, 3])


def test_five_number_linear_interpolation():
    assert five_number([1, 2, 3, 4, 5, 6, 7, 8, 9]) == FiveNumber(1.0, 3.0, 5.0, 7.0, 9.0)
    fn = five_number([8, 26])
    assert (fn.q1, fn.median, fn.q3) == (12.5, 17.0, 21.5)


_EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, math.inf, -math.inf, math.nan, 2**53 + 1]
_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.sampled_from(_EDGE_VALUES),
)


def _hex(values) -> list[str]:
    return [float(v).hex() for v in values]


@given(st.lists(_number, min_size=1, max_size=40))
@example([7])
@example([3, 3, 3, 3])
@example([1, 2, 2, 2, 3])
@example([2**53 + 1, 2**53 + 3, 2**64 + 1, 2**70])
@example([-0.0])
@example([0.0, -0.0, -0.0, 0.0, -0.0])
@example([-0.0, -0.0, 0.0, 5e-324, -0.0, 1.0, -0.0])
@example([5e-324, 1e-310, 2.0**-1022, 0.0])
@example([math.inf])
@example([-math.inf, 1.0, math.inf])
@example([1.0, math.nan, 2.0])
@example([math.nan])
def test_quantiles_match_numpy_bit_for_bit(values):
    x = np.asarray(values, dtype=float)
    with np.errstate(invalid="ignore"):
        quartiles = np.percentile(x, [25.0, 50.0, 75.0], method="linear")
        terciles = np.percentile(x, [100.0 / 3.0, 200.0 / 3.0], method="linear")
    fn = five_number(values)
    assert _hex([fn.min, fn.q1, fn.median, fn.q3, fn.max]) == _hex([x.min(), *quartiles, x.max()])
    assert all(type(v) is float for v in (fn.min, fn.q1, fn.median, fn.q3, fn.max))
    cuts = linear_quantiles(np.array(values, dtype=float), ((100.0 / 3.0) / 100, (200.0 / 3.0) / 100))
    assert _hex(cuts) == _hex(terciles)
    # tercile_split cuts where np.percentile would
    if np.unique(x).size >= 3:
        groups = wflens.tercile_split({f"w{i}": float(v) for i, v in enumerate(x)})
        assert _hex([groups.t1, groups.t2]) == _hex(terciles)


def test_five_number_leaves_its_input_alone():
    x = np.array([3.0, 1.0, 2.0, 5.0, 4.0])
    five_number(x)
    assert x.tolist() == [3.0, 1.0, 2.0, 5.0, 4.0]


# ------------------------------------------------------------------ Mann-Whitney


def exact_p_by_enumeration(x, y) -> float:
    """Independent pure-Python permutation oracle for tiny samples, on scipy's average ranks."""
    from scipy.stats import rankdata

    pooled = list(x) + list(y)
    n = len(x)
    ranks = rankdata(pooled, method="average")

    def u_of(idx):
        rank_sum = sum(ranks[i] for i in idx)
        return rank_sum - n * (n + 1) / 2

    observed = u_of(range(n))
    lo = min(observed, len(x) * len(y) - observed)
    hi = len(x) * len(y) - lo
    total = 0
    extreme = 0
    for combo in itertools.combinations(range(len(pooled)), n):
        total += 1
        u = u_of(combo)
        if u <= lo + 1e-9 or u >= hi - 1e-9:
            extreme += 1
    return extreme / total


def test_mwu_hand_value():
    result = mann_whitney_u([1, 2], [3, 4])
    assert result.statistic == 0.0
    assert result.p_value == pytest.approx(1 / 3, abs=1e-12)
    assert result.method == "mann-whitney-u-exact"


def test_mwu_identical_samples():
    result = mann_whitney_u([1, 2, 3], [1, 2, 3])
    assert result.statistic == 4.5
    assert result.p_value == 1.0


def test_mwu_exact_matches_enumeration_oracle():
    for _ in range(40):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(2, 5))
        x = rng.integers(0, 6, size=n).tolist()
        y = rng.integers(0, 6, size=m).tolist()
        got = mann_whitney_u(x, y, method="exact")
        assert got.p_value == pytest.approx(exact_p_by_enumeration(x, y), abs=1e-12)


def test_mwu_normal_close_to_exact():
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 9))
        x = rng.normal(size=n).tolist()
        y = (rng.normal(size=m) + 0.5).tolist()
        exact = mann_whitney_u(x, y, method="exact").p_value
        approx = mann_whitney_u(x, y, method="normal").p_value
        worst = max(worst, abs(exact - approx))
    assert worst < 0.05
    assert time.perf_counter() - start < 5.0


def test_mwu_u_statistics_sum_to_nm():
    for _ in range(100):
        n = int(rng.integers(2, 12))
        m = int(rng.integers(2, 12))
        x = rng.integers(0, 8, size=n).tolist()
        y = rng.integers(0, 8, size=m).tolist()
        ux = mann_whitney_u(x, y).statistic
        uy = mann_whitney_u(y, x).statistic
        assert ux + uy == pytest.approx(n * m, abs=1e-9)


def test_mwu_auto_method_switch():
    small = mann_whitney_u(list(range(8)), list(range(8)))
    big = mann_whitney_u(list(range(9)), list(range(8)))
    assert small.method == "mann-whitney-u-exact"
    assert big.method == "mann-whitney-u-normal"


def test_mwu_rejects_empty():
    with pytest.raises(ValueError):
        mann_whitney_u([], [1, 2])


# ------------------------------------------------------------------ Cliff's delta


def delta_brute(x, y) -> float:
    gt = sum(1 for a in x for b in y if a > b)
    lt = sum(1 for a in x for b in y if a < b)
    return (gt - lt) / (len(x) * len(y))


def test_delta_extremes():
    assert cliffs_delta([2, 2], [1, 1]).delta == 1.0
    assert cliffs_delta([1, 1], [2, 2]).delta == -1.0
    assert cliffs_delta([1, 2, 3], [1, 2, 3]).delta == 0.0


def test_delta_matches_brute_force():
    for _ in range(200):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(1, 25))
        x = rng.integers(0, 10, size=n).tolist()
        y = rng.integers(0, 10, size=m).tolist()
        assert cliffs_delta(x, y).delta == delta_brute(x, y)


@pytest.mark.parametrize(
    "delta,magnitude",
    [
        (0.0, "negligible"),
        (0.14, "negligible"),
        (0.147, "small"),
        (0.2, "small"),
        (0.33, "medium"),
        (0.4, "medium"),
        (0.474, "large"),
        (0.9, "large"),
        (-0.5, "large"),
        (-0.2, "small"),
    ],
)
def test_delta_magnitude_thresholds(delta, magnitude):
    # Build two samples realizing the requested delta exactly: mix of
    # strictly-greater and tied pairs against a single reference point.
    if delta < 0:
        result = cliffs_delta([0.0] * 1000, [1.0] * int(round(-delta * 1000)) + [0.0] * (1000 - int(round(-delta * 1000))))
    else:
        k = int(round(delta * 1000))
        result = cliffs_delta([1.0] * k + [0.0] * (1000 - k), [0.0] * 1000)
    assert result.delta == pytest.approx(delta, abs=1e-12)
    assert result.magnitude == magnitude


TIE_HEAVY = st.lists(
    st.integers(-3, 3).map(float) | st.sampled_from([math.inf, -math.inf, 0.5]), min_size=1, max_size=40
)


@given(TIE_HEAVY, TIE_HEAVY)
def test_delta_equals_the_pair_count(x, y):
    assert cliffs_delta(x, y).delta == delta_brute(x, y)


def test_delta_rejects_nan():
    for x, y in (([1.0, math.nan], [2.0]), ([1.0], [math.nan, 2.0])):
        with pytest.raises(ValueError, match="NaN"):
            cliffs_delta(x, y)


def test_delta_antisymmetric():
    x = [1, 5, 3, 3]
    y = [2, 2, 4]
    assert cliffs_delta(x, y).delta == -cliffs_delta(y, x).delta


# ------------------------------------------------------------------ Benjamini-Hochberg


def test_bh_published_example():
    assert bh_adjust([0.01, 0.02, 0.03, 0.04]) == [0.04, 0.04, 0.04, 0.04]


def test_bh_keeps_input_order():
    raw = [0.04, 0.01, 0.03, 0.02]
    adjusted = bh_adjust(raw)
    assert adjusted == [0.04, 0.04, 0.04, 0.04]


def test_bh_single_and_empty():
    assert bh_adjust([]) == []
    assert bh_adjust([0.2]) == [0.2]


def test_bh_clips_at_one():
    assert bh_adjust([0.9, 0.95]) == [0.95, 0.95]
    assert bh_adjust([0.6]) == [0.6]


@given(
    st.lists(st.floats(min_value=1e-12, max_value=1.0, allow_nan=False), min_size=1, max_size=30)
)
def test_bh_dominates_raw_and_preserves_ranks(raw):
    adjusted = bh_adjust(raw)
    assert len(adjusted) == len(raw)
    for p, q in zip(raw, adjusted):
        assert q >= p - 1e-15
        assert q <= 1.0
    order = sorted(range(len(raw)), key=lambda i: raw[i])
    for a, b in zip(order, order[1:]):
        assert adjusted[a] <= adjusted[b] + 1e-15


def test_bh_rejects_out_of_range():
    with pytest.raises(ValueError):
        bh_adjust([0.5, 1.5])
    with pytest.raises(ValueError):
        bh_adjust([-0.1])


# ------------------------------------------------------------------ Mann-Kendall


def test_mk_strictly_increasing():
    result = mann_kendall(list(range(1, 11)))
    assert result.tau == 1.0
    assert result.trend == "increasing"
    assert result.p_value < 0.001


def test_mk_strictly_decreasing():
    result = mann_kendall(list(range(10, 0, -1)))
    assert result.tau == -1.0
    assert result.trend == "decreasing"


def test_mk_constant_series():
    result = mann_kendall([5.0] * 6)
    assert result.statistic == 0.0
    assert result.p_value == 1.0
    assert result.trend == "no trend"


def test_mk_noisy_trend_recovered():
    local = np.random.default_rng(99)
    series = [t + float(local.normal(scale=0.5)) for t in range(30)]
    result = mann_kendall(series)
    assert result.tau >= 0.9
    assert result.p_value < 0.001
    assert result.trend == "increasing"


def test_mk_alpha_controls_label():
    series = [1.0, 3.0, 2.0, 4.0, 3.5, 5.0]
    relaxed = mann_kendall(series, alpha=0.9)
    strict = mann_kendall(series, alpha=1e-6)
    assert relaxed.trend == "increasing"
    assert strict.trend == "no trend"


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 5.0, float("nan"), float("inf")])
def test_mk_rejects_alpha_outside_unit_interval(alpha):
    with pytest.raises(ValueError, match="alpha must be strictly between 0 and 1"):
        mann_kendall([1, 2, 3, 4, 5, 6, 7, 8], alpha=alpha)


def test_mk_needs_four_points():
    with pytest.raises(ValueError):
        mann_kendall([1.0, 2.0, 3.0])


def test_mk_tau_matches_scipy_kendall():
    from scipy.stats import kendalltau

    for _ in range(20):
        n = int(rng.integers(4, 25))
        series = rng.integers(0, 6, size=n).astype(float)
        if len(set(series.tolist())) < 2:
            continue
        ours = mann_kendall(series.tolist())
        ref = kendalltau(np.arange(n), series)
        assert ours.tau == pytest.approx(float(ref.statistic), abs=1e-12)
