"""Difference-based noise level and smoothed standard deviation curve."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berkson_bands import RegressionSample, build_regular, estimate_nu, g_a
from berkson_bands.variance_estimation import VarianceCurve

from conftest import A_N, LAP01
from dense_band import epanechnikov_weights
from oracles import nu2_profile


def sample_from(n, seed, scale=0.1):
    d = build_regular(n, A_N)
    rng = np.random.default_rng(seed)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + scale * rng.standard_normal(d.size)
    return RegressionSample(design=d, responses=y)


def test_curve_recovers_homoscedastic_level():
    d = build_regular(2000, A_N)
    y = 0.1 * np.random.default_rng(11).standard_normal(d.size)
    curve = estimate_nu(RegressionSample(design=d, responses=y),
                        interval=(-0.7, 0.6))
    xs = np.linspace(-0.7, 0.6, 53)
    assert np.max(np.abs(curve(xs) / 0.1 - 1.0)) < 0.15


def test_curve_tracks_heteroscedastic_target():
    xs = np.linspace(-0.7, 0.6, 53)
    target = np.sqrt(nu2_profile(g_a, LAP01, 0.01, xs))

    def sup_err(n):
        curve = estimate_nu(sample_from(n, seed=5), interval=(-0.7, 0.6))
        return float(np.max(np.abs(curve(xs) - target)))

    assert sup_err(5000) < sup_err(500)


def test_curve_scale_equivariance():
    d = build_regular(300, A_N)
    y = np.random.default_rng(1).standard_normal(d.size)
    one = estimate_nu(RegressionSample(design=d, responses=y))
    two = estimate_nu(RegressionSample(design=d, responses=2.0 * y))
    xs = np.linspace(-1.0, 1.0, 11)
    assert np.array_equal(two(xs), 2.0 * one(xs))


def test_constant_responses_reduce_curve_to_floor():
    d = build_regular(40, A_N)
    s = RegressionSample(design=d, responses=np.zeros(d.size))
    with pytest.warns(RuntimeWarning, match="variance curve reduced to its floor"):
        curve = estimate_nu(s)
    assert curve.degenerate
    assert curve.floor == 1e-8
    assert np.array_equal(curve(np.linspace(-0.5, 0.5, 7)), np.full(7, 1e-8))


def test_mask_selects_positions():
    s = sample_from(300, seed=1)
    pos = np.arange(0, s.design.size, 7)
    w, y = s.design.points[pos], s.responses[pos]
    curve = estimate_nu(s, mask=pos)
    assert np.array_equal(curve.midpoints, 0.5 * (w[1:] + w[:-1]))
    assert np.array_equal(curve.residuals, 0.5 * (y[1:] - y[:-1]) ** 2)
    with pytest.raises(ValueError, match="at least two observations"):
        estimate_nu(s, mask=np.array([4]))
    with pytest.raises(ValueError, match="mask must be a 1-d array of integer"):
        estimate_nu(s, mask=[1.7, 3.2, 6.9])
    for bad in ([-1, 3, 5, 9], [3, 5, 5, 9], [9, 5, 3], [0, s.design.size]):
        with pytest.raises(ValueError, match="mask positions must be strictly"):
            estimate_nu(s, interval=(-0.7, 0.6), mask=bad)


def test_bandwidth_and_window_validation():
    s = sample_from(300, seed=1)
    spacing = 1.0 / (300 * A_N)
    with pytest.raises(ValueError, match="below the data spacing"):
        estimate_nu(s, h_v=0.4 * spacing)
    curve = estimate_nu(s, h_v=0.01)
    with pytest.raises(ValueError, match="empty smoothing window"):
        curve(5.0)
    assert isinstance(curve.variance(0.0), float)


def dense_average(mids, r, h_v, x):
    """Epanechnikov local average of r from dense weights, 64 points at a
    time."""
    out = []
    for s in range(0, x.size, 64):
        wts, sums = epanechnikov_weights(mids, x[s : s + 64], h_v)
        out.append(wts @ r / sums)
    return np.concatenate(out)


# 10,001 midpoints are those of the n = 5,000 design.
@settings(derandomize=True, max_examples=40, deadline=None)
@given(size=st.integers(2, 10_001), jitter=st.sampled_from([0.0, 0.45]),
       offset=st.integers(-800, 800), reach=st.floats(0.5, 13.0),
       seed=st.integers(0, 2**32 - 1))
@example(size=10_001, jitter=0.0, offset=0, reach=10.4, seed=5000)
@example(size=10_001, jitter=0.45, offset=800, reach=10.4, seed=5000)
@example(size=10_001, jitter=0.0, offset=-800, reach=0.5, seed=5000)
@example(size=1_000, jitter=0.45, offset=800, reach=0.5, seed=1)
def test_window_smoother_matches_dense_weights(size, jitter, offset, reach, seed):
    """Prefix-sum local averages agree with dense Epanechnikov weights to
    1e-12 relative, for midpoints anywhere (up to 100 from 0) with about
    2^reach midpoints in h_v, at random points and at points whose window
    edge lands on a midpoint.  Uniform midpoints sit on a binary grid, so
    m +- h_v there is exact.

    Every x lies within the midpoints' range, so its window holds a
    midpoint of weight above 1/2, and the residuals lie in [1/2, 2].  An
    average is then relatively as accurate as its weighted sums.  Written
    as a quadratic in the midpoint, a weight w near 0 carries an error of
    about 1e-16/w relative, so a window whose midpoints all sit near its
    edges (beyond the range), or whose large residuals all carry tiny
    weights (residuals near 0), has an average that the window sums do
    not give to 1e-12."""
    rng = np.random.default_rng(seed)
    step = 2.0**-12
    mids = offset / 8.0 + step * (np.arange(size)
                                  + jitter * rng.uniform(-1.0, 1.0, size))
    h_v = step * max(1.0, round(2.0**reach)) if jitter == 0.0 else step * 2.0**reach
    r = rng.uniform(0.5, 2.0, size)
    edge = np.concatenate((mids + h_v, mids - h_v))
    edge = edge[(edge >= mids[0]) & (edge <= mids[-1])]
    x = np.concatenate((rng.uniform(mids[0], mids[-1], 256),
                        edge[:: max(1, edge.size // 64)]))
    curve = VarianceCurve(midpoints=mids, residuals=r, h_v=h_v, floor=0.0)
    got, want = curve.variance(x), dense_average(mids, r, h_v, x)
    assert np.max(np.abs(got - want) / want) <= 1e-12


def test_window_smoother_counts_empty_windows():
    mids = np.linspace(0.0, 1.0, 101)
    curve = VarianceCurve(midpoints=mids, residuals=np.ones(101), h_v=0.05,
                          floor=0.0)
    # windows strictly inside x +- h_v: beyond either end, or touching the
    # first or last midpoint at an edge, they are empty
    x = np.array([-0.2, -0.05, -0.0499, 0.5, 1.05, 1.0499, 3.0])
    with pytest.raises(ValueError, match="empty smoothing window at 4 of 7 "
                                         "evaluation points"):
        curve.variance(x)
    assert np.array_equal(curve.variance(x[[2, 3, 5]]), np.ones(3))


def test_window_holds_every_midpoint_of_positive_weight():
    # x -+ h_v rounds onto the end midpoint 32.1, which lies inside the
    # window at weight 5e-12, read to about 1e-16/5e-12 relative
    h_v = 0.001
    steps = 0.0015 * np.arange(6)
    for mids, x in ((32.1 - steps[::-1], 32.1 + h_v), (32.1 + steps, 32.1 - h_v)):
        assert 32.1 in (x - h_v, x + h_v) and abs(x - 32.1) < h_v
        curve = VarianceCurve(midpoints=mids, residuals=np.full(6, 1.5),
                              h_v=h_v, floor=0.0)
        assert curve.variance(x) == pytest.approx(1.5, rel=1e-3)
