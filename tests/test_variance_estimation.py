"""Difference-based noise level and smoothed standard deviation curve."""
from __future__ import annotations

import numpy as np
import pytest

from berkson_bands import RegressionSample, build_regular, estimate_nu, g_a

from conftest import A_N, LAP01
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
