"""Deconvolution estimator and its population-level oracles."""
from __future__ import annotations

import numpy as np
import pytest

from berkson_bands import NoError, RegressionSample, build_regular, estimate_g, g_a
from berkson_bands.deconv_kernel import spectral_kernels

from conftest import A_N, LAP01, TAPER_S, operator_for
from oracles import (gamma_profile, nu2_profile, oracle_gamma, oracle_mean, oracle_nu2,
                     oracle_variance)


def test_frozen_oracle_values():
    assert oracle_gamma(g_a, LAP01, 0.1) == pytest.approx(0.860306, abs=2e-6)
    assert oracle_nu2(g_a, LAP01, 0.01, 0.35) == pytest.approx(0.070787, abs=2e-6)


def test_profiles_match_pointwise_oracles():
    ws = np.array([-0.5, 0.0, 0.2, 0.35])
    gp = gamma_profile(g_a, LAP01, ws)
    vp = nu2_profile(g_a, LAP01, 0.01, ws)
    for i, w in enumerate(ws):
        assert gp[i] == pytest.approx(oracle_gamma(g_a, LAP01, float(w)), abs=1e-8)
        assert vp[i] == pytest.approx(oracle_nu2(g_a, LAP01, 0.01, float(w)), abs=1e-8)


def test_estimator_recovers_signal_from_smooth_profile():
    grid = np.linspace(-0.7, 0.6, 261)
    d750 = build_regular(750, A_N)
    s750 = RegressionSample(design=d750,
                            responses=gamma_profile(g_a, LAP01, d750.points))
    t21 = operator_for(d750, 0.21, LAP01, TAPER_S)
    e750 = float(np.max(np.abs(estimate_g(s750, grid, [t21])[0] - g_a(grid))))
    d1500 = build_regular(1500, A_N)
    s1500 = RegressionSample(design=d1500,
                             responses=gamma_profile(g_a, LAP01, d1500.points))
    t105 = operator_for(d1500, 0.105, LAP01, TAPER_S)
    e1500 = float(np.max(np.abs(estimate_g(s1500, grid, [t105])[0]
                                - g_a(grid))))
    assert e750 < 0.0055
    assert e1500 < e750


def test_spectral_route_matches_direct_summation():
    d200 = build_regular(200, A_N)
    s200 = RegressionSample(
        design=d200, responses=np.random.default_rng(7).standard_normal(d200.size))
    grid = np.linspace(-0.7, 0.6, 161)
    t25 = operator_for(d200, 0.25, LAP01, TAPER_S)
    direct = t25.exact_matrix(grid, d200.points) @ (
        d200.weights * s200.responses) / 0.25
    (op,) = spectral_kernels([0.25], LAP01, TAPER_S, d200.reach((-0.7, 0.6)))
    spectral = estimate_g(s200, grid, [op])[0]
    assert np.max(np.abs(direct - spectral)) < 1e-6


def test_one_call_serves_every_bandwidth_of_a_node_rule():
    # the operators of one spectral_kernels call share the fullest one's
    # data transform: each row matches that operator's own estimate
    d = build_regular(200, A_N)
    s = RegressionSample(design=d,
                         responses=np.random.default_rng(3).standard_normal(d.size))
    grid = np.linspace(-0.7, 0.6, 261)
    ops = spectral_kernels([2.0**-k for k in range(1, 7)], LAP01, TAPER_S,
                           d.reach((-0.7, 0.6)))
    rows = estimate_g(s, grid, ops)
    assert rows.shape == (6, grid.size)
    for row, op in zip(rows, ops):
        (alone,) = estimate_g(s, grid, [op])
        assert np.max(np.abs(row - alone)) <= 1e-13 * np.max(np.abs(alone))


def test_estimate_checks_the_node_rule_and_every_bandwidth():
    d = build_regular(100, A_N)
    s = RegressionSample(design=d, responses=np.ones(d.size))
    grid = np.linspace(-0.5, 0.5, 41)
    (near,) = spectral_kernels([0.25], LAP01, TAPER_S, 1.0)
    (far,) = spectral_kernels([0.125], LAP01, TAPER_S, 2.0)
    with pytest.raises(ValueError, match="one node rule"):
        estimate_g(s, grid, [near, far])
    # inside the identifiable range at h = 1/8, outside it at h = 1/2
    edge = np.linspace(0.0, 1.0 / A_N - 0.3, 41)
    fine, coarse = spectral_kernels([0.125, 0.5], LAP01, TAPER_S, 3.0)
    estimate_g(s, edge, [fine])
    with pytest.raises(ValueError, match="identifiable range"):
        estimate_g(s, edge, [fine, coarse])


def test_estimate_on_an_empty_grid_is_empty():
    d = build_regular(50, A_N)
    s = RegressionSample(design=d, responses=np.ones(d.size))
    ops = spectral_kernels([0.5, 0.25], LAP01, TAPER_S, 2.0)
    for grid in ([], np.empty(0)):
        out = estimate_g(s, grid, ops)
        assert out.shape == (2, 0)


def test_estimator_is_linear_in_responses():
    d = build_regular(80, A_N)
    rng = np.random.default_rng(9)
    y1 = rng.standard_normal(d.size)
    y2 = rng.standard_normal(d.size)
    grid = np.linspace(-0.5, 0.5, 41)
    tab = operator_for(d, 0.3, LAP01, TAPER_S)

    def fit(y):
        return estimate_g(RegressionSample(design=d, responses=y),
                          grid, [tab])[0]

    combo = fit(2.0 * y1 - 0.5 * y2)
    assert np.allclose(combo, 2.0 * fit(y1) - 0.5 * fit(y2), rtol=0, atol=1e-10)


def test_oracle_mean_equals_estimate_on_expected_responses():
    d200 = build_regular(200, A_N)
    grid = np.linspace(-0.7, 0.6, 161)
    t25 = operator_for(d200, 0.25, LAP01, TAPER_S)
    s = RegressionSample(design=d200,
                         responses=gamma_profile(g_a, LAP01, d200.points))
    direct = estimate_g(s, grid, [t25])[0]
    oracle = oracle_mean(g_a, d200, grid, t25)
    assert np.max(np.abs(direct - oracle)) < 1e-12


def test_error_free_bias_shrinks_with_bandwidth():
    d4k = build_regular(4000, A_N)
    xs = np.linspace(-0.5, 0.5, 41)
    errs = []
    for h in (0.4, 0.2, 0.1):
        tab = operator_for(d4k, h, NoError(), TAPER_S)
        errs.append(float(np.max(np.abs(
            oracle_mean(g_a, d4k, xs, tab) - g_a(xs)))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3


def test_oracles_read_the_error_law_from_the_table():
    d200 = build_regular(200, A_N)
    x = np.array([0.0, 0.3])
    free = operator_for(d200, 0.25, NoError(), TAPER_S)
    coefs = d200.weights * free.exact_matrix(x, d200.points) / 0.25
    # without covariate noise nu^2 is sigma^2 and gamma is g
    assert np.allclose(oracle_variance(g_a, 0.01, d200, x, free),
                       0.01 * np.sum(coefs**2, axis=1), rtol=1e-12, atol=0)
    assert np.allclose(oracle_mean(g_a, d200, x, free), coefs @ g_a(d200.points),
                       rtol=1e-12, atol=1e-14)


def test_variance_oracle_matches_monte_carlo():
    d200 = build_regular(200, A_N)
    t25 = operator_for(d200, 0.25, LAP01, TAPER_S)
    # the estimator at x=0 is the fixed linear form Y @ coefs
    coefs = d200.weights * t25.exact_matrix([0.0], d200.points)[0] / 0.25
    rng = np.random.default_rng(2024)
    reps = 2000
    delta = LAP01.sample(rng, (reps, d200.size))
    eps = 0.1 * rng.standard_normal((reps, d200.size))
    responses = g_a(d200.points[None, :] + delta) + eps
    mc = float(np.var(responses @ coefs, ddof=1))
    oracle = float(oracle_variance(g_a, 0.01, d200, np.array([0.0]), t25)[0])
    assert abs(mc / oracle - 1.0) < 0.10
