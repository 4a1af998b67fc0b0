"""The dyadic selection rule and undersmoothing."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import berkson_bands.bandwidth as bandwidth_mod
from berkson_bands import (
    RegressionSample,
    build_regular,
    g_a,
    lepski_select,
    make_eval_grid,
    undersmooth,
)

from conftest import A_N, LAP01, TAPER_S, operator_for


def noisy_sample(n, seed):
    d = build_regular(n, A_N)
    rng = np.random.default_rng(seed)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    return RegressionSample(design=d, responses=y)


def test_dyadic_range_follows_from_n_beta_and_a_n():
    assert bandwidth_mod._dyadic_range(200, 2.0, A_N) == (1, 6)
    assert bandwidth_mod._dyadic_range(750, 2.0, A_N) == (1, 6)
    # log 1 = 0 leaves the rate undefined
    with pytest.raises(ValueError, match="n >= 2, got n=1"):
        bandwidth_mod._dyadic_range(1, 2.0, A_N)
    tiny = RegressionSample(design=build_regular(1, A_N),
                            responses=np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="n >= 2, got n=1"):
        lepski_select(tiny, LAP01, TAPER_S, (-0.1, 0.1))


def test_selection_on_flat_responses_keeps_coarsest_bandwidth():
    d = build_regular(200, A_N)
    s = RegressionSample(design=d, responses=np.full(d.size, 3.0))
    res = lepski_select(s, LAP01, TAPER_S, (-0.7, 0.6))
    assert (res.k, res.h) == (1, 0.5)
    assert all(dev <= tau for _, _, dev, tau in res.deviations)


def test_huge_threshold_accepts_coarsest_bandwidth(monkeypatch):
    monkeypatch.setattr(bandwidth_mod, "_C_L", 1e12)
    res = lepski_select(noisy_sample(200, seed=0), LAP01, TAPER_S, (-0.7, 0.6))
    assert res.k == 1


def test_selection_requires_containment_at_coarsest_bandwidth():
    d = build_regular(200, A_N)
    s = RegressionSample(design=d, responses=np.zeros(d.size))
    # (-1.49, 1.49) lies outside even the finest bandwidth's range, h = 1/64;
    # the message still names the coarsest one
    for interval in [(-1.2, 1.2), (-1.49, 1.49)]:
        with pytest.raises(ValueError,
                           match=r"exceeds the identifiable range .* at h=0\.5$"):
            lepski_select(s, LAP01, TAPER_S, interval)


@pytest.mark.parametrize("c_l", [1.0, 0.02])
def test_selection_agrees_with_the_table_route(c_l, monkeypatch):
    s = noisy_sample(200, seed=0)
    d = s.design
    k_l, k_u = bandwidth_mod._dyadic_range(200, LAP01.beta, A_N)
    monkeypatch.setattr(bandwidth_mod, "_C_L", c_l)
    calls = []

    def spy(sample, grid, kernels):
        calls.append((grid, [op.h for op in kernels]))
        return estimate_g(sample, grid, kernels)

    estimate_g = bandwidth_mod.estimate_g
    monkeypatch.setattr(bandwidth_mod, "estimate_g", spy)
    interval = (-0.7, 0.6)
    res = lepski_select(s, LAP01, TAPER_S, interval)
    assert [f.name for f in dataclasses.fields(res)] == ["h", "k", "deviations"]
    # one estimate_g call: every bandwidth on the finest bandwidth's grid
    hs = [2.0 ** -k for k in range(k_l, k_u + 1)]
    finest = make_eval_grid(interval, d.n, A_N, hs[-1]).points
    ((grid, kernel_hs),) = calls
    assert np.array_equal(grid, finest)
    assert kernel_hs == hs
    ests = {}

    def table_dev(k, l):
        for j in (k, l):
            if j not in ests:
                op = operator_for(d, 2.0 ** -j, LAP01, TAPER_S)
                ests[j] = op.exact_matrix(finest, d.points) @ (
                    d.weights * s.responses) / op.h
        return float(np.max(np.abs(ests[k] - ests[l])))

    for k, l, dev, _ in res.deviations:
        assert abs(dev - table_dev(k, l)) <= 1e-6 * table_dev(k, l)

    def tau(l):
        h_l = 2.0 ** -l
        return c_l * math.sqrt(
            math.log(200) / (200 * A_N * h_l ** (1 + 2 * LAP01.beta)))

    ks = range(k_l, k_u + 1)
    table_k = next((k for k in ks if all(table_dev(k, l) <= tau(l)
                                         for l in range(k, k_u + 1))), k_u)
    assert res.k == table_k
    assert res.k == (1 if c_l == 1.0 else 2)


@pytest.mark.slow
def test_selection_is_stable_across_seeds():
    ks = [
        lepski_select(noisy_sample(750, seed), LAP01, TAPER_S, (-0.7, 0.6)).k
        for seed in range(10)
    ]
    assert max(ks.count(k) for k in set(ks)) >= 8


def test_undersmoothing_divides_by_log_n():
    assert undersmooth(0.5, 100) == pytest.approx(0.5 / math.log(100), rel=1e-12)
    with pytest.raises(ValueError, match="n >= 3"):
        undersmooth(0.5, 2)
    for h in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bandwidth must be positive and finite"):
            undersmooth(h, 100)

