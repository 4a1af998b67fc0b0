"""The dyadic selection rule and undersmoothing."""
from __future__ import annotations

import math

import numpy as np
import pytest

from berkson_bands import (
    LepskiConfig,
    RegressionSample,
    build_regular,
    default_lepski_config,
    g_a,
    lepski_select,
    make_eval_grid,
    undersmooth,
)

from conftest import A_N, LAP01, TAPER_S, kernel_matrix, operator_for


def noisy_sample(n, seed):
    d = build_regular(n, A_N)
    rng = np.random.default_rng(seed)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    return RegressionSample(design=d, responses=y)


def test_default_config_spans_a_dyadic_range():
    cfg = default_lepski_config(200, 2.0)
    assert (cfg.k_l, cfg.k_u) == (1, 6)
    assert (default_lepski_config(750, 2.0).k_l,
            default_lepski_config(750, 2.0).k_u) == (1, 6)


def test_config_validation():
    with pytest.raises(ValueError, match="k_l < k_u"):
        LepskiConfig(k_l=3, k_u=3, C_L=1.0)
    for c_l in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="C_L must be positive and finite"):
            LepskiConfig(k_l=1, k_u=2, C_L=c_l)
    with pytest.raises(ValueError, match="k_l must be an integer"):
        LepskiConfig(k_l=1.5, k_u=3, C_L=1.0)
    with pytest.raises(ValueError, match="k_u must be an integer"):
        LepskiConfig(k_l=1, k_u=3.0, C_L=1.0)
    # log 1 = 0 leaves the rate undefined
    with pytest.raises(ValueError, match="n >= 2, got n=1"):
        default_lepski_config(1, 2.0)
    assert default_lepski_config(np.int64(200), 2.0) == default_lepski_config(200, 2.0)


def test_selection_on_flat_responses_keeps_coarsest_bandwidth():
    d = build_regular(200, A_N)
    s = RegressionSample(design=d, responses=np.full(d.size, 3.0))
    cfg = default_lepski_config(200, LAP01.beta)
    res = lepski_select(s, cfg, LAP01, TAPER_S, (-0.7, 0.6))
    assert (res.k, res.h, res.flag) == (cfg.k_l, 0.5, False)
    assert all(dev <= tau for _, _, dev, tau in res.deviations)


def test_huge_threshold_accepts_coarsest_bandwidth():
    s = noisy_sample(200, seed=0)
    cfg = default_lepski_config(200, LAP01.beta)
    big = LepskiConfig(k_l=cfg.k_l, k_u=cfg.k_u, C_L=1e12)
    res = lepski_select(s, big, LAP01, TAPER_S, (-0.7, 0.6))
    assert res.k == cfg.k_l
    assert not res.flag


def test_selection_requires_containment_at_coarsest_bandwidth():
    d = build_regular(200, A_N)
    s = RegressionSample(design=d, responses=np.zeros(d.size))
    cfg = default_lepski_config(200, LAP01.beta)
    with pytest.raises(ValueError, match="exceeds the identifiable range"):
        lepski_select(s, cfg, LAP01, TAPER_S, (-1.2, 1.2))


@pytest.mark.parametrize("c_l", [1.0, 0.02])
def test_selection_agrees_with_the_table_route(c_l):
    s = noisy_sample(200, seed=0)
    d = s.design
    base = default_lepski_config(200, LAP01.beta)
    cfg = LepskiConfig(k_l=base.k_l, k_u=base.k_u, C_L=c_l)
    interval = (-0.7, 0.6)
    res = lepski_select(s, cfg, LAP01, TAPER_S, interval)
    ests = {}

    def table_dev(k, l):
        for j in (k, l):
            if (j, l) not in ests:
                grid = make_eval_grid(interval, d.n, A_N, 2.0 ** -l).points
                op = operator_for(d, 2.0 ** -j, LAP01, TAPER_S)
                ests[j, l] = kernel_matrix(op, grid, d.points) @ (
                    d.weights * s.responses) / op.h
        return float(np.max(np.abs(ests[k, l] - ests[l, l])))

    for k, l, dev, _ in res.deviations:
        assert abs(dev - table_dev(k, l)) <= 1e-6 * table_dev(k, l)

    def tau(l):
        h_l = 2.0 ** -l
        return c_l * math.sqrt(
            math.log(200) / (200 * A_N * h_l ** (1 + 2 * LAP01.beta)))

    ks = range(cfg.k_l, cfg.k_u + 1)
    table_k = next((k for k in ks if all(table_dev(k, l) <= tau(l)
                                         for l in range(k, cfg.k_u + 1))),
                   cfg.k_u)
    assert res.k == table_k
    assert res.k == (1 if c_l == 1.0 else 2)


@pytest.mark.slow
def test_selection_is_stable_across_seeds():
    cfg = default_lepski_config(750, LAP01.beta)
    ks = [
        lepski_select(noisy_sample(750, seed), cfg, LAP01, TAPER_S, (-0.7, 0.6)).k
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

