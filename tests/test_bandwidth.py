"""Bandwidth presets, the dyadic selection rule, and undersmoothing."""
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
    preset_h,
    undersmooth,
)
from berkson_bands.bandwidth import TABLE_PRESETS

from conftest import A_N, LAP01, TAPER_S


def noisy_sample(n, seed):
    d = build_regular(n, A_N)
    rng = np.random.default_rng(seed)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    return RegressionSample(design=d, responses=y)


def test_preset_table_lookup():
    assert preset_h("g_a", 100, 0.1) == 0.25
    assert preset_h("g_a", 750, 0.05) == 0.12
    assert preset_h("g_b", 750, 0.1) == 0.22
    assert TABLE_PRESETS[("g_b", 100, 0.05)] == 0.22
    assert len(TABLE_PRESETS) == 8
    with pytest.raises(ValueError, match="no preset bandwidth"):
        preset_h("g_a", 300, 0.1)


def test_default_config_spans_a_dyadic_range():
    cfg = default_lepski_config(200, 2.0)
    assert (cfg.k_l, cfg.k_u) == (1, 6)
    assert cfg.bandwidths() == [2.0 ** (-k) for k in range(1, 7)]
    assert (default_lepski_config(750, 2.0).k_l,
            default_lepski_config(750, 2.0).k_u) == (1, 6)


def test_config_validation():
    with pytest.raises(ValueError, match="k_l < k_u"):
        LepskiConfig(k_l=3, k_u=3, C_L=1.0)
    with pytest.raises(ValueError, match="C_L must be positive"):
        LepskiConfig(k_l=1, k_u=2, C_L=0.0)


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
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        undersmooth(0.0, 100)

