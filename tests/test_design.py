"""Design grids, density-matched spacing, splits, and sample files."""
from __future__ import annotations

import math

import numpy as np
import pytest

from berkson_bands import (
    Design,
    RegressionSample,
    build_from_density,
    build_regular,
    build_split,
    kernel_table,
    load_sample,
    save_sample,
)
from berkson_bands.design import default_b_n, default_d_n

from conftest import A_N, LAP01, TAPER_S


def test_regular_design_layout():
    d = build_regular(100, A_N)
    j = np.arange(-100, 101)
    assert d.size == 201
    assert np.array_equal(d.points, j / (100 * A_N))
    assert np.all(d.weights == 1.0 / (100 * A_N))
    assert d.span == (d.points[0], d.points[-1])
    lo, hi = d.identifiable_range(0.25)
    assert lo == pytest.approx(-1.0 / A_N + 0.25)
    assert hi == pytest.approx(1.0 / A_N - 0.25)


def test_kernel_span_covers_design_span():
    d = build_regular(100, A_N)
    reach = (d.points[-1] - d.points[0]) / 0.25
    assert d.kernel_span(0.25) == reach + 2.0
    tab = kernel_table(0.25, LAP01, TAPER_S, span=d.kernel_span(0.25))
    assert tab.span >= reach
    tab(reach)  # inside the tabulated span, must not raise


def test_design_validation():
    pts = np.arange(5.0)
    wts = np.ones(5)
    with pytest.raises(ValueError, match="need n >= 1"):
        Design(n=0, a_n=1.0, points=np.zeros(1), weights=np.ones(1))
    with pytest.raises(ValueError, match="need a_n > 0"):
        Design(n=2, a_n=0.0, points=pts, weights=wts)
    with pytest.raises(ValueError, match="length 2n\\+1"):
        Design(n=2, a_n=1.0, points=np.arange(4.0), weights=np.ones(4))
    with pytest.raises(ValueError, match="strictly increasing"):
        Design(n=2, a_n=1.0, points=np.zeros(5), weights=wts)


def test_sample_validation():
    d = build_regular(3, A_N)
    with pytest.raises(ValueError):
        RegressionSample(design=d, responses=np.ones(5))
    with pytest.raises(ValueError, match="finite"):
        RegressionSample(design=d, responses=np.full(7, np.nan))


def test_density_matched_uniform_design():
    n = 100
    d = build_from_density(n, A_N, lambda x: (n + 1) / (n * A_N))
    target = np.arange(-n, n + 1) / ((n + 1) * A_N)
    assert np.max(np.abs(d.points - target)) < 1e-9


def test_density_matched_triangular_quantiles():
    c = 1.5
    d = build_from_density(25, A_N, lambda x: c - x)
    worst = 0.0
    for j in range(1, 26):
        w = d.points[25 + j]
        cdf = (c * w - w * w / 2.0) / (c * c / 2.0)
        worst = max(worst, abs(cdf - j / 26.0))
    assert worst < 1e-8


def test_density_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        build_from_density(10, A_N, lambda x: -1.0 + 0.0 * x)
    with pytest.raises(ValueError, match="integrates to zero"):
        build_from_density(10, A_N, lambda x: 0.0 * x)


def test_split_removes_every_dnth_point():
    sd = build_split(build_regular(5, A_N), d_n=5)
    assert sd.removed.tolist() == [0, 5]
    assert sd.kept.tolist() == [-5, -4, -3, -2, -1, 1, 2, 3, 4]
    base = 1.0 / (5 * A_N)
    assert np.all(sd.gap_weights / base == [1, 1, 1, 1, 1, 2, 1, 1, 1])
    assert sd.gap_weights.sum() == pytest.approx(2.0 / A_N, rel=1e-12)
    assert np.array_equal(sd.kept_positions, sd.base.points[sd.kept + 5])
    assert np.array_equal(sd.removed_positions, sd.base.points[sd.removed + 5])


def test_split_with_maximal_dn_removes_one_point():
    sd = build_split(build_regular(6, 0.5), d_n=12)
    assert sd.removed.tolist() == [6]


def test_split_rejects_out_of_range_dn():
    d = build_regular(5, A_N)
    with pytest.raises(ValueError, match="2 <= d_n <= 2n"):
        build_split(d, d_n=1)
    with pytest.raises(ValueError, match="2 <= d_n <= 2n"):
        build_split(d, d_n=11)


def test_default_split_sizes():
    assert default_d_n(100) == 25
    assert default_d_n(750) == 113
    assert default_b_n(100, A_N) == 1.0
    assert default_b_n(20, 0.1) == pytest.approx(0.1 * math.log(20) ** 2, rel=1e-12)


def test_sample_file_round_trip(tmp_path):
    d = build_regular(20, A_N)
    y = np.sin(np.arange(d.size, dtype=float))
    path = tmp_path / "sample.csv"
    save_sample(RegressionSample(design=d, responses=y), path)
    back = load_sample(path, d)
    assert np.array_equal(back.responses, y)
    assert np.array_equal(back.design.points, d.points)


def test_load_rejects_malformed_files(tmp_path):
    d = build_regular(3, A_N)
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="two-column"):
        load_sample(path, d)
    path.write_text("w,Y\n0.0,1.0\n")
    with pytest.raises(ValueError, match="rows for a design of size"):
        load_sample(path, d)
    rows = "\n".join(f"{w + 0.001:.6f},1.0" for w in d.points)
    path.write_text("w,Y\n" + rows + "\n")
    with pytest.raises(ValueError, match="deviate from the configured design"):
        load_sample(path, d)
