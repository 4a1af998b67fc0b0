"""Band assembly: grids, quantiles, multiplier draws, and the split path."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import berkson_bands.bands as bands_mod
from berkson_bands import (
    BandRequest,
    Design,
    NoError,
    RegressionSample,
    SCENARIOS,
    build_band,
    build_band_extension,
    build_regular,
    build_split,
    estimate_nu,
    g_a,
    generate_sample,
    make_eval_grid,
    quantile,
    write_band,
)
from berkson_bands.design import default_b_n

from conftest import A_N, LAP01, MIX, TAPER_S, TAPER_W, table_for

# reference-scale builds sit below the asymptotic-regime threshold by design
pytestmark = pytest.mark.filterwarnings("ignore:n a_n h")

REQ = BandRequest(interval=(-0.7, 0.6), h=0.25, alpha=0.05, draws=250, seed=42)
MIX_REQ = BandRequest(interval=(-0.7, 0.6), h=0.59, alpha=0.05, draws=150, seed=2)


@pytest.fixture(scope="module")
def s200():
    d = build_regular(200, A_N)
    rng = np.random.default_rng(3)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    return RegressionSample(design=d, responses=y)


@pytest.fixture(scope="module")
def mix100():
    d100 = build_regular(100, A_N)
    rng = np.random.default_rng(8)
    y = g_a(d100.points + MIX.sample(rng, d100.size)) \
        + 0.1 * rng.standard_normal(d100.size)
    return RegressionSample(design=d100, responses=y)


def split_reference(sample, req, b_n=None, nu_curve=None):
    """(qhat, ghat, half-width) of the split band, written out directly.

    ghat sums the kept points with their gap weights; the process sums
    the kept points with |j| <= n b_n, weighted by gap * nu, over their
    own multipliers, and is divided by nu on the grid.
    """
    d, h, beta = sample.design, req.h, MIX.beta
    n = d.n
    sd = build_split(d, None)
    if b_n is None:
        b_n = default_b_n(n, A_N)
    if nu_curve is None:
        nu_curve = estimate_nu(sample, interval=req.interval, mask=sd.removed + n)
    tab = table_for(d, h, MIX, TAPER_W)
    grid = make_eval_grid(req.interval, n, A_N, h).points
    ghat = tab((sd.kept_positions[None, :] - grid[:, None]) / h) @ (
        sd.gap_weights * sample.responses[sd.kept + n]) / h
    sel = np.abs(sd.kept) <= int(n * b_n)
    pts = sd.kept_positions[sel]
    km = tab((pts[None, :] - grid[:, None]) / h)
    nu_g = nu_curve(grid)
    pref = math.sqrt(n * A_N * h ** (1.0 + 2.0 * beta)) / h
    # the engine's stream: row i is draw i, column j is design point j
    z = np.random.default_rng(req.seed).standard_normal((req.draws, d.size))
    z = z[:, sd.kept[sel] + n]
    proc = pref * (z @ (km * (sd.gap_weights[sel] * nu_curve(pts))).T) / nu_g
    q = quantile(np.max(np.abs(proc), axis=1), 1.0 - req.alpha)
    half = q * nu_g / (math.sqrt(n * A_N) * h ** (0.5 + beta))
    return q, ghat, half


def assert_close(got, want, rel=1e-10):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


def test_eval_grid_meets_density_bound():
    eg = make_eval_grid((0.0, 1.0), 100, A_N, 0.25)
    assert eg.spacing <= math.sqrt(0.25) / (100 * math.sqrt(A_N))
    assert len(eg.points) >= 164
    assert eg.points[0] == 0.0 and eg.points[-1] == 1.0
    finer = make_eval_grid((0.0, 1.0), 200, A_N, 0.25)
    assert 0.49 <= finer.spacing / eg.spacing <= 0.51


def test_eval_grid_range_and_degeneracy():
    with pytest.raises(ValueError, match="exceeds the identifiable range"):
        make_eval_grid((-0.7, 0.6), 100, A_N, 0.85)
    eg = make_eval_grid((0.2, 0.2), 100, A_N, 0.25)
    assert eg.points.tolist() == [0.2]
    assert eg.spacing == 0.0


def test_quantile_is_ceil_order_statistic():
    v = np.arange(1, 101) / 100.0
    assert quantile(v, 0.95) == 0.95
    assert quantile(v, 1.0) == 1.0
    assert quantile(v, 0.004) == 0.01
    with pytest.raises(ValueError, match="level must be in"):
        quantile(v, 0.0)
    with pytest.raises(ValueError, match="at least one supremum draw"):
        quantile(np.array([]), 0.5)


def plain_core(d, h, grid):
    """Unstudentized process h^beta/sqrt(n a_n h) sum_j Z_j K((w_j-x)/h)."""
    tab = table_for(d, h, LAP01, TAPER_S)
    core_t = tab((d.points[:, None] - grid[None, :]) / h)
    return core_t, h**LAP01.beta / math.sqrt(d.n * A_N * h)


def test_sup_draws_scale_exactly_with_coef():
    d = build_regular(200, A_N)
    grid = np.array([0.0, 0.3])
    core_t, coef = plain_core(d, 0.25, grid)
    ones = np.ones(len(grid))
    base = bands_mod._sup_batch(core_t, ones, coef, 50, 1)
    assert np.all(base > 0.0)
    # powers of two scale without rounding
    for c in (0.0, 0.5, -2.0, 4.0):
        scaled = bands_mod._sup_batch(core_t, ones, c * coef, 50, 1)
        assert np.array_equal(scaled, abs(c) * base)


def test_quantile_stabilizes_in_draw_count():
    d = build_regular(200, A_N)
    grid = make_eval_grid((-0.7, 0.6), 200, A_N, 0.25).points
    core_t, coef = plain_core(d, 0.25, grid)
    sups = bands_mod._sup_batch(core_t, np.ones(len(grid)), coef, 1000, 1234)
    q_small = quantile(sups[:250], 0.95)
    q_large = quantile(sups, 0.95)
    rng = np.random.default_rng(0)
    boot = np.array([
        quantile(rng.choice(sups[:250], size=250, replace=True), 0.95)
        for _ in range(400)
    ])
    assert abs(q_small - q_large) < 2.0 * float(np.std(boot))


def test_neighbouring_seeds_draw_independent_quantiles():
    sc = SCENARIOS["ga_n100_s10"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    req = BandRequest(interval=sc.interval, h=sc.h, draws=sc.draws)
    qs = {build_band(sample, replace(req, seed=s), sc.noise()).quantile
          for s in range(4)}
    assert len(qs) == 4


def test_band_is_insensitive_to_grid_refinement(s200):
    one = build_band(s200, REQ, LAP01)
    four = build_band(s200, REQ, LAP01, grid_refine=4)
    assert abs(four.quantile / one.quantile - 1.0) < 0.02


def test_band_determinism_symmetry_and_nesting(s200):
    one = build_band(s200, REQ, LAP01)
    two = build_band(s200, REQ, LAP01)
    assert np.array_equal(one.lower, two.lower)
    assert np.array_equal(one.upper, two.upper)
    assert one.quantile == two.quantile
    assert np.array_equal(one.lower, one.ghat - one.half_width)
    assert np.array_equal(one.upper, one.ghat + one.half_width)
    assert np.all(one.half_width > 0.0)
    loose = build_band(s200, BandRequest(interval=(-0.7, 0.6), h=0.25,
                                         alpha=0.10, draws=250, seed=42), LAP01)
    tight = build_band(s200, BandRequest(interval=(-0.7, 0.6), h=0.25,
                                         alpha=0.01, draws=250, seed=42), LAP01)
    assert np.all(loose.lower >= tight.lower)
    assert np.all(loose.upper <= tight.upper)


def test_band_result_fields_and_writer(s200, tmp_path):
    res = build_band(s200, REQ, LAP01)
    assert (res.h, res.alpha, res.draws, res.seed) == (0.25, 0.05, 250, 42)
    assert res.mean_width == pytest.approx(float(np.mean(res.upper - res.lower)))
    assert res.covers(res.ghat)
    assert not res.covers(res.upper + 1.0)
    csv_path = tmp_path / "band.csv"
    write_band(res, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,ghat,nuhat,lower,upper"
    assert len(lines) == 1 + len(res.grid)
    back = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 0], res.grid, rtol=0, atol=1e-9)
    assert np.allclose(back[:, 3], res.lower, rtol=1e-9, atol=1e-12)
    meta = json.loads((tmp_path / "band.json").read_text())
    assert meta == {"quantile": res.quantile, "h": 0.25, "alpha": 0.05,
                    "M": 250, "seed": 42, "spacing": res.spacing}


@pytest.mark.filterwarnings("ignore:constant responses")
def test_split_band_reconstruction_on_constant_responses():
    d100 = build_regular(100, A_N)
    s_const = RegressionSample(design=d100, responses=np.full(d100.size, 3.0))
    req = BandRequest(interval=(-0.7, 0.6), h=0.32, alpha=0.05, draws=150, seed=11)
    res = build_band_extension(s_const, req, MIX)

    q, ghat, _ = split_reference(s_const, req)
    assert res.quantile == pytest.approx(q, rel=1e-10)
    assert np.max(np.abs(ghat - res.ghat)) < 1e-12

    def unit(x):
        return np.ones_like(np.atleast_1d(np.asarray(x, dtype=float)))

    # studentization cancels any constant variance curve
    q_unit, _, _ = split_reference(s_const, req, nu_curve=unit)
    assert q_unit == pytest.approx(res.quantile, rel=1e-10)
    assert np.ptp(res.nuhat) == 0.0
    assert res.nuhat[0] == pytest.approx(1e-8, rel=1e-9)


@pytest.mark.parametrize("b_n", [None, 0.5])
def test_split_band_matches_reference_formula(mix100, b_n):
    res = build_band_extension(mix100, MIX_REQ, MIX, b_n=b_n)
    q, ghat, half = split_reference(mix100, MIX_REQ, b_n=b_n)
    assert res.quantile == pytest.approx(q, rel=1e-10)
    assert_close(res.ghat, ghat)
    assert_close(res.half_width, half)


@pytest.mark.parametrize("split", [False, True])
def test_band_is_scale_equivariant(mix100, split):
    build = build_band_extension if split else build_band
    base = build(mix100, MIX_REQ, MIX)
    for c in (-2.0, 0.5, 3.0):
        scaled = RegressionSample(design=mix100.design,
                                  responses=c * mix100.responses)
        res = build(scaled, MIX_REQ, MIX)
        assert res.quantile == pytest.approx(base.quantile, rel=1e-10)
        assert_close(res.ghat, c * base.ghat)
        assert_close(res.half_width, abs(c) * base.half_width)


def test_split_band_is_deterministic(mix100):
    split_one = build_band_extension(mix100, MIX_REQ, MIX)
    split_two = build_band_extension(mix100, MIX_REQ, MIX)
    assert np.array_equal(split_one.lower, split_two.lower)
    assert np.array_equal(split_one.lower, split_one.ghat - split_one.half_width)
    assert np.all(split_one.half_width > 0.0)


def test_extension_requires_oscillating_law(s200):
    with pytest.raises(ValueError, match="oscillating error law"):
        build_band_extension(s200, REQ, LAP01)


def test_workspace_cache_separates_designs_by_weights():
    d = build_regular(100, A_N)
    reweighted = Design(n=d.n, a_n=d.a_n, points=d.points,
                        weights=d.weights * np.linspace(0.5, 1.5, d.size))
    rng = np.random.default_rng(5)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    build_band(RegressionSample(design=d, responses=y), REQ, LAP01)
    sample = RegressionSample(design=reweighted, responses=y)
    warm = build_band(sample, REQ, LAP01)
    bands_mod._WS_CACHE.clear()
    cold = build_band(sample, REQ, LAP01)
    assert np.array_equal(warm.nuhat, cold.nuhat)
    assert warm.quantile == cold.quantile


@pytest.mark.parametrize("noise,level", [(LAP01, 0.0), (NoError(), 3.0)],
                         ids=["laplace", "no_error"])
def test_constant_responses_give_a_finite_band(noise, level):
    d = build_regular(100, A_N)
    sample = RegressionSample(design=d, responses=np.full(d.size, level))
    res = build_band(sample, REQ, noise)
    assert math.isfinite(res.quantile) and res.quantile > 0.0
    assert res.nuhat == pytest.approx(np.full(len(res.grid), 1e-8), rel=1e-12)
    assert np.all(np.isfinite(res.lower)) and np.all(np.isfinite(res.upper))
    assert np.all(res.half_width > 0.0)


def test_small_sample_bandwidth_triggers_regime_warning(s200):
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        build_band(s200, REQ, LAP01)
    assert [w.category for w in rec] == [UserWarning]
    assert "asymptotic regime" in str(rec[0].message)


def test_band_rejects_interval_outside_identifiable_range(s200):
    bad = BandRequest(interval=(-0.7, 0.6), h=0.85, draws=120, seed=0)
    with pytest.raises(ValueError, match="exceeds the identifiable range"):
        build_band(s200, bad, LAP01)


def test_request_validation_and_low_draw_warning():
    with pytest.raises(ValueError, match="invalid interval"):
        BandRequest(interval=(0.5, -0.5), h=0.2)
    with pytest.raises(ValueError, match="alpha must be in"):
        BandRequest(interval=(-0.5, 0.5), h=0.2, alpha=1.5)
    for h in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            BandRequest(interval=(-0.5, 0.5), h=h)
    with pytest.raises(ValueError, match="at least one draw"):
        BandRequest(interval=(-0.5, 0.5), h=0.2, draws=0)
    for draws in (2.5, True):
        with pytest.raises(ValueError, match="draws must be an integer"):
            BandRequest(interval=(-0.5, 0.5), h=0.2, draws=draws)
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed must be a non-negative"):
            BandRequest(interval=(-0.5, 0.5), h=0.2, seed=seed)
    with pytest.warns(UserWarning, match="quantiles will be"):
        BandRequest(interval=(-0.5, 0.5), h=0.2, draws=50)
