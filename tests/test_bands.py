"""Band assembly: grids, quantiles, multiplier draws, and the split path."""
from __future__ import annotations

import contextlib
import json
import math
import re
import tracemalloc
import warnings
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline

import berkson_bands.bands as bands_mod
from berkson_bands import (
    BandRequest,
    NoError,
    RegressionSample,
    SCENARIOS,
    Scenario,
    build_band,
    build_band_extension,
    build_regular,
    build_split,
    estimate_nu,
    g_a,
    generate_sample,
    make_eval_grid,
    make_noise,
    quantile,
    undersmooth,
    write_band,
)
from berkson_bands.deconv_kernel import SpectralKernel, spectral_kernels
from berkson_bands.design import default_b_n, identifiable_range

from conftest import A_N, LAP01, MIX, TAPER_S, TAPER_W, operator_for
from dense_band import dense_band, design_normals

REQ = BandRequest(interval=(-0.7, 0.6), h=0.25, alpha=0.05, draws=250, seed=42)
MIX_REQ = BandRequest(interval=(-0.7, 0.6), h=0.59, alpha=0.05, draws=150, seed=2)
# error laws far narrower than the design step
NARROW = make_noise("laplace", sigma_delta=1e-4)
NARROW_MIX = make_noise("mixture", sigma_delta=1e-4, lam=0.2, mu=0.3)


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
    grid = make_eval_grid(req.interval, n, A_N, h).points
    op = operator_for(d, h, MIX, TAPER_W)
    kept = d.points[sd.kept + n]
    ghat = op.exact_matrix(grid, kept) @ (
        sd.gap_weights * sample.responses[sd.kept + n]) / h
    sel = np.abs(sd.kept) <= int(n * b_n)
    pts = kept[sel]
    km = op.exact_matrix(grid, pts)
    nu_g = nu_curve(grid)
    pref = math.sqrt(n * A_N * h ** (1.0 + 2.0 * beta)) / h
    # the engine draws in the coordinates of its kernel basis, turned as
    # build_band_extension turns it; every other point has zero weight
    (wide,) = spectral_kernels([h], MIX, TAPER_W, d.reach(req.interval))
    basis = bands_mod._oriented(*wide.factors(d.points, grid))[0]
    mult = np.zeros(d.size)
    mult[sd.kept[sel] + n] = sd.gap_weights[sel] * nu_curve(pts)
    z = design_normals(basis, mult, req.draws, req.seed)[:, sd.kept[sel] + n]
    proc = pref * (z @ (km * (sd.gap_weights[sel] * nu_curve(pts))).T) / nu_g
    q = quantile(np.max(np.abs(proc), axis=1), 1.0 - req.alpha)
    half = q * nu_g / (math.sqrt(n * A_N) * h ** (0.5 + beta))
    return q, ghat, half


def clear_caches():
    """Forget every workspace and draw geometry, so the next band is cold."""
    bands_mod._workspace.cache_clear()
    bands_mod._draw_geometry.cache_clear()


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
    with pytest.raises(ValueError, match="invalid interval"):
        make_eval_grid((0.5, -0.5), 100, A_N, 0.25)
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
    """Factors and coefficient of the unstudentized process
    h^beta/sqrt(n a_n h) sum_j Z_j K((w_j-x)/h)."""
    (kernel,) = spectral_kernels([h], LAP01, TAPER_S, d.reach((grid[0], grid[-1])))
    basis, (kg,) = kernel.factors(d.points, grid)
    return basis, kg.T, h**LAP01.beta / math.sqrt(d.n * A_N * h)


def test_sup_draws_scale_exactly_with_coef():
    d = build_regular(200, A_N)
    grid = np.array([0.0, 0.3])
    core_t, grid_t, coef = plain_core(d, 0.25, grid)
    ones = np.ones(len(grid))
    base = bands_mod._sup_batch(core_t, grid_t, ones, coef, 50, 1)
    assert np.all(base > 0.0)
    # powers of two scale without rounding
    for c in (0.0, 0.5, -2.0, 4.0):
        scaled = bands_mod._sup_batch(core_t, grid_t, ones, c * coef, 50, 1)
        assert np.array_equal(scaled, abs(c) * base)


def test_quantile_stabilizes_in_draw_count():
    d = build_regular(200, A_N)
    grid = make_eval_grid((-0.7, 0.6), 200, A_N, 0.25).points
    core_t, grid_t, coef = plain_core(d, 0.25, grid)
    sups = bands_mod._sup_batch(core_t, grid_t, np.ones(len(grid)), coef, 1000,
                                1234)
    q_small = quantile(sups[:250], 0.95)
    q_large = quantile(sups, 0.95)
    rng = np.random.default_rng(0)
    boot = np.array([
        quantile(rng.choice(sups[:250], size=250, replace=True), 0.95)
        for _ in range(400)
    ])
    assert abs(q_small - q_large) < 2.0 * float(np.std(boot))


def sup_batch_calls(build, *args):
    """build(*args), and the (arguments, sups) of each _sup_batch call it
    makes."""
    calls = []
    engine = bands_mod._sup_batch

    def spy(*engine_args):
        calls.append((engine_args, engine(*engine_args)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bands_mod, "_sup_batch", spy)
        result = build(*args)
    return result, calls


@pytest.mark.parametrize("split", [False, True])
def test_draw_factor_has_the_law_of_the_design_process(mix100, split):
    build = build_band_extension if split else build_band
    _, [(args, _)] = sup_batch_calls(build, mix100, MIX_REQ, MIX)
    core_t = args[0]
    # the split band's points outside the process have zero rows
    assert np.any(np.all(core_t == 0.0, axis=1)) == split
    r = bands_mod._draw_factor(core_t)
    assert r.shape == (core_t.shape[1],) * 2
    assert np.array_equal(r, np.triu(r)) and np.all(np.diagonal(r) >= 0.0)
    gram = core_t.T @ core_t
    assert np.max(np.abs(r.T @ r - gram)) <= 1e-12 * np.max(np.abs(gram))


def householder_factor(core_t):
    """R of the thin Householder QR of core_t, each row signed so that
    R's diagonal is non-negative."""
    r = np.linalg.qr(core_t, mode="r")
    return r * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]


def draw_factor_route(core_t):
    """(_draw_factor(core_t), whether it called the Householder QR)."""
    calls = []
    qr = np.linalg.qr

    def spy(*args, **kwargs):
        calls.append(args)
        return qr(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.linalg, "qr", spy)
        r = bands_mod._draw_factor(core_t)
    return r, bool(calls)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_draw_factor_of_a_plain_core_is_the_householder_factor(name):
    sc = SCENARIOS[name]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    _, [(args, _)] = sup_batch_calls(build_band, sample, sc.request(1), sc.noise())
    core_t = args[0]
    r, householder = draw_factor_route(core_t)
    assert not householder  # a band's plain core is well conditioned
    ref = householder_factor(core_t)
    assert np.max(np.abs(r - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_draw_geometry_reads_the_exact_kernel_sum(name):
    # the range finder's rank cut may drop only rounding-level directions
    # of K's grid factor: ghat through the factors is the node-rule sum
    sc = SCENARIOS[name]
    noise = sc.noise()
    spec = bands_mod.default_taper(noise)
    design = build_regular(sc.n, sc.a_n)
    eg, basis, kg = bands_mod._draw_geometry(design, noise, spec, sc.h, sc.interval)
    (kernel,) = spectral_kernels([sc.h], noise, spec, design.reach(sc.interval))
    dense = kernel.exact_matrix(eg.points, design.points)
    for seed in (1, 2, 3):
        sample = generate_sample(sc, np.random.SeedSequence((sc.seed, seed, 0)))
        cy = design.weights * sample.responses
        got, want = kg @ (basis.T @ cy), dense @ cy
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def sups_of(r, grid_t, nu_g, coef, draws, seed):
    """The sups _sup_batch draws from the factor r."""
    z = np.random.default_rng(seed).standard_normal((draws, r.shape[0]))
    return np.max(np.abs((z @ r) @ (grid_t * (abs(coef) / nu_g))), axis=1)


def split_call(sample, b_n):
    """(arguments, sups) of the one _sup_batch call of the split band of
    ``sample`` at b_n."""
    _, [call] = sup_batch_calls(partial(build_band_extension, b_n=b_n),
                                sample, MIX_REQ, MIX)
    return call


def test_draw_factor_of_an_ill_conditioned_core_is_householder(mix100):
    # split-band processes that barely reach some basis directions
    for b_n in (0.2, 0.1):
        core_t = split_call(mix100, b_n)[0][0]
        r, householder = draw_factor_route(core_t)
        assert householder, b_n
        assert np.array_equal(r, householder_factor(core_t)), b_n
    # where the Cholesky of an ill-conditioned Gram matrix succeeds, the
    # turned frame keeps its rounding out of the draws
    d = build_regular(200, A_N)
    grid = make_eval_grid((-0.7, 0.6), 200, A_N, 0.25).points
    basis, grid_t, coef = plain_core(d, 0.25, grid)
    basis, (kg,) = bands_mod._oriented(basis, [grid_t.T])
    cases = {
        "split b_n=0.5": split_call(mix100, 0.5)[0],
        "multipliers 1e-4..1": (basis * np.geomspace(1e-4, 1.0, d.size)[:, None],
                                kg.T, np.ones(grid.size), coef, 200, 5),
    }
    for label, (core_t, *rest) in cases.items():
        r, householder = draw_factor_route(core_t)
        assert not householder, label
        assert_close(sups_of(r, *rest), sups_of(householder_factor(core_t), *rest),
                     1e-12)


def test_split_sups_are_stable_under_a_rounding_perturbation(mix100):
    # 1e-13 relative changes of the process weights move the sups by as
    # little, however far the truncation leaves basis directions unreached
    rng = np.random.default_rng(0)
    for b_n in (0.5, 0.2, 0.1):
        (core_t, *rest), sups = split_call(mix100, b_n)
        for _ in range(3):
            bend = 1.0 + 1e-13 * rng.uniform(-1.0, 1.0, core_t.shape[0])
            assert_close(bands_mod._sup_batch(core_t * bend[:, None], *rest), sups,
                         1e-11)


@pytest.mark.parametrize("split", [False, True])
def test_sup_batch_takes_the_largest_absolute_value(mix100, split):
    build = build_band_extension if split else build_band
    _, [(args, sups)] = sup_batch_calls(build, mix100, MIX_REQ, MIX)
    core_t, *rest = args
    assert np.array_equal(sups, sups_of(bands_mod._draw_factor(core_t), *rest))


@settings(derandomize=True, max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_turned_basis_depends_on_the_span_alone(seed):
    # directions below rounding cannot be pinned column by column; the
    # factor product and the draws can
    d = build_regular(200, A_N)
    grid = make_eval_grid((-0.7, 0.6), 200, A_N, 0.25).points
    basis, grid_t, coef = plain_core(d, 0.25, grid)
    rng = np.random.default_rng(seed)
    turn = np.linalg.qr(rng.standard_normal((basis.shape[1],) * 2))[0]
    mult = rng.uniform(0.5, 1.5, d.size)
    sups = []
    for b, kg in ((basis, grid_t.T), (basis @ turn, grid_t.T @ turn)):
        b, (kg,) = bands_mod._oriented(b, [kg])
        assert_close(kg @ b.T, grid_t.T @ basis.T)
        sups.append(bands_mod._sup_batch(b * mult[:, None], kg.T,
                                         np.ones(grid.size), coef, 200, seed))
    assert_close(sups[1], sups[0], 1e-12)


@contextlib.contextmanager
def record_normals(shapes):
    """A context in which every generator's standard_normal call appends its
    size to ``shapes``."""
    default_rng = np.random.default_rng

    class Recorder:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, size):
            shapes.append(size)
            return self.rng.standard_normal(size)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np.random, "default_rng", Recorder)
        yield


def test_warm_band_draws_rank_normals():
    sc = SCENARIOS["gb_n750_s05"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    build_band(sample, sc.request(1), sc.noise())
    shapes = []
    with record_normals(shapes):
        build_band(sample, sc.request(2), sc.noise())
    noise = sc.noise()
    spec = bands_mod.default_taper(noise)
    rank = bands_mod._draw_geometry(sample.design, noise, spec, sc.h,
                                    sc.interval)[1].shape[1]
    assert rank < sample.design.size / 10
    assert shapes == [(sc.draws, rank)]


def test_split_band_reuses_the_plain_band_draw_geometry():
    # the plain band draws in the rank of K's grid factor alone, and the
    # split band on the same design, law, taper, h and interval factors
    # no kernel of its own
    sc = SCENARIOS["mix_ga_n100"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 1, 0)))
    noise, request = sc.noise(), sc.request(1)
    build_band(sample, request, noise)
    shapes = []
    with record_normals(shapes):
        build_band(sample, request, noise)  # warm: the range finder draws none
    calls = []
    factors = SpectralKernel.factors
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(SpectralKernel, "factors",
                   lambda op, *args: calls.append(op) or factors(op, *args))
        build_band_extension(sample, request, noise)
    assert calls == []
    grid = make_eval_grid(sc.interval, sc.n, sc.a_n, sc.h).points
    (kernel,) = spectral_kernels([sc.h], noise, bands_mod.default_taper(noise),
                                 sample.design.reach(sc.interval))
    rank = kernel.factors(sample.design.points, grid)[0].shape[1]
    assert shapes == [(sc.draws, rank)]


def test_neighbouring_seeds_draw_independent_quantiles():
    sc = SCENARIOS["ga_n100_s10"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    req = BandRequest(interval=sc.interval, h=sc.h, draws=sc.draws)
    qs = {build_band(sample, replace(req, seed=s), sc.noise()).quantile
          for s in range(4)}
    assert len(qs) == 4


def test_band_is_insensitive_to_grid_refinement(s200):
    # the finer grid's range finder finds K's basis in another orientation
    def quarter_grid(interval, n, a_n, h):
        a, b = interval
        m = math.ceil((b - a) / (math.sqrt(h) / (n * math.sqrt(a_n) * 4)))
        return bands_mod.EvalGrid(points=np.linspace(a, b, m + 1),
                                  spacing=(b - a) / m)

    seeds = (REQ.seed, *range(10))
    ones = [build_band(s200, replace(REQ, seed=seed), LAP01) for seed in seeds]
    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bands_mod, "make_eval_grid", quarter_grid)
            fours = [build_band(s200, replace(REQ, seed=seed), LAP01)
                     for seed in seeds]
    finally:
        clear_caches()
    for seed, one, four in zip(seeds, ones, fours):
        assert four.grid.size > 3 * one.grid.size
        assert abs(four.quantile / one.quantile - 1.0) < 0.02, seed


@settings(derandomize=True, max_examples=8, deadline=None)
@example(alphas=(0.10, 0.01))
@given(alphas=st.tuples(st.floats(0.001, 0.999), st.floats(0.001, 0.999)))
def test_band_determinism_symmetry_and_nesting(s200, alphas):
    one = build_band(s200, REQ, LAP01)
    two = build_band(s200, REQ, LAP01)
    assert np.array_equal(one.lower, two.lower)
    assert np.array_equal(one.upper, two.upper)
    assert one.quantile == two.quantile
    assert np.array_equal(one.lower, one.ghat - one.half_width)
    assert np.array_equal(one.upper, one.ghat + one.half_width)
    assert np.all(one.half_width > 0.0)
    tight_alpha, loose_alpha = sorted(alphas)
    loose = build_band(s200, replace(REQ, alpha=loose_alpha), LAP01)
    tight = build_band(s200, replace(REQ, alpha=tight_alpha), LAP01)
    assert np.all(loose.lower >= tight.lower)
    assert np.all(loose.upper <= tight.upper)


def test_band_result_fields_and_writer(s200, tmp_path):
    res = build_band(s200, REQ, LAP01)
    assert (res.h, res.alpha, res.draws, res.seed) == (0.25, 0.05, 250, 42)
    assert res.mean_width == pytest.approx(float(np.mean(res.upper - res.lower)))
    assert res.covers(res.ghat)
    assert not res.covers(res.upper + 1.0)
    csv_path = tmp_path / "band.csv"
    returned = write_band(res, csv_path)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,ghat,nuhat,lower,upper"
    assert len(lines) == 1 + len(res.grid)
    back = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.allclose(back[:, 0], res.grid, rtol=0, atol=1e-9)
    assert np.allclose(back[:, 3], res.lower, rtol=1e-9, atol=1e-12)
    meta = json.loads((tmp_path / "band.json").read_text())
    assert meta == {"quantile": res.quantile, "h": 0.25, "alpha": 0.05,
                    "M": 250, "seed": 42, "spacing": res.spacing}
    assert returned == meta
    # a CSV path ending in .json is its own sidecar path
    with pytest.raises(ValueError, match="sidecar would overwrite"):
        write_band(res, tmp_path / "other.json")
    assert not (tmp_path / "other.json").exists()


def test_editing_a_band_cannot_change_a_later_band():
    sc = SCENARIOS["ga_n100_s10"]
    sample = generate_sample(sc, np.random.SeedSequence(1))
    first = build_band(sample, sc.request(1), sc.noise())
    ghat = first.ghat.copy()
    # the second band reads the first one's cached workspace
    first.grid[:] += 0.05
    first.ghat[:] = 0.0
    again = build_band(sample, sc.request(1), sc.noise())
    assert again.grid[0] == sc.interval[0]
    assert np.array_equal(again.grid + 0.05, first.grid)
    assert np.array_equal(again.ghat, ghat)


def test_split_band_reconstruction_on_constant_responses():
    d100 = build_regular(100, A_N)
    s_const = RegressionSample(design=d100, responses=np.full(d100.size, 3.0))
    req = BandRequest(interval=(-0.7, 0.6), h=0.32, alpha=0.05, draws=150, seed=11)
    with pytest.warns(RuntimeWarning, match="constant responses") as caught:
        res = build_band_extension(s_const, req, MIX)
        q, ghat, _ = split_reference(s_const, req)
    # both warnings point at their callers in this file, not into the package
    assert [w.filename for w in caught] == [__file__, __file__]
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
@settings(derandomize=True, max_examples=6, deadline=None)
@example(c=-2.0, seed=MIX_REQ.seed)
@example(c=0.5, seed=MIX_REQ.seed)
@example(c=3.0, seed=MIX_REQ.seed)
@given(c=st.one_of(st.floats(-100.0, -0.01), st.floats(0.01, 100.0)),
       seed=st.integers(0, 2**64 - 1))
def test_band_is_scale_equivariant(mix100, split, c, seed):
    build = build_band_extension if split else build_band
    req = replace(MIX_REQ, seed=seed)
    base = build(mix100, req, MIX)
    scaled = RegressionSample(design=mix100.design,
                              responses=c * mix100.responses)
    res = build(scaled, req, MIX)
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


@pytest.mark.parametrize("b_n", [0.0, -1.0, math.nan, math.inf])
def test_split_band_rejects_b_n_without_a_process_point(mix100, b_n):
    # n = 100 with the default d_n = 25 removes j = 0, so b_n = 0 keeps none
    with pytest.raises(ValueError, match="b_n must be finite"):
        build_band_extension(mix100, MIX_REQ, MIX, b_n=b_n)


def test_split_band_rejects_a_non_integer_d_n(mix100):
    with pytest.raises(ValueError, match="d_n must be an integer, got 8.0"):
        build_split(mix100.design, 8.0)
    with pytest.raises(ValueError, match="d_n must be an integer, got 8.0"):
        build_band_extension(mix100, MIX_REQ, MIX, d_n=8.0)


@pytest.mark.parametrize("knots", ["uniform", "random"])
def test_spline_coefficients_match_cubic_spline(knots):
    rng = np.random.default_rng(4)
    if knots == "uniform":
        x = np.linspace(-1.3, 0.9, 900)
    else:
        x = np.sort(rng.uniform(-1.3, 0.9, 60))
    y = rng.standard_normal((x.size, 5))
    at = np.concatenate((x, rng.uniform(x[0], x[-1], 2000))).reshape(-1, 2)
    want = CubicSpline(x, y)(at)
    got = bands_mod._spline_read(x, bands_mod._spline_coefficients(x, y), at)
    for k in range(y.shape[1]):
        assert_close(got[..., k], want[..., k], rel=1e-13)


def old_delta_grid(noise):
    """The fixed 641-point (Laplace) or 801-point (mixture) error grid the
    lattice rule replaced: (reach, step)."""
    if noise.smoothness_class == "W":
        reach = noise.mu + 16.0 / noise.a
        return reach, 2.0 * reach / 800
    reach = 16.0 / noise.a
    return reach, 2.0 * reach / 640


def lattice_step(design, delta):
    """L, the design step over the node step."""
    return round(1.0 / (design.n * design.a_n) / (delta[1] - delta[0]))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_delta_grid_sits_on_the_design_lattice(name):
    sc = SCENARIOS[name]
    design, noise = build_regular(sc.n, sc.a_n), sc.noise()
    delta, _, stride = bands_mod._error_lattice(noise, design)
    half, tau, dw = delta.size // 2, delta[1] - delta[0], 1.0 / (sc.n * sc.a_n)
    assert np.allclose(np.diff(delta), tau, rtol=1e-12, atol=0.0)
    assert np.array_equal(delta, -delta[::-1]) and delta[half] == 0.0
    assert dw / tau == pytest.approx(stride, rel=1e-12)
    reach, step = old_delta_grid(noise)
    assert tau <= step and delta[-1] >= reach * (1.0 - 1e-12)
    # every preset reads one lattice: design point j at index j L + D
    xe = np.array([-1e9, 1e9])
    points = bands_mod._read_points(design.points, delta, stride, xe)
    assert np.allclose(np.diff(points), tau, rtol=1e-9, atol=0.0)
    j = np.arange(design.size)
    assert_close(points[j * stride + half], design.points, rel=1e-14)
    reads = np.add.outer(design.points, delta)
    assert_close(points[np.add.outer(j * stride, np.arange(delta.size))], reads,
                 rel=1e-14)
    assert bands_mod._error_lattice(NoError(), design) is None


@pytest.mark.parametrize("blocks", [False, True])
@pytest.mark.parametrize("noise,n", [(LAP01, 750), (LAP01, 100), (MIX, 750),
                                     (MIX, 100), (NARROW, 750), (NARROW, 100)])
def test_lattice_moments_match_a_direct_read(noise, n, blocks):
    design = build_regular(n, A_N)
    lo, hi = identifiable_range(A_N, bands_mod._CLAMP_FACTOR * 0.25)
    xe = np.linspace(lo, hi, bands_mod._XE_POINTS)
    lattice = bands_mod._error_lattice(noise, design)
    delta, fwt, stride = lattice
    lstep = lattice_step(design, delta)
    assert lstep == {(LAP01, 750): 1, (LAP01, 100): 5, (MIX, 750): 1,
                     (MIX, 100): 7, (NARROW, 750): 566,
                     (NARROW, 100): 4243}[noise, n]
    # a lattice while neighbours share most nodes, else one window each
    assert stride == (lstep if 2 * lstep < delta.size else delta.size)
    assert bands_mod._read_points(design.points, delta, stride, xe).size \
        <= design.size * delta.size
    # the trapezoid weights times the normalized error density
    fw, step = noise.density(delta), np.diff(delta)
    want = fw * 0.5 * (np.append(step, 0.0) + np.insert(step, 0, 0.0))
    assert_close(fwt, want / np.trapezoid(fw, delta), rel=1e-13)
    coef = bands_mod._spline_coefficients(
        xe, np.random.default_rng(n).standard_normal((xe.size, 2)))
    with pytest.MonkeyPatch.context() as mp:
        if blocks:  # blocks of 7 design rows (14 for one column)
            mp.setattr(bands_mod, "_READ_ELEMS", 7 * stride * 2)
        got = bands_mod._error_moments(xe, coef, design.points, lattice)
        squares = bands_mod._error_moments(xe, coef[..., :1], design.points,
                                           lattice, square=True)
    # every (j, d) read on its own, through the cell gather
    reads = np.add.outer(design.points, delta)
    assert np.any(reads < lo) and np.any(reads > hi)
    direct = bands_mod._spline_read(xe, coef, np.clip(reads, lo, hi))
    for k in range(coef.shape[-1]):
        assert_close(got[:, k], direct[..., k] @ fwt, rel=1e-12)
    assert_close(squares[:, 0], got[:, 0], rel=1e-14)
    assert_close(squares[:, 1], direct[..., 0] ** 2 @ fwt, rel=1e-12)


def test_workspace_cache_keys_designs_by_value():
    d = build_regular(100, A_N)
    rng = np.random.default_rng(5)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    twin = build_regular(100, A_N)
    assert d == twin and hash(d) == hash(twin)
    assert d != build_regular(100, 0.5)
    build_band(RegressionSample(design=d, responses=y), REQ, LAP01)
    sample = RegressionSample(design=twin, responses=y)
    warm = build_band(sample, REQ, LAP01)
    bands_mod._workspace.cache_clear()
    cold = build_band(sample, REQ, LAP01)
    assert np.array_equal(warm.nuhat, cold.nuhat)
    assert warm.quantile == cold.quantile
    info = bands_mod._workspace.cache_info()
    assert info.currsize <= info.maxsize == 3


@settings(derandomize=True, max_examples=8, deadline=None)
@given(n=st.integers(20, 80), a_n=st.floats(0.2, 1.0))
def test_equal_designs_share_one_workspace(n, a_n):
    one, two = build_regular(n, a_n), build_regular(n, a_n)
    assert one is not two
    assert one == two and hash(one) == hash(two)
    y = np.random.default_rng(n).standard_normal(one.size)
    req = BandRequest(interval=(-0.5, 0.5), h=0.25, draws=100, seed=n)
    bands_mod._workspace.cache_clear()
    first = build_band(RegressionSample(design=one, responses=y), req, LAP01)
    second = build_band(RegressionSample(design=two, responses=y), req, LAP01)
    info = bands_mod._workspace.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert first.quantile == second.quantile


def test_list_interval_builds_the_same_band(s200):
    listed = replace(REQ, interval=[-0.7, 0.6])
    assert listed.interval == REQ.interval
    got, want = build_band(s200, listed, LAP01), build_band(s200, REQ, LAP01)
    assert np.array_equal(got.lower, want.lower)
    assert np.array_equal(got.upper, want.upper)


def test_too_short_interval_raises_instead_of_a_zero_variance_band():
    sc = SCENARIOS["ga_n100_s10"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    short = BandRequest(interval=(0.09, 0.11), h=sc.h)
    with pytest.raises(ValueError,
                       match=r"interval \[0.09, 0.11\].*empty smoothing window"
                       ) as err:
        build_band(sample, short, sc.noise())
    message = str(err.value)
    assert "h_v" not in message
    length = float(re.search(r"longer than ([0-9.e+-]+)$", message).group(1))
    assert 0.02 < length < 0.04
    half = 0.5 * 1.001 * length
    res = build_band(sample, replace(short, interval=(0.1 - half, 0.1 + half)),
                     sc.noise())
    assert np.all(res.nuhat > 1e-8)


@pytest.mark.parametrize("interval", [(0.09, 0.1), (0.0, 0.3)],
                         ids=["below_spacing", "empty_window"])
def test_split_band_on_a_too_short_interval_names_the_shortest_length(interval):
    # (0.09, 0.1) fails estimate_nu's spacing rule; on (0.0, 0.3) the
    # windows around carried design points far outside it are empty
    sc = SCENARIOS["mix_ga_n100"]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    short = BandRequest(interval=interval, h=0.5)
    with pytest.raises(ValueError, match=r"interval \[.*\] is too short") as err:
        build_band_extension(sample, short, sc.noise())
    length = float(re.search(r"longer than ([0-9.e+-]+)$", str(err.value)).group(1))
    a = interval[0]
    res = build_band_extension(
        sample, replace(short, interval=(a, a + 1.001 * length)), sc.noise())
    assert np.all(res.nuhat > 1e-8)


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


def test_bands_at_small_bandwidths_warn_nothing(s200):
    # a band in the README quick-start's setting, and a split band at the
    # undersmoothed preset h: n a_n h^(1+2 beta) reads 0.13 and 0.0023
    sc = SCENARIOS["mix_ga_n100"]
    sample = generate_sample(sc, np.random.SeedSequence(1))
    request = replace(sc.request(1), h=undersmooth(sc.h, sc.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        build_band(s200, REQ, LAP01)
        build_band_extension(sample, request, sc.noise())


def test_band_rejects_interval_outside_identifiable_range(s200):
    bad = BandRequest(interval=(-0.7, 0.6), h=0.85, draws=120, seed=0)
    with pytest.raises(ValueError, match="exceeds the identifiable range"):
        build_band(s200, bad, LAP01)


def test_band_rejects_a_bandwidth_without_a_pilot_range(s200):
    # (0, 0.1) lies in the identifiable range at h = 1.3, [-0.2, 0.2], but
    # the pilot range at 1.2 h is empty
    too_wide = BandRequest(interval=(0.0, 0.1), h=1.3)
    with pytest.raises(ValueError, match=r"h=1.3 too large for the design span"):
        build_band(s200, too_wide, LAP01)


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
    with pytest.warns(UserWarning, match="quantiles will be") as caught:
        BandRequest(interval=(-0.5, 0.5), h=0.2, draws=50)
        replace(REQ, draws=50)
        Scenario("g_a", 50, 0.1, 0.1, 0.3, draws=50)
    # each warning points at the caller, not at a generated __init__,
    # dataclasses.replace or Scenario.request
    assert [w.filename for w in caught] == [__file__] * 3


GA100 = SCENARIOS["ga_n100_s10"]


def ga100_sample(rep):
    return generate_sample(GA100, np.random.SeedSequence((GA100.seed, rep, 0)))


@settings(derandomize=True, max_examples=12, deadline=None)
@given(rep=st.integers(0, 10_000), seed=st.integers(0, 2**64 - 1),
       alpha=st.floats(0.01, 0.5))
def test_factored_band_matches_the_dense_oracle(rep, seed, alpha):
    sample = ga100_sample(rep)
    req = BandRequest(interval=GA100.interval, h=GA100.h, alpha=alpha,
                      draws=GA100.draws, seed=seed)
    got, [(_, sups)] = sup_batch_calls(build_band, sample, req, GA100.noise())
    want = dense_band(sample, req, GA100.noise())
    assert_close(sups, want["sups"])
    assert got.quantile == pytest.approx(want["quantile"], rel=1e-10)
    for field in ("ghat", "nuhat", "lower", "upper"):
        assert_close(getattr(got, field), want[field])


@settings(derandomize=True, max_examples=4, deadline=None)
@given(rep=st.integers(0, 10_000), seed=st.integers(0, 2**32))
def test_cold_and_warm_workspaces_give_identical_bands(rep, seed):
    sample = ga100_sample(rep)
    req = GA100.request(seed)
    clear_caches()
    cold = build_band(sample, req, GA100.noise())
    warm = build_band(sample, req, GA100.noise())
    assert bands_mod._workspace.cache_info().hits >= 1
    assert cold.quantile == warm.quantile
    for field in ("ghat", "nuhat", "half_width", "lower", "upper"):
        assert np.array_equal(getattr(cold, field), getattr(warm, field))


def test_workspace_holds_no_dense_kernel_matrix():
    sc = SCENARIOS["gb_n750_s05"]
    design = build_regular(sc.n, sc.a_n)
    noise = sc.noise()
    ws = bands_mod._workspace(design, noise, bands_mod.default_taper(noise),
                              sc.h, sc.interval)
    size = design.size
    # no grid, pilot or error-grid axis pairs with a design axis
    grid = bands_mod._draw_geometry(design, noise, bands_mod.default_taper(noise),
                                    sc.h, sc.interval)[0].points
    wide = {grid.size, ws.xe.size,
            bands_mod._error_lattice(noise, design)[0].size}
    arrays = {name: v for name, v in vars(ws).items()
              if isinstance(v, np.ndarray)}
    for name, v in arrays.items():
        if v.ndim == 2:
            a, b = v.shape
            assert not ({a, b} & wide and size in (a, b)), name
            assert (a, b) != (size, size), name
    assert sum(v.nbytes for v in arrays.values()) <= 10e6


@pytest.mark.parametrize("n", [100, 750])
@pytest.mark.parametrize("noise", [LAP01, MIX, NoError()],
                         ids=["laplace", "mixture", "none"])
def test_toeplitz_product_matches_the_dense_squared_kernel(noise, n):
    design = build_regular(n, A_N)
    op = operator_for(design, 0.25, noise, bands_mod.default_taper(noise))
    v = np.random.default_rng(n).uniform(0.5, 2.0, design.size)
    want = (op.exact_matrix(design.points, design.points) ** 2) @ v
    got = bands_mod._toeplitz(
        bands_mod._lag_spectra(op.omega, op.factor[:, None], design)[0], v)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", ["gb_n750_s05", "mix_ga_n750"])
def test_cold_band_traced_peak_stays_small(name):
    """A cold band, workspace included, sketches no design x design
    kernel matrix and reads splines in short blocks (_READ_ELEMS)."""
    sc = SCENARIOS[name]
    sample = generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0)))
    clear_caches()
    tracemalloc.start()
    try:
        build_band(sample, sc.request(0), sc.noise())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 27e6


@pytest.mark.parametrize("n", [100, 750])
@pytest.mark.parametrize("noise", [NARROW, NARROW_MIX], ids=["laplace", "mixture"])
def test_narrow_error_law_band_stays_small_and_exact(noise, n):
    """An error law far narrower than the design step puts L near or past
    2D + 1; the band still reads at most design x node points, in blocks."""
    design = build_regular(n, A_N)
    rng = np.random.default_rng(n)
    y = g_a(design.points + noise.sample(rng, design.size)) \
        + 0.1 * rng.standard_normal(design.size)
    sample = RegressionSample(design=design, responses=y)
    clear_caches()
    tracemalloc.start()
    try:
        got = build_band(sample, REQ, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ws = bands_mod._workspace(design, noise, bands_mod.default_taper(noise),
                              REQ.h, REQ.interval)
    assert sum(v.nbytes for v in vars(ws).values()
               if isinstance(v, np.ndarray)) <= 20e6
    assert peak <= 100e6
    want = dense_band(sample, REQ, noise)
    assert got.quantile == pytest.approx(want["quantile"], rel=1e-10)
    for field in ("ghat", "nuhat", "lower", "upper"):
        assert_close(getattr(got, field), want[field])


def test_workspace_holds_no_smoothing_weight_matrix():
    sc = SCENARIOS["gb_n750_s05"]
    design = build_regular(sc.n, sc.a_n)
    noise = sc.noise()
    ws = bands_mod._workspace(design, noise, bands_mod.default_taper(noise),
                              sc.h, sc.interval)
    arrays = [v for v in vars(ws).values() if isinstance(v, np.ndarray)]
    # no field is as large as a design x midpoint weight matrix
    assert max(v.size for v in arrays) < design.size * (design.size - 1)
    assert sum(v.nbytes for v in arrays) <= 30e6
