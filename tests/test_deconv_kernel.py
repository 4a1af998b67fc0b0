"""Deconvolution kernel: taper shapes, spectral operator accuracy, the
kernel-dump table, norm and tail bounds."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import roots_legendre

import berkson_bands.bands as bands_mod
from berkson_bands.bandwidth import undersmooth
from berkson_bands import (SCENARIOS, Laplace, NoError, TaperSpec, build_regular,
                           default_taper, estimate_g, generate_sample,
                           make_eval_grid, phi_k)
from berkson_bands.design import check_identifiable, identifiable_range
import berkson_bands.deconv_kernel as dk
from berkson_bands.deconv_kernel import (_legendre_rule, fourier_sums, kernel_table,
                                         spectral_kernels)

from conftest import A_N, LAP01, MIX, SMOOTH, TAPER_S, TAPER_W, operator_for
from oracles import kernel_eval


def test_taper_validation():
    with pytest.raises(ValueError):
        TaperSpec(kind="boxcar", cutoff=1.0)
    for cutoff in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="cutoff must be positive and finite"):
            TaperSpec(kind="damped_cutoff", cutoff=cutoff)
    # both fields are set by every caller; the bridge starts at half the
    # cutoff for both kinds
    for bad in ((), ("damped_cutoff",), ("smooth_poly", 1.0, 0.3)):
        with pytest.raises(TypeError):
            TaperSpec(*bad)
    assert SMOOTH.knot == TAPER_S.knot == 0.5


def test_damped_cutoff_shape():
    S = TAPER_S.cutoff
    t = np.array([0.4, 1.0, 2.0, 0.5 * S])
    assert np.array_equal(phi_k(t, TAPER_S), 1.0 - np.exp(-((S / t) ** 2)))
    assert float(phi_k(0.0, TAPER_S)) == 1.0
    assert float(phi_k(S, TAPER_S)) == 0.0
    assert float(phi_k(1.2 * S, TAPER_S)) == 0.0
    grid = np.linspace(-7.0, 7.0, 2001)
    vals = np.asarray(phi_k(grid, TAPER_S))
    assert np.array_equal(vals, np.asarray(phi_k(-grid, TAPER_S)))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def _second_derivative(t, e=2e-5):
    return (float(phi_k(t + e, SMOOTH)) - 2.0 * float(phi_k(t, SMOOTH))
            + float(phi_k(t - e, SMOOTH))) / e**2


def _one_sided_jump(knot, d=1e-4):
    left = (3 * _second_derivative(knot - d) - 3 * _second_derivative(knot - 2 * d)
            + _second_derivative(knot - 3 * d))
    right = (3 * _second_derivative(knot + d) - 3 * _second_derivative(knot + 2 * d)
             + _second_derivative(knot + 3 * d))
    return abs(left - right)


def test_smooth_poly_is_flat_then_falls_twice_differentiably():
    assert float(phi_k(0.0, SMOOTH)) == 1.0
    assert float(phi_k(0.49, SMOOTH)) == 1.0
    assert float(phi_k(1.0, SMOOTH)) == 0.0
    assert float(phi_k(1.7, SMOOTH)) == 0.0
    mid = np.asarray(phi_k(np.linspace(0.5, 1.0, 101), SMOOTH))
    assert np.all(np.diff(mid) <= 1e-12)
    assert _one_sided_jump(0.5) < 1e-4
    assert _one_sided_jump(1.0) < 1e-4


@pytest.mark.parametrize("noise,spec", [(LAP01, TAPER_S), (MIX, TAPER_W)],
                         ids=["laplace", "mixture"])
@pytest.mark.parametrize("h", [0.1, 0.25, 0.5])
def test_table_matches_direct_quadrature(noise, spec, h):
    args = np.random.default_rng(42).uniform(-7.2, 7.2, 32)
    # the operator for |u| <= 8; K(u) is its matrix entry from x = 0 to h u
    (op,) = spectral_kernels([h], noise, spec, 8.0 * h)
    vals = op.exact_matrix([0.0], h * args)[0]
    err = max(abs(kernel_eval(float(u), h, noise, spec) - float(v))
              for u, v in zip(args, vals))
    assert err < 1e-6


# h from 1/2 to 1/64, and the laws and h of the ga_n100_s10 and
# mix_ga_n100 presets
@pytest.mark.parametrize("h,law", [(h, law) for h in (1 / 2, 1 / 16, 1 / 64)
                                   for law in ("laplace", "mixture")]
                         + [(0.25, "laplace"), (0.59, "mixture")])
def test_spectral_operator_matches_direct_quadrature(h, law):
    noise, spec = {"laplace": (LAP01, TAPER_S), "mixture": (MIX, TAPER_W)}[law]
    # the Fourier sum of the factors at x is K(x/h) = K(-x/h)
    x = np.linspace(-7.2, 7.2, 25) * h
    (op,) = spectral_kernels([h], noise, spec, 7.2 * h)
    got = fourier_sums(x, op.omega, op.factor[:, None])[:, 0]
    want = np.array([kernel_eval(float(-v / h), h, noise, spec) for v in x])
    assert np.max(np.abs(got - want)) < 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("after", [0, 1], ids=["anchor", "offset"])
def test_nan_points_fail_the_uniform_grid_checks(after):
    # _uniform_blocks anchors every b-th point, b = isqrt(len - 1) + 1
    def with_nan(x):
        x = np.array(x, dtype=float)
        x[math.isqrt(x.size - 1) + 1 + after] = np.nan
        return x

    sc = SCENARIOS["ga_n100_s10"]
    sample = generate_sample(sc, np.random.SeedSequence(1))
    grid = make_eval_grid(sc.interval, sc.n, sc.a_n, sc.h).points
    w = sample.design.points
    op = operator_for(sample.design, sc.h, sc.noise(), default_taper(sc.noise()))
    calls = [
        lambda: estimate_g(sample, with_nan(grid), [op]),
        lambda: op.transform(with_nan(w), np.ones(w.size)),
        lambda: fourier_sums(with_nan(grid), op.omega, op.factor[:, None]),
        lambda: dk._uniform_blocks(with_nan(np.linspace(0.0, 1.0, 10))),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()
    # factors checks every grid before it takes their hull
    for call in (lambda: op.factors(with_nan(w), grid),
                 lambda: op.factors(w, with_nan(grid))):
        with pytest.raises(ValueError,
                           match="^the spectral operator needs a uniform grid$"):
            call()
    for interval in ((np.nan, 0.5), (-0.5, np.nan)):
        with pytest.raises(ValueError, match="identifiable range"):
            check_identifiable(interval, A_N, 0.25)


def test_spectral_operator_shares_nodes_across_bandwidths():
    hs = [2.0 ** -k for k in range(1, 7)]
    ops = spectral_kernels(hs, MIX, TAPER_W, 2.2)
    for op, h in zip(ops, hs):
        assert op.h == h
        assert TAPER_W.cutoff / (2 * h) < op.omega[-1] < TAPER_W.cutoff / h
        assert np.array_equal(op.omega, ops[-1].omega[: op.omega.size])
    with pytest.raises(ValueError, match="uniform grid"):
        fourier_sums(np.array([0.0, 0.1, 0.3]), ops[0].omega, ops[0].factor[:, None])


@pytest.fixture
def built_rules(monkeypatch):
    """The node count of every _legendre_rule built while the test runs."""
    built = []

    def counted(m):
        built.append(m)
        return _legendre_rule(m)

    monkeypatch.setattr(dk, "_legendre_rule", counted)
    return built


def test_lepski_rule_builds_no_rule_above_the_cap(built_rules):
    # the dyadic panels of the Lepski bandwidths double in length; those
    # past the cap are cut into parts that reuse a shorter panel's rule
    hs = [2.0 ** -k for k in range(1, 7)]
    reach = 2.2
    ops = spectral_kernels(hs, MIX, TAPER_W, reach)
    assert max(built_rules) <= 400  # not the 733 and 1442 nodes of uncut panels
    assert len(built_rules) == len(set(built_rules))
    x = np.linspace(-reach, reach, 9)
    for op in ops:
        assert np.array_equal(op.omega, ops[-1].omega[: op.omega.size])
        got = fourier_sums(x, op.omega, op.factor[:, None])[:, 0]
        want = [kernel_eval(float(-v / op.h), op.h, MIX, TAPER_W) for v in x]
        peak = kernel_eval(0.0, op.h, MIX, TAPER_W)
        assert np.max(np.abs(got - want)) <= 1e-10 * peak


def test_gauss_rule_cuts_long_panels_into_equal_parts(built_rules):
    # at rate 2 pi a panel of L units wants 24 + 3 L nodes: the 100-unit
    # panel fits the cap, the 200-unit one takes its rule twice and the
    # 301-unit one takes three rules of 24 + 301 nodes
    assert 301 <= dk._MAX_RULE_NODES - dk._PANEL_NODES < 903 / 2
    nodes, weights = dk._gauss_rule([0.0, 100.0, 300.0, 601.0], 2.0 * math.pi)
    assert sorted(built_rules) == [324, 325]
    cuts = [0.0, 100.0, 200.0, 300.0, 300.0 + 301 / 3, 300.0 + 602 / 3, 601.0]
    rules = [_legendre_rule(m) for m in (324, 324, 324, 325, 325, 325)]
    lo, hi = np.array(cuts[:-1]), np.array(cuts[1:])
    assert np.allclose(nodes, np.concatenate(
        [0.5 * (b - a) * x + 0.5 * (b + a) for (x, _), a, b in zip(rules, lo, hi)]),
        rtol=1e-15, atol=0)
    assert np.allclose(weights, np.concatenate(
        [0.5 * (b - a) * q for (_, q), a, b in zip(rules, lo, hi)]), rtol=1e-14, atol=0)
    assert abs(np.sum(weights) - 601.0) <= 1e-12 * 601.0


@pytest.mark.parametrize("noise,spec,h", [(LAP01, TAPER_S, 0.11), (MIX, TAPER_W, 0.32),
                                         (NoError(), SMOOTH, 0.25)],
                         ids=["laplace", "mixture", "no_error"])
def test_squared_kernel_is_the_square_of_the_kernel(noise, spec, h):
    # K^2's factors over a hull as wide as the design, against the square
    # of the dense kernel matrix, to the bound of every factors test
    w = np.linspace(-1.5, 1.5, 301)
    grids = (np.linspace(-0.7, 0.6, 257), np.linspace(-1.2, 1.2, 90), w)
    (op,) = spectral_kernels([h], noise, spec, 3.0)
    basis, lefts = op.squared_factors(w, *grids)
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
    for left, g in zip(lefts, grids):
        gap = left @ basis.T - op.exact_matrix(g, w) ** 2
        assert np.max(np.abs(gap)) <= 1e-12 * np.sum(op.factor) ** 2


def test_squared_factors_read_a_chebyshev_point_as_its_coordinates():
    # the barycentric weights divide by x - xi: a grid point on a sample
    # point reads that point's coordinates, with no NaN
    w, grid = np.linspace(-1.5, 1.5, 301), np.linspace(-0.7, 0.6, 257)
    (op,) = spectral_kernels([0.2], MIX, TAPER_W, 3.0)
    basis, xi, coords = op._sample(w, (grid,), 2)
    c = xi.size // 3
    on = xi[c : c + 2]
    got_basis, (left, left_on) = op.squared_factors(w, grid, on)
    assert np.array_equal(got_basis, basis)
    assert np.isfinite(left).all()
    assert np.array_equal(left_on, coords[c : c + 2])
    gap = left_on @ basis.T - op.exact_matrix(on, w) ** 2
    assert np.max(np.abs(gap)) <= 1e-12 * np.sum(op.factor) ** 2


def test_kernel_factors_match_the_dense_kernel_matrix():
    w = np.linspace(-1.5, 1.5, 301)
    grid, xe = np.linspace(-0.7, 0.6, 257), np.linspace(-1.2, 1.2, 90)
    (op,) = spectral_kernels([0.2], MIX, TAPER_W, 3.0)
    basis, (kg, ke, kw) = op.factors(w, grid, xe, w)
    assert np.allclose(basis.T @ basis, np.eye(basis.shape[1]), rtol=0, atol=1e-12)
    assert basis.shape[1] < 2 * op.omega.size
    for left, x in ((kg, grid), (ke, xe), (kw, w)):
        dense = np.cos(np.subtract.outer(w, x)[..., None] * op.omega) @ op.factor
        assert np.max(np.abs(left @ basis.T - dense.T)) < 1e-12 * np.max(np.abs(dense))


@pytest.mark.parametrize("m", [1, 2, 3, 24, 60, 379, 1442])
def test_legendre_rule_matches_scipy(m):
    x, w = _legendre_rule(m)
    assert np.max(np.abs(x - roots_legendre(m)[0])) <= 1e-15
    assert abs(w.sum() - 2.0) <= 1e-13
    # the weights are checked through the monomials the rule integrates
    # exactly, not against scipy's, whose end weights are the less accurate
    power = np.ones_like(x)
    for d in range(2 * m):
        assert abs(w @ power - (2.0 / (d + 1) if d % 2 == 0 else 0.0)) <= 1e-13
        power *= x


def test_gauss_rule_builds_each_node_count_once(built_rules):
    # panels of 1, 1, 2 and 1 units at rate 2 pi: m = 27, 27, 30, 27
    edges = [0.0, 1.0, 2.0, 4.0, 5.0]
    nodes, weights = dk._gauss_rule(edges, 2.0 * math.pi)
    assert sorted(built_rules) == [27, 30]
    rules = [_legendre_rule(m) for m in (27, 27, 30, 27)]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    assert np.array_equal(nodes, np.concatenate(
        [0.5 * (b - a) * x + 0.5 * (b + a) for (x, _), a, b in zip(rules, lo, hi)]))
    assert np.array_equal(weights, np.concatenate(
        [0.5 * (b - a) * q for (_, q), a, b in zip(rules, lo, hi)]))


def test_fourier_sums_match_direct_evaluation():
    rng = np.random.default_rng(3)
    omega = np.sort(rng.uniform(0.0, 50.0, 40))
    coeffs = rng.standard_normal((40, 3)) + 1j * rng.standard_normal((40, 3))
    for m in (1, 2, 7, 101):
        x = np.linspace(-0.7, 0.6, m)
        direct = np.real(np.exp(-1j * np.outer(x, omega)) @ coeffs)
        assert np.max(np.abs(fourier_sums(x, omega, coeffs) - direct)) < 1e-12


def _lepski_columns():
    """The operators of the Lepski rule's dyadic bandwidths 1/2 .. 1/64 on
    one node rule, as zero-padded columns of coefficients."""
    ops = spectral_kernels([2.0 ** -k for k in range(1, 7)], MIX, TAPER_W, 2.2)
    omega = ops[-1].omega
    phases = np.random.default_rng(7).uniform(0.0, 2.0 * math.pi, omega.size)
    coeffs = np.zeros((omega.size, len(ops)), dtype=complex)
    for k, op in enumerate(ops):
        r = op.omega.size
        coeffs[:r, k] = op.factor * np.exp(1j * phases[:r])
    return omega, coeffs


def test_fourier_sums_of_zero_padded_columns_match_direct_evaluation():
    omega, coeffs = _lepski_columns()
    bound = np.sum(np.abs(coeffs), axis=0)  # the largest possible |sum|
    for m in (1, 2, 301, 1127):
        x = np.linspace(-0.7, 0.59, m)
        direct = np.real(np.exp(-1j * np.outer(x, omega)) @ coeffs)
        assert np.all(np.max(np.abs(fourier_sums(x, omega, coeffs) - direct), axis=0)
                      <= 1e-12 * bound)


def test_fourier_sums_temporaries_stay_bounded():
    # the finest Lepski call of a mix_ga_n750 request: 6,370 grid points,
    # 3,106 nodes and six columns
    omega, coeffs = _lepski_columns()
    assert coeffs.shape == (3106, 6)
    x = np.linspace(-0.7, 0.59, 6370)
    tracemalloc.start()
    try:
        out = fourier_sums(x, omega, coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (6370, 6)
    assert peak < 16e6


def test_fourier_sums_on_an_empty_grid():
    omega, coeffs = _lepski_columns()
    for x in ([], np.empty(0)):
        out = fourier_sums(x, omega, coeffs)
        assert out.shape == (0, 6)


def _primes(limit):
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        sieve[p * p :: p] &= ~sieve[p]
    return [int(p) for p in np.flatnonzero(sieve)]


# every anchor/offset split: one point, two, full and ragged last blocks
_SIZES = sorted({1, 2, *(k * k + d for k in range(2, 72) for d in (-1, 0, 1)),
                 *_primes(5003)})


def _uniform_set(size, start, span):
    return start + (span / max(size - 1, 1)) * np.arange(size)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(m=st.sampled_from(_SIZES), start=st.floats(-2.0, 2.0),
       span=st.floats(0.01, 4.0),
       others=st.lists(st.tuples(st.sampled_from([s for s in _SIZES if s <= 600]),
                                 st.floats(-2.0, 2.0), st.floats(0.01, 4.0)),
                       min_size=2, max_size=3),
       jitter_at=st.floats(0.0, 1.0))
def test_uniform_route_matches_direct_phases(m, start, span, others, jitter_at):
    # transform against direct exponentials and factors against the
    # direct cos/sin of exact_matrix, relative to the largest possible
    # value: sum |coef| for the transform, the peak K(0) = sum factor for
    # the kernel matrices
    (op,) = spectral_kernels([0.25], MIX, TAPER_W, 4.0)
    r = op.omega.size
    x = _uniform_set(m, start, span)
    coef = np.random.default_rng(m).standard_normal(m)
    direct = np.exp(1j * np.outer(op.omega, x)) @ coef
    got = op.transform(x, coef)
    assert np.max(np.abs(got - direct)) <= 1e-12 * np.sum(np.abs(coef))

    grids = [_uniform_set(*g) for g in others]
    basis, lefts = op.factors(x, *grids)
    for left, g in zip(lefts, grids):
        gap = left @ basis.T - op.exact_matrix(g, x)
        assert np.max(np.abs(gap)) <= 1e-12 * np.sum(op.factor)

    if m < 3:
        return
    bad = x.copy()
    bad[1 + int(jitter_at * (m - 2))] += 0.1 * span / (m - 1)
    for call in (lambda: op.transform(bad, coef), lambda: op.factors(bad, grids[0]),
                 lambda: op.factors(grids[0], bad, grids[1]),
                 lambda: fourier_sums(bad, op.omega, np.ones((r, 1)))):
        with pytest.raises(ValueError,
                           match="^the spectral operator needs a uniform grid$"):
            call()


def _factored(op, power, points, grids):
    """factors (power 1) or squared_factors (power 2) of op."""
    return (op.factors if power == 1 else op.squared_factors)(points, *grids)


def _factor_calls():
    """(operator, power, points, grids) of three factors calls: K and K^2
    on a gb_n750_s05 workspace, and the split band of the benchmark's
    cold request on a mix_ga_n750 design, Lepski's h = 1/2 undersmoothed."""
    sc = SCENARIOS["gb_n750_s05"]
    design, noise = build_regular(sc.n, sc.a_n), sc.noise()
    w = design.points
    eg = make_eval_grid(sc.interval, sc.n, sc.a_n, sc.h).points
    lo, hi = identifiable_range(sc.a_n, bands_mod._CLAMP_FACTOR * sc.h)
    xe = np.linspace(lo, hi, bands_mod._XE_POINTS)
    (op,) = spectral_kernels([sc.h], noise, default_taper(noise), float(w[-1] - w[0]))
    yield op, 1, w, (eg, xe)
    yield op, 2, w, (eg, xe)
    sc = SCENARIOS["mix_ga_n750"]
    design, noise, h = build_regular(sc.n, sc.a_n), sc.noise(), undersmooth(0.5, sc.n)
    interval = (-0.7, 0.6)
    (op,) = spectral_kernels([h], noise, default_taper(noise), design.reach(interval))
    yield op, 1, design.points, (make_eval_grid(interval, sc.n, sc.a_n, h).points,)


def _sample_size(op, power, grids) -> int:
    """p, the Chebyshev points of the first sample of K^power for these grids."""
    half = 0.5 * (max(np.max(g) for g in grids) - min(np.min(g) for g in grids))
    return math.ceil(power * op.omega.max() * half) + dk._SAMPLE_MARGIN


def test_kernel_factors_allocate_no_node_by_point_temporary():
    # beyond the outputs, three points x p arrays (the sample, its QR's
    # copy and Q) and the points x 8 check rows, factors and
    # squared_factors hold at most two row blocks' worth of temporaries;
    # the exact factors, points x 2 nodes for every point set, would not
    # fit there, nor would K^2's barycentric weights, grid x p, on a grid
    # eight times as fine as the workspace's
    allowance = 2 * dk._BLOCK_ELEMS * 16
    calls = list(_factor_calls())
    op, _, w, (eg, xe) = calls[0]
    calls.append((op, 2, w, (np.linspace(eg[0], eg[-1], 8 * eg.size), xe)))
    for op, power, w, grids in calls:
        tracemalloc.start()
        try:
            basis, lefts = _factored(op, power, w, grids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        rows = sum(g.size for g in grids)
        exact = (rows + w.size) * 2 * op.omega.size * 8
        assert exact > allowance
        outputs = basis.nbytes + sum(left.nbytes for left in lefts)
        sample = w.size * (3 * _sample_size(op, power, grids) + 8) * 8
        assert peak <= outputs + sample + allowance


def test_kernel_factors_do_not_depend_on_block_sizes(monkeypatch):
    # one anchor per row block, on point sets whose sizes are no multiple
    # of their anchor stride
    w = np.linspace(-1.5, 1.5, 301)
    grids = (np.linspace(-0.7, 0.6, 257), np.linspace(-1.2, 1.1, 89), w[3:-5])
    for h in (0.1, 0.2):
        (op,) = spectral_kernels([h], MIX, TAPER_W, 3.0)
        basis, lefts = op.factors(w, *grids)
        with monkeypatch.context() as m:
            m.setattr(dk, "_BLOCK_ELEMS", 1)
            small_basis, small_lefts = op.factors(w, *grids)
        assert small_basis.shape == basis.shape
        peak = np.sum(op.factor)
        for left, small in zip(lefts, small_lefts):
            kernel, small_kernel = left @ basis.T, small @ small_basis.T
            assert np.max(np.abs(small_kernel - kernel)) <= 1e-12 * peak
            # each basis holds the kernel rows the other one found
            for k, b in ((kernel, small_basis), (small_kernel, basis)):
                assert np.max(np.abs(k - (k @ b) @ b.T)) <= 1e-12 * peak


def _band_factor_calls():
    """(kind, operator, power, points, grids) of every factors call of
    the preset bands, K from the grid, K from the pilot points and K^2
    from both, then the benchmark's cold split band (_factor_calls)."""
    for sc in SCENARIOS.values():
        design, noise = build_regular(sc.n, sc.a_n), sc.noise()
        spec, w = default_taper(noise), design.points
        eg = make_eval_grid(sc.interval, sc.n, sc.a_n, sc.h).points
        lo, hi = identifiable_range(sc.a_n, bands_mod._CLAMP_FACTOR * sc.h)
        xe = np.linspace(lo, hi, bands_mod._XE_POINTS)
        reach = float(w[-1] - w[0])
        (op,) = spectral_kernels([sc.h], noise, spec, design.reach(sc.interval))
        yield "grid", op, 1, w, (eg,)
        (op,) = spectral_kernels([sc.h], noise, spec, reach)
        yield "pilot", op, 1, w, (xe,)
        yield "squared", op, 2, w, (eg, xe)
    yield ("split", *list(_factor_calls())[-1])


def test_kernel_factors_do_not_depend_on_the_sample_margin(monkeypatch):
    # K^power's rows over the grids' hull lie, to rounding, in the span
    # of its rows at ceil(power Omega half-length) + a few Chebyshev
    # points, so a wider sample finds the same rank and the same rows
    for _, op, power, w, grids in _band_factor_calls():
        basis, lefts = _factored(op, power, w, grids)
        with monkeypatch.context() as m:
            m.setattr(dk, "_SAMPLE_MARGIN", 72)
            wide_basis, wide_lefts = _factored(op, power, w, grids)
        assert wide_basis.shape == basis.shape
        peak = np.sum(op.factor) ** power
        for left, wide in zip(lefts, wide_lefts):
            assert np.max(np.abs(wide @ wide_basis.T - left @ basis.T)) <= 1e-12 * peak


def test_kernel_factors_double_a_saturated_sample(monkeypatch):
    # with no margin, K's rank from each preset's grid reaches p: factors
    # samples again at 2p and then finds the kernel rows
    monkeypatch.setattr(dk, "_SAMPLE_MARGIN", 0)
    svd, sizes = np.linalg.svd, []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda a, **kw: sizes.append(a.shape[1]) or svd(a, **kw))
    grid_calls = [c[1:] for c in _band_factor_calls() if c[0] == "grid"]
    assert len(grid_calls) == len(SCENARIOS)
    for op, _, w, grids in grid_calls:
        sizes.clear()
        basis, lefts = op.factors(w, *grids)
        p = _sample_size(op, 1, grids)
        assert sizes == [p, 2 * p]
        assert basis.shape[1] < 2 * p
        for left, g in zip(lefts, grids):
            gap = left @ basis.T - op.exact_matrix(g, w)
            assert np.max(np.abs(gap)) <= 1e-12 * np.sum(op.factor)


@pytest.mark.parametrize("margin", [0, -8])
def test_kernel_factors_check_a_short_sample_off_its_points(monkeypatch, margin):
    # a sample too small for K or K^2 that does not reach its rank misses
    # the exact rows at the hull's ends or between its central points,
    # and is taken again until the factors hold every kernel row
    monkeypatch.setattr(dk, "_SAMPLE_MARGIN", margin)
    for _, op, power, w, grids in _band_factor_calls():
        basis, lefts = _factored(op, power, w, grids)
        for left, g in zip(lefts, grids):
            gap = left @ basis.T - op.exact_matrix(g, w) ** power
            assert np.max(np.abs(gap)) <= 1e-12 * np.sum(op.factor) ** power


def test_kernel_eval_is_symmetric():
    assert max(abs(kernel_eval(w, 0.25, LAP01, SMOOTH)
                   - kernel_eval(-w, 0.25, LAP01, SMOOTH))
               for w in (0.3, 1.1, 2.7)) < 1e-10


def test_error_free_kernel_reduces_to_taper_transform():
    ref, _ = quad(lambda t: float(phi_k(t, SMOOTH)), 0.0, 1.0, epsabs=1e-12)
    assert abs(kernel_eval(0.0, 0.3, NoError(), SMOOTH) - ref / math.pi) < 1e-8


def test_kernel_eval_agrees_with_trapezoid_rule():
    def trap(u, h):
        t = np.linspace(0.0, SMOOTH.cutoff, 2**17 + 1)
        f = np.asarray(phi_k(t, SMOOTH)) / np.asarray(LAP01.charfn(-t / h))
        return float(np.trapezoid(f * np.cos(t * u), t)) / math.pi

    assert max(abs(trap(u, 0.25) - kernel_eval(u, 0.25, LAP01, SMOOTH))
               for u in (0.0, 1.0)) < 1e-8


@settings(max_examples=40, deadline=None, derandomize=True)
@given(law=st.sampled_from([(LAP01, TAPER_S), (MIX, TAPER_W), (NoError(), TAPER_S)]),
       octaves=st.floats(1.0, 6.0),
       core=st.lists(st.floats(-6.0, 6.0), min_size=4, max_size=4, unique=True),
       frac=st.floats(-1.0, 1.0))
def test_table_reads_match_quadrature(law, octaves, core, frac):
    # h from 1/2 to 1/64; reads anywhere in the span, most of them in the
    # kernel's core, match the quadrature to 1e-10 of the peak K(0)
    noise, spec = law
    h = 2.0**-octaves
    span = 4.0 / (A_N * h)  # kernel_table's default span
    (op,) = spectral_kernels([h], noise, spec, span * h)
    peak = kernel_eval(0.0, h, noise, spec)
    us = [*core, frac * span]
    for u, v in zip(us, op.exact_matrix([0.0], h * np.array(us))[0]):
        assert abs(float(v) - kernel_eval(u, h, noise, spec)) <= 1e-10 * peak


def test_table_argument_validation():
    tab = kernel_table(0.25, LAP01, TAPER_S, span=8.0)
    # the direct node sum agrees with the tabulated Fourier sums
    assert np.max(np.abs(tab(tab.grid) - tab.values)) < 1e-13 * np.max(tab.values)
    assert tab(np.zeros((2, 3))).shape == (2, 3)
    with pytest.raises(ValueError, match="outside the tabulated span"):
        tab(tab.span * 1.001)
    odd = kernel_table(0.25, LAP01, TAPER_S, grid_len=300, span=8.0)
    assert odd.grid.size == odd.values.size == 301
    assert (odd.grid[0], odd.grid[-1]) == (-8.0, 8.0)
    with pytest.raises(ValueError, match="grid_len must be at least 2"):
        kernel_table(0.25, LAP01, TAPER_S, grid_len=1, span=8.0)
    with pytest.raises(ValueError, match="grid_len must be an integer, got 64.0"):
        kernel_table(0.25, LAP01, TAPER_S, grid_len=64.0, span=8.0)
    for span in (-1.0, float("nan")):
        with pytest.raises(ValueError, match="span must be positive"):
            kernel_table(0.25, LAP01, TAPER_S, span=span)
    with pytest.raises(ValueError, match="bandwidth must be positive"):
        kernel_table(float("nan"), LAP01, TAPER_S, span=8.0)
    for h in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            spectral_kernels([h], LAP01, TAPER_S, 1.0)


def _squared_norm(h, noise, spec):
    t = np.linspace(0.0, spec.cutoff, 2**20 + 1)
    f = np.asarray(phi_k(t, spec)) / np.asarray(noise.charfn(-t / h))
    return float(np.trapezoid(f * f, t)) / math.pi


@pytest.mark.parametrize("noise,spec,hs",
                         [(Laplace(6.0), TAPER_S, (0.1, 0.25, 0.5)),
                          (MIX, TAPER_W, (0.2, 0.32))],
                         ids=["laplace", "mixture"])
def test_squared_norm_obeys_two_sided_rate_bounds(noise, spec, hs):
    for h in hs:
        norm = _squared_norm(h, noise, spec)
        lo = 1.0 / (math.pi * noise.c_upper * h ** (2 * noise.beta))
        hi = (1.0 / (math.pi * noise.c_lower)) * (1.0 + 1.0 / h**2) ** noise.beta
        assert lo <= norm <= hi


def test_peak_height_scales_with_squared_bandwidth():
    for h in (0.1, 0.25, 0.5):
        span = 4.0 / (A_N * h)
        (op,) = spectral_kernels([h], LAP01, TAPER_S, span * h)
        u = np.linspace(-span, span, (1 << 14) + 1)
        # the Fourier sum of the factors at h u is K(u)
        vals = fourier_sums(h * u, op.omega, op.factor[:, None])[:, 0]
        assert h**2 * float(np.max(np.abs(u * vals))) < 0.1


@pytest.mark.parametrize("h", [0.1, 0.2, 0.4])
def test_squared_tail_mass_is_negligible(h):
    A = 2.0
    zs = np.linspace(A, 60.0, 24001)
    (op,) = spectral_kernels([h], LAP01, TAPER_S, 60.0 + 1.0 + 2.0 * h)
    worst = 0.0
    for x in (0.0, 0.25, 0.5, 0.75, 1.0):
        # the Fourier sum of the factors at z -+ x is K((z -+ x)/h)
        vals = (fourier_sums(zs - x, op.omega, op.factor[:, None])[:, 0] ** 2
                + fourier_sums(zs + x, op.omega, op.factor[:, None])[:, 0] ** 2)
        integral = float(np.trapezoid(vals, zs))
        geometric = 2.0 * A / (A * A - x * x) * h ** (-2.0 * LAP01.beta + 2.0)
        worst = max(worst, integral / geometric)
    assert worst < 6e-5
