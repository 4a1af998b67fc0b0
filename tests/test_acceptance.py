"""Acceptance gate: eight end-to-end criteria, one printed verdict line each.

Each test emits ``criterion N: ... -> PASS`` (or FAIL) outside pytest's
capture so the line is always visible, then asserts.  Criteria 1-3 rerun
the preset simulation scenarios at full scale (500 replications, roughly
two minutes on one core).  Set ``BB_ACCEPT_FAST=1`` to shrink the
replication counts for a quick smoke run; criterion 1 then uses the wider
smoke window of +/- 5 points while the other windows stay as stated.
"""
from __future__ import annotations

import math
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import berkson_bands
from berkson_bands import (
    BandRequest,
    Laplace,
    RegressionSample,
    SCENARIOS,
    build_band,
    build_regular,
    estimate_g,
    estimate_nu,
    g_a,
    run_scenario,
)
from berkson_bands.bands import _sup_batch, _workspace
from berkson_bands.deconv_kernel import spectral_kernels

from conftest import A_N, LAP01, MIX, TAPER_S, TAPER_W, operator_for
from oracles import kernel_eval, oracle_mean, oracle_nu2, oracle_variance

FAST = os.environ.get("BB_ACCEPT_FAST") == "1"

pytestmark = pytest.mark.acceptance


def _say(capsys, line: str) -> None:
    with capsys.disabled():
        print(line, flush=True)


def _run(tag: str, reps_fast: int):
    scenario = SCENARIOS[tag]
    if FAST:
        scenario = replace(scenario, reps=reps_fast)
    return run_scenario(scenario)


@pytest.fixture(scope="module")
def ga_n100_run():
    return _run("ga_n100_s10", 150)


@pytest.fixture(scope="module")
def gb_n750_run():
    return _run("gb_n750_s05", 120)


@pytest.fixture(scope="module")
def mix_n100_run():
    return _run("mix_ga_n100", 250)


@pytest.fixture(scope="module")
def mix_n750_run():
    return _run("mix_ga_n750", 200)


def test_criterion_1_coverage_at_reference_point(ga_n100_run, capsys):
    rate = ga_n100_run.rejection_rate
    lo, hi = (0.008, 0.108) if FAST else (0.028, 0.088)
    ok = lo <= rate <= hi
    _say(capsys, f"criterion 1: g_a n=100 rejection rate {rate:.2%} in "
                 f"[{lo:.1%}, {hi:.1%}] -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"rejection rate {rate} outside [{lo}, {hi}]"


def test_criterion_2_mean_band_widths(ga_n100_run, gb_n750_run, capsys):
    w1 = ga_n100_run.mean_width
    w2 = gb_n750_run.mean_width
    ok1 = abs(w1 - 0.44) <= 0.15 * 0.44
    ok2 = abs(w2 - 0.22) <= 0.15 * 0.22
    ok = ok1 and ok2
    _say(capsys, f"criterion 2: mean widths {w1:.4f} (0.44 +/-15%) and "
                 f"{w2:.4f} (0.22 +/-15%) -> {'PASS' if ok else 'FAIL'}")
    assert ok1, f"g_a n=100 width {w1} outside 0.44 +/- 15%"
    assert ok2, f"g_b n=750 width {w2} outside 0.22 +/- 15%"


def test_criterion_3_oscillating_law_extension(mix_n100_run, mix_n750_run,
                                               capsys):
    r1, w1 = mix_n100_run.rejection_rate, mix_n100_run.mean_width
    r2, w2 = mix_n750_run.rejection_rate, mix_n750_run.mean_width
    ok_r = abs(100 * r1 - 6.3) <= 4.0 and abs(100 * r2 - 4.5) <= 4.0
    ok_w = abs(w1 - 0.686) <= 0.25 * 0.686 and abs(w2 - 0.462) <= 0.25 * 0.462
    ok = ok_r and ok_w
    _say(capsys, f"criterion 3: mixture rejection {r1:.2%}/{r2:.2%} "
                 f"(6.3%/4.5% +/-4pp), widths {w1:.4f}/{w2:.4f} "
                 f"(0.686/0.462 +/-25%) -> {'PASS' if ok else 'FAIL'}")
    assert ok_r, f"mixture rejection rates {r1}, {r2} off target"
    assert ok_w, f"mixture widths {w1}, {w2} off target"


def test_criterion_4_kernel_table_matches_quadrature(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    for noise, spec in ((LAP01, TAPER_S), (MIX, TAPER_W)):
        for h in (0.1, 0.25, 0.5):
            # the operator for |u| <= 8; K(u) is its matrix entry from x = 0 to h u
            (op,) = spectral_kernels([h], noise, spec, 8.0 * h)
            us = rng.uniform(-7.2, 7.2, 32)
            vals = op.exact_matrix([0.0], h * us)[0]
            for u, v in zip(us, vals):
                err = abs(kernel_eval(float(u), h, noise, spec) - float(v))
                worst = max(worst, err)
    ok = worst <= 1e-6
    _say(capsys, f"criterion 4: kernel vs quadrature max err {worst:.2e} "
                 f"<= 1e-06 -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"kernel deviates from quadrature by {worst}"


def test_criterion_5_variance_sandwich(capsys):
    noise = Laplace(a=6.0)
    n, a_n, h = 4000, 0.5, 0.1
    design = build_regular(n, a_n)
    op = operator_for(design, h, noise, TAPER_S)
    lo = 1.0 / (noise.c_upper * math.pi)
    hi = 2.0 / (noise.c_lower * math.pi)
    scaled = []
    for x in (0.0, 0.3, 0.6):
        var = float(oracle_variance(g_a, 0.01, design, x, op)[0])
        nu2 = oracle_nu2(g_a, noise, 0.01, x)
        scaled.append(n * a_n * h ** (1 + 2 * noise.beta) * var / nu2)
    ok = all(lo <= j <= hi for j in scaled)
    shown = ", ".join(f"{j:.4f}" for j in scaled)
    _say(capsys, f"criterion 5: scaled variances [{shown}] in "
                 f"[{lo:.4f}, {hi:.4f}] -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"scaled variances {scaled} escape [{lo}, {hi}]"


def test_criterion_6_smoothing_bias_decay(capsys):
    design = build_regular(4000, A_N)
    xs = np.linspace(-0.5, 0.5, 41)
    sups = []
    for h in (0.4, 0.2, 0.1):
        op = operator_for(design, h, LAP01, TAPER_S)
        vals = oracle_mean(g_a, design, xs, op)
        sups.append(float(np.max(np.abs(vals - g_a(xs)))))
    ok = sups[0] > sups[1] > sups[2]
    shown = " > ".join(f"{s:.5f}" for s in sups)
    _say(capsys, f"criterion 6: sup bias {shown} strictly decreasing "
                 f"-> {'PASS' if ok else 'FAIL'}")
    assert ok, f"sup bias {sups} not strictly decreasing over h = 0.4, 0.2, 0.1"


def test_criterion_7_multiplier_process_variance(capsys):
    n, h, interval = 200, 0.25, (-0.6, 0.5)
    design = build_regular(n, A_N)
    op = operator_for(design, h, LAP01, TAPER_S)
    # the band's basis with non-constant multipliers: R is the triangular
    # factor of a design x rank core's Gram matrix, as in a band
    basis = _workspace(design, LAP01, TAPER_S, h, interval).basis
    m = 0.5 + design.points**2
    coef = h ** LAP01.beta / math.sqrt(n * A_N * h)
    draws = 20_000
    errors = []
    for x in np.linspace(*interval, 5):
        kvec = op.exact_matrix([x], design.points)[0]
        # the band's draw engine at one point with nu = 1: sup = |process|
        sups = _sup_batch(basis * m[:, None], basis.T @ kvec[:, None],
                          np.ones(1), coef, draws, 99_000_000)
        # the exact variance, from the dense kernel row
        target = coef**2 * float(np.sum((m * kvec) ** 2))
        errors.append(float(np.mean(sups**2)) / target - 1.0)
    worst = max(abs(e) for e in errors)
    ok = worst <= 0.03
    _say(capsys, f"criterion 7: multiplier variance rel errs "
                 f"{', '.join(f'{e:+.2%}' for e in errors)}; worst "
                 f"{worst:.2%} <= 3% -> {'PASS' if ok else 'FAIL'}")
    assert ok, f"multiplier variance off by {worst:.2%}"


def test_criterion_8_structural_suite(capsys):
    n = 120
    design = build_regular(n, A_N)
    rng = np.random.default_rng(21)
    y = g_a(design.points + LAP01.sample(rng, design.size))
    y = y + 0.1 * rng.standard_normal(design.size)
    sample = RegressionSample(design=design, responses=y)
    req = BandRequest(interval=(-0.6, 0.5), h=0.25, alpha=0.05, draws=200,
                      seed=9)
    res = build_band(sample, req, LAP01)
    checks: list[tuple[str, bool]] = []

    checks.append(("band symmetric about ghat", bool(np.allclose(
        res.upper - res.ghat, res.ghat - res.lower, rtol=0, atol=1e-12))))

    again = build_band(sample, req, LAP01)
    checks.append(("seed determinism",
                   np.array_equal(res.lower, again.lower)
                   and np.array_equal(res.upper, again.upper)))

    loose = build_band(sample, replace(req, alpha=0.10), LAP01)
    tight = build_band(sample, replace(req, alpha=0.01), LAP01)
    checks.append(("alpha nesting",
                   loose.quantile <= res.quantile <= tight.quantile
                   and bool(np.all(tight.lower <= res.lower))
                   and bool(np.all(res.lower <= loose.lower))
                   and bool(np.all(loose.upper <= res.upper))
                   and bool(np.all(res.upper <= tight.upper))))

    bound = math.sqrt(req.h) / (n * math.sqrt(A_N))
    checks.append(("grid spacing bound", res.spacing <= bound + 1e-15))

    op = operator_for(design, req.h, LAP01, TAPER_S)
    y2 = 0.3 * rng.standard_normal(design.size)
    c1 = estimate_g(sample, res.grid, [op])[0]
    c2 = estimate_g(RegressionSample(design=design, responses=y2),
                    res.grid, [op])[0]
    c12 = estimate_g(RegressionSample(design=design, responses=y + y2),
                     res.grid, [op])[0]
    checks.append(("estimator linearity",
                   bool(np.allclose(c12, c1 + c2, rtol=0, atol=1e-10))))

    curve = estimate_nu(sample, interval=(-0.6, 0.5))
    checks.append(("variance floor", bool(np.all(
        curve(res.grid) >= curve.floor * (1 - 1e-12)))))

    src_dir = Path(berkson_bands.__file__).parent
    pattern = re.compile(
        r"^\s*(import|from)\s+"
        r"(requests|urllib|http|socket|httpx|aiohttp|ftplib|telnetlib)\b",
        re.M)
    offenders = [p.name for p in sorted(src_dir.glob("*.py"))
                 if pattern.search(p.read_text())]
    checks.append(("no network imports", not offenders))

    bad = [name for name, ok in checks if not ok]
    verdict = "PASS" if not bad else "FAIL"
    _say(capsys, f"criterion 8: structural invariants, {len(checks)} checks "
                 f"-> {verdict}")
    assert not bad, f"failed structural checks: {bad}; offenders={offenders}"
