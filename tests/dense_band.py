"""Dense reference band: every kernel matrix is the exact factor product.

This is the band construction written with dense grid x design and
design x design kernel matrices, dense Epanechnikov weight matrices for
the local variance, pilot curves read through CubicSpline at every
design point plus error node, and moments taken over those nodes with
np.trapezoid.  Its multiplier process sums dense kernel rows over one
multiplier per design point; the multipliers are the engine's rank
normals mapped into design space (design_normals).  The package builds
the same band from low-rank kernel factors, window sums and one
correlation on the error lattice; tests compare the two.
"""
from __future__ import annotations

import functools
import math

import numpy as np
from scipy.interpolate import CubicSpline

from berkson_bands import NoError, make_eval_grid
from berkson_bands.bands import (_CLAMP_FACTOR, _NW_FLOOR_FRAC, _XE_POINTS,
                                 _draw_geometry, _error_lattice, default_taper,
                                 quantile)
from berkson_bands.design import identifiable_range
from berkson_bands.variance_estimation import (midpoints, pseudo_residuals,
                                               smoothing_bandwidth)

from conftest import operator_for


def design_normals(basis, weights, draws, seed):
    """The engine's rank normals z (draws x rank, from SeedSequence(seed))
    mapped into design space: Z = z @ Q.T, draws x len(weights), for the
    thin QR core = basis * weights[:, None] = Q R signed so that R's
    diagonal is non-negative.  Then Z @ core = z @ R, the engine's draw,
    and column j of Z holds the multipliers of point j.  Where R is
    invertible Q.T = lstsq(R.T, core.T); Q alone does not amplify the
    part of a dense kernel matrix outside basis's span when the process
    barely reaches some basis direction (a split band with b_n < 1)."""
    core = basis * weights[:, None]
    q, r = np.linalg.qr(core)
    q *= np.where(np.diagonal(r) < 0.0, -1.0, 1.0)
    z = np.random.default_rng(seed).standard_normal((draws, r.shape[0]))
    return z @ q.T


def epanechnikov_weights(mids, x, h_v):
    """Dense Epanechnikov weights of ``mids`` around each x, and their row
    sums."""
    u = (mids[None, :] - np.asarray(x, dtype=float)[:, None]) / h_v
    wts = np.maximum(1.0 - u**2, 0.0)
    return wts, wts.sum(axis=1)


@functools.cache
def _geometry(design, noise, spec, h, interval):
    w = design.points
    op = operator_for(design, h, noise, spec)
    taper = operator_for(design, h, NoError(), spec)
    grid = make_eval_grid(interval, design.n, design.a_n, h).points
    lo, hi = identifiable_range(design.a_n, _CLAMP_FACTOR * h)
    xe = np.linspace(lo, hi, _XE_POINTS)
    lattice = _error_lattice(noise, design)
    dgrid = fw = wd = None
    if lattice is not None:
        dgrid = lattice[0]
        fw = noise.density(dgrid)
        fw = fw / np.trapezoid(fw, dgrid)
        wd = np.clip(w[:, None] + dgrid[None, :], lo, hi)
    mids = midpoints(w)
    hv = smoothing_bandwidth(interval, design.size)
    # the engine draws in the coordinates of its draw geometry's basis
    basis = _draw_geometry(design, noise, spec, h, interval)[1]
    return {
        "basis": basis,
        "grid": grid, "xe": xe, "dgrid": dgrid, "fw": fw, "wd": wd,
        "kg": op.exact_matrix(grid, w), "ke": op.exact_matrix(xe, w),
        "k2w": op.exact_matrix(w, w) ** 2,
        "kfw2_w2": taper.exact_matrix(w, w) ** 2 * (design.weights**2)[None, :],
        "smooth_e": epanechnikov_weights(mids, xe, hv),
        "smooth_w": epanechnikov_weights(mids, w, hv),
    }


def dense_band(sample, request, noise, taper=None):
    """(ghat, nuhat, quantile, lower, upper, sups) of build_band's band."""
    design, h = sample.design, request.h
    spec = taper if taper is not None else default_taper(noise)
    geo = _geometry(design, noise, spec, h, request.interval)
    wts, y = design.weights, sample.responses
    r = pseudo_residuals(y)
    v_nw_e = (geo["smooth_e"][0] @ r) / geo["smooth_e"][1]
    v_nw_w = (geo["smooth_w"][0] @ r) / geo["smooth_w"][1]
    s2min, sc2 = float(np.min(v_nw_e)), float(np.mean(r))
    if geo["dgrid"] is None:
        vmod = np.zeros(design.size)
    else:
        ke, dgrid, fw = geo["ke"], geo["dgrid"], geo["fw"]
        ge = ke @ (wts * y) / h
        avar = (ke**2) @ (wts**2 * v_nw_w) / h**2
        both = CubicSpline(geo["xe"], np.column_stack((ge, avar)))(geo["wd"])
        gw = both[..., 0]
        m1 = np.trapezoid(gw * fw, dgrid, axis=1)
        m2 = np.trapezoid(gw**2 * fw, dgrid, axis=1)
        spur1 = np.trapezoid(both[..., 1] * fw, dgrid, axis=1)
        spur2 = geo["kfw2_w2"] @ v_nw_w / h**2
        vm = np.maximum(m2 - m1**2, 0.0)
        vmod = np.maximum(vm - np.maximum(spur1 - spur2, 0.0), 0.0)
    vw = np.maximum(vmod + s2min, _NW_FLOOR_FRAC * v_nw_w)
    floor2 = max(sc2 / 4.0, 1e-16)
    k2w, k2g = geo["k2w"], geo["kg"] ** 2
    k2sw = np.maximum(k2w.sum(axis=1), 1e-300)
    k2sg = np.maximum(k2g.sum(axis=1), 1e-300)
    nu_w = np.sqrt(np.maximum((k2w @ vw) / k2sw, floor2))
    nu_g = np.sqrt(np.maximum((k2g @ vw) / k2sg, floor2))

    n, a_n, beta = design.n, design.a_n, noise.beta
    kg = geo["kg"]
    ghat = kg @ (wts * y) / h
    coef = h**beta / math.sqrt(n * a_n * h)
    mult = wts * nu_w * n * a_n
    z = design_normals(geo["basis"], mult, request.draws, request.seed)
    sups = np.max(np.abs(coef * (z @ (kg * mult).T)) / nu_g[None, :], axis=1)
    q = quantile(sups, 1.0 - request.alpha)
    half = q * nu_g / (math.sqrt(n * a_n) * h ** (0.5 + beta))
    return {"ghat": ghat, "nuhat": nu_g, "quantile": q, "lower": ghat - half,
            "upper": ghat + half, "sups": sups}
