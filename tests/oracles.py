"""Quadrature oracles: the deconvolution kernel K(u;h), gamma, the
conditional variance nu^2, and the exact mean and variance of the
estimator ghat, the references the kernel, estimator, simulation and
variance tests and acceptance criteria 4-6 compare against.  The error
laws' density kinks, where the quadratures split, live here too.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

from berkson_bands import (Design, Laplace, LaplaceMixture, NoError, NoiseModel,
                           RegressionSample, TaperSpec, estimate_g, phi_k)
from berkson_bands.deconv_kernel import SpectralKernel


# Design points per chunk of the quadrature profiles, and the node
# spacing of their Simpson rule.
_W_BLOCK = 256
_SIMPSON_STEP = 1e-3


def kernel_eval(u: float, h: float, noise: NoiseModel, spec: TaperSpec) -> float:
    """Adaptive-quadrature reference value of K(u;h), to about 1e-10.

    Splits at the bridge knot and uses a cosine-weighted rule; this is the
    slow path the spectral operator is checked against.
    """
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    s = spec.cutoff

    def f(t):
        return phi_k(t, spec) / float(noise.charfn(-t / h))

    total = 0.0
    for lo, hi in ((0.0, spec.knot * s), (spec.knot * s, s)):
        val, _ = quad(
            f, lo, hi, weight="cos", wvar=float(u), epsabs=1e-10, limit=400
        )
        total += val
    return total / math.pi


def density_kinks(noise: NoiseModel) -> list[float]:
    """Points where the error law's density is not differentiable."""
    if isinstance(noise, Laplace):
        return [0.0]
    if isinstance(noise, LaplaceMixture):
        return sorted({-noise.mu, 0.0, noise.mu})
    return []


def _law_pieces(noise: NoiseModel) -> list[tuple[float, float]]:
    """The error law's effective support, split at the density's kinks."""
    if isinstance(noise, Laplace):
        tail = 31.0 / noise.a
    elif isinstance(noise, LaplaceMixture):
        tail = noise.mu + 31.0 / noise.a
    else:
        tail = 0.0
    edges = sorted({-tail, *density_kinks(noise), tail})
    return list(zip(edges[:-1], edges[1:]))


def _law_integral(fn, noise: NoiseModel) -> float:
    """int fn(d) f(d) dd over the error law by adaptive quadrature."""
    return sum(
        quad(lambda d: fn(d) * float(noise.density(d)), lo, hi,
             epsabs=1e-10, limit=200)[0]
        for lo, hi in _law_pieces(noise)
    )


def oracle_gamma(g, noise: NoiseModel, w: float) -> float:
    """Smoothed regression gamma(w) = int g(w+d) f(d) dd by quadrature."""
    if isinstance(noise, NoError):
        return float(g(w))
    return _law_integral(lambda d: float(g(w + d)), noise)


def oracle_nu2(g, noise: NoiseModel, sigma2: float, w: float) -> float:
    """Conditional variance nu^2(w) = int (g(w+d)-gamma(w))^2 f(d) dd + sigma^2."""
    if sigma2 < 0:
        raise ValueError(f"sigma2 must be nonnegative, got {sigma2}")
    if isinstance(noise, NoError):
        return float(sigma2)
    gam = oracle_gamma(g, noise, w)
    return _law_integral(lambda d: (float(g(w + d)) - gam) ** 2, noise) + sigma2


def _simpson_rule(noise: NoiseModel):
    """Kink-aligned composite-Simpson nodes and weights over the error law."""
    nodes, weights = [], []
    for lo, hi in _law_pieces(noise):
        m = max(2, int(math.ceil((hi - lo) / _SIMPSON_STEP / 2)) * 2)
        x = np.linspace(lo, hi, m + 1)
        wts = np.empty(m + 1)
        wts[0] = wts[-1] = 1.0
        wts[1:-1:2] = 4.0
        wts[2:-1:2] = 2.0
        wts *= (hi - lo) / m / 3.0
        nodes.append(x)
        weights.append(wts)
    d = np.concatenate(nodes)
    wt = np.concatenate(weights) * noise.density(d)
    return d, wt


def gamma_profile(g, noise: NoiseModel, w) -> np.ndarray:
    """Vectorized gamma over a grid of w values (bulk quadrature path)."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if isinstance(noise, NoError):
        return np.asarray(g(w), dtype=float)
    d, wt = _simpson_rule(noise)
    out = np.empty(len(w))
    for s in range(0, len(w), _W_BLOCK):
        out[s : s + _W_BLOCK] = g(w[s : s + _W_BLOCK, None] + d[None, :]) @ wt
    return out


def nu2_profile(g, noise: NoiseModel, sigma2: float, w) -> np.ndarray:
    """Vectorized nu^2 over a grid of w values."""
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if isinstance(noise, NoError):
        return np.full(len(w), float(sigma2))
    d, wt = _simpson_rule(noise)
    m1 = np.empty(len(w))
    m2 = np.empty(len(w))
    for s in range(0, len(w), _W_BLOCK):
        gv = g(w[s : s + _W_BLOCK, None] + d[None, :])
        m1[s : s + _W_BLOCK] = gv @ wt
        m2[s : s + _W_BLOCK] = (gv**2) @ wt
    return np.maximum(m2 - m1**2, 0.0) + sigma2


def oracle_mean(g, design: Design, x, op: SpectralKernel) -> np.ndarray:
    """Exact E[ghat(x;h)] at the operator's h and error law, x uniform.

    The estimator applied to gamma.
    """
    gamma = gamma_profile(g, op.noise, design.points)
    sample = RegressionSample(design=design, responses=gamma)
    return estimate_g(sample, x, [op])[0]


def oracle_variance(
    g, sigma2: float, design: Design, x, op: SpectralKernel
) -> np.ndarray:
    """Exact Var[ghat(x;h)] = sum_j (weight_j/h)^2 nu^2(w_j) K(...)^2.

    h and the error law are the operator's.
    """
    nu2 = nu2_profile(g, op.noise, sigma2, design.points)
    km = op.exact_matrix(x, design.points)
    return (km**2 * (design.weights / op.h) ** 2) @ nu2
