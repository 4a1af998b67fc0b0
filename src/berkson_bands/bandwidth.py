"""Bandwidth selection: an adaptive rule and undersmoothing.

The adaptive rule compares estimates along the dyadic grid h_k = 2^(-k)
and picks the largest bandwidth whose estimate stays within a deviation
threshold of every finer one (Lepski, Mammen & Spokoiny 1997, Ann.
Statist. 25(3)).  The dyadic range and the threshold follow from n, a_n
and the error law's beta alone, so the rule takes no settings.  Its
estimates come from spectral kernel operators that share one frequency
rule and one data transform, so the rule builds no kernel table.  The
preset bandwidths of the reference scenarios live with those scenarios,
in simulation.SCENARIOS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import make_eval_grid
from .design import RegressionSample
from .deconv_kernel import (SpectralKernel, TaperSpec, fourier_sums,
                            spectral_kernels)
from .noise_models import NoiseModel

__all__ = ["LepskiResult", "lepski_select", "undersmooth"]

# The Lepski rule's threshold constant, the smoothness of its adaptation
# range, and the most dyadic steps below the coarse end.
_C_L = 1.0
_M_BAR = 4.0
_MAX_DEPTH = 5


@dataclass(frozen=True)
class LepskiResult:
    h: float
    k: int
    flag: bool
    deviations: list[tuple[int, int, float, float]] = field(repr=False)
    # each record is (k, l, sup deviation, threshold tau_l)


def _dyadic_range(n: int, beta: float, a_n: float) -> tuple[int, int]:
    """(k_l, k_u), the dyadic grid bounds matched to the adaptation range.

    The coarse end tracks ((log n)/(n a_n))^(1/(beta+_M_BAR)); the fine
    end tracks 1/n but is capped at ``_MAX_DEPTH`` steps below the coarse
    end, since estimates at very small h cost far more than the rule can
    use.  Needs n >= 2, where log n > 0.
    """
    if n < 2:
        raise ValueError(f"the Lepski rule needs n >= 2, got n={n}")
    rate = (math.log(n) / (n * a_n)) ** (1.0 / (beta + _M_BAR))
    k_l = max(0, round(math.log2(1.0 / rate)))
    k_u = min(int(math.floor(math.log2(n))), k_l + _MAX_DEPTH)
    return k_l, max(k_u, k_l + 1)


def _estimate_on(
    sample: RegressionSample,
    grid: np.ndarray,
    kernels: list[SpectralKernel],
    spectrum: np.ndarray,
) -> np.ndarray:
    """ghat(grid; h) of every kernel, one row each, from one Fourier sum.

    The kernels come from one spectral_kernels call, ordered by
    decreasing h, so the last one's nodes hold every other's as a
    leading part; ``spectrum`` is its transform of ``sample``'s weighted
    responses.
    """
    nodes = kernels[-1].omega
    coeffs = np.zeros((nodes.size, len(kernels)), dtype=complex)
    for i, op in enumerate(kernels):
        r = op.omega.size
        coeffs[:r, i] = op.factor * spectrum[:r] / op.h
    return fourier_sums(grid, nodes, coeffs).T


def lepski_select(
    sample: RegressionSample,
    noise: NoiseModel,
    spec: TaperSpec,
    interval: tuple[float, float],
) -> LepskiResult:
    """Select h along the dyadic grid by pairwise deviation tests.

    k is admissible when sup_x |ghat(x;h_k) - ghat(x;h_l)| stays below
    _C_L ((log n)/(n a_n h_l^(1+2 beta)))^(1/2) for every l from k to
    k_u; the smallest admissible k wins, with beta from ``noise`` and n
    and a_n from the sample's design, which also fix the range k_l..k_u
    (_dyadic_range).  Sup-norms are taken over ``interval`` on the
    evaluation grid of the finer bandwidth of each pair.  When no k is
    admissible the finest bandwidth is returned with the flag set.
    """
    design = sample.design
    n, a_n = design.n, design.a_n
    k_l, k_u = _dyadic_range(n, noise.beta, a_n)
    ks = list(range(k_l, k_u + 1))
    hs = {k: 2.0 ** (-k) for k in ks}
    # the coarsest bandwidth comes first, where the interval check is tightest
    grids = {k: make_eval_grid(interval, n, a_n, hs[k]).points for k in ks}
    kernels = dict(zip(ks, spectral_kernels(
        [hs[k] for k in ks], noise, spec, design.reach(interval))))
    # the finest bandwidth's nodes are the whole rule
    spectrum = kernels[k_u].transform(
        design.points, design.weights * sample.responses
    )
    on_grid: dict[int, dict[int, np.ndarray]] = {}

    def est(k: int, on_l: int) -> np.ndarray:
        if on_l not in on_grid:
            coarser = [j for j in ks if j <= on_l]
            rows = _estimate_on(sample, grids[on_l],
                                [kernels[j] for j in coarser], spectrum)
            on_grid[on_l] = dict(zip(coarser, rows))
        return on_grid[on_l][k]

    log_n = math.log(n)
    deviations: list[tuple[int, int, float, float]] = []
    for k in ks:
        for l in range(k, k_u + 1):
            tau = _C_L * math.sqrt(
                log_n / (n * a_n * hs[l] ** (1.0 + 2.0 * noise.beta))
            )
            dev = float(np.max(np.abs(est(k, l) - est(l, l))))
            deviations.append((k, l, dev, tau))
            if dev > tau:
                break
        else:
            return LepskiResult(h=hs[k], k=k, flag=False, deviations=deviations)
    return LepskiResult(h=hs[k_u], k=k_u, flag=True, deviations=deviations)


def undersmooth(h: float, n: int) -> float:
    """Undersmoothing adjustment h -> h/log(n)."""
    if n < 3:
        raise ValueError(f"undersmoothing needs n >= 3, got {n}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return h / math.log(n)
