"""Point estimator of the regression function.

The estimator averages responses against the deconvolution kernel,
ghat(x;h) = sum_j weight_j Y_j K((w_j - x)/h; h) / h, which undoes the
smoothing gamma = g * f(-.) induced by the Berkson errors.  The kernel
sum is the spectral operator's node sum of the data's Fourier transform.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deconv_kernel import SpectralKernel
from .design import RegressionSample, check_identifiable

__all__ = ["EstimateCurve", "estimate_g"]


@dataclass(frozen=True)
class EstimateCurve:
    grid: np.ndarray
    values: np.ndarray
    h: float
    beta: float


def estimate_g(
    sample: RegressionSample, grid, kernel: SpectralKernel
) -> EstimateCurve:
    """Kernel-sum evaluation of ghat(.;h) on ``grid`` at the kernel's h.

    ``grid`` must be uniform, as make_eval_grid gives it.
    """
    h = kernel.h
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    if grid.size:
        check_identifiable((grid.min(), grid.max()), sample.design.a_n, h)
    coef = sample.design.weights * sample.responses
    vals = kernel.kernel_sum(grid, sample.design.points, coef)
    vals /= h
    return EstimateCurve(grid=grid, values=vals, h=h, beta=float(kernel.noise.beta))
