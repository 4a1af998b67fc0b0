"""Point estimator of the regression function.

The estimator averages responses against the deconvolution kernel,
ghat(x;h) = sum_j weight_j Y_j K((w_j - x)/h; h) / h, which undoes the
smoothing gamma = g * f(-.) induced by the Berkson errors.  The kernel
sum comes from a kernel table or from the spectral operator.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .deconv_kernel import KernelTable, SpectralKernel
from .design import Design, RegressionSample, check_identifiable

__all__ = ["EstimateCurve", "estimate_g"]


@dataclass(frozen=True)
class EstimateCurve:
    grid: np.ndarray
    values: np.ndarray
    h: float
    beta: float


def _check_grid(design: Design, h: float, grid: np.ndarray) -> None:
    if grid.size:
        check_identifiable((grid.min(), grid.max()), design.a_n, h)


def estimate_g(
    sample: RegressionSample, grid, kernel: KernelTable | SpectralKernel
) -> EstimateCurve:
    """Kernel-sum evaluation of ghat(.;h) on ``grid`` at the kernel's h.

    A SpectralKernel needs a uniform grid, as make_eval_grid gives.
    """
    h = kernel.h
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    _check_grid(sample.design, h, grid)
    coef = sample.design.weights * sample.responses
    vals = kernel.kernel_sum(grid, sample.design.points, coef)
    vals /= h
    return EstimateCurve(grid=grid, values=vals, h=h, beta=kernel.beta)
