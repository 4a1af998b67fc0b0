"""Point estimator of the regression function.

The estimator averages responses against the deconvolution kernel,
ghat(x;h) = sum_j weight_j Y_j K((w_j - x)/h; h) / h, which undoes the
smoothing gamma = g * f(-.) induced by the Berkson errors.  The kernel
sum is the spectral operator's node sum of the data's Fourier transform.
Operators from one spectral_kernels call share that transform, so the
estimates at several bandwidths on one grid, as the Lepski rule compares
them, cost one transform and one Fourier sum.
"""
from __future__ import annotations

import numpy as np

from .deconv_kernel import SpectralKernel, fourier_sums
from .design import RegressionSample, check_identifiable

__all__ = ["estimate_g"]


def estimate_g(
    sample: RegressionSample, grid, kernels: list[SpectralKernel]
) -> np.ndarray:
    """ghat(grid; h) at every operator's h, one row per operator.

    The operators must come from one spectral_kernels call: the one with
    the most nodes holds every other's as a leading part, and its data
    transform T serves them all, an operator with r nodes adding
    factor T[:r] / h to one Fourier sum.  ``grid`` must be uniform, as
    make_eval_grid gives it, and lie in the identifiable range at every h.
    """
    design = sample.design
    grid = np.atleast_1d(np.asarray(grid, dtype=float))
    full = max(kernels, key=lambda op: op.omega.size)
    for op in kernels:
        if not np.array_equal(op.omega, full.omega[: op.omega.size]):
            raise ValueError("the operators do not share one node rule; "
                             "take them from one spectral_kernels call")
        if grid.size:
            check_identifiable((grid.min(), grid.max()), design.a_n, op.h)
    spectrum = full.transform(design.points, design.weights * sample.responses)
    coeffs = np.zeros((full.omega.size, len(kernels)), dtype=complex)
    for i, op in enumerate(kernels):
        r = op.omega.size
        coeffs[:r, i] = op.factor * spectrum[:r] / op.h
    return fourier_sums(grid, full.omega, coeffs).T
