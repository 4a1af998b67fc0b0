"""Difference-based estimators of the calibrated noise level.

The calibrated model has heteroscedastic standard deviation nu(.) >=
sigma.  estimate_nu smooths the pseudo squared residuals
(Y_{j+1}-Y_j)^2/2 with a Nadaraya-Watson/Epanechnikov local average and
floors the result away from zero, as the band construction requires.
The band's difference-based local variance uses the same pieces:
midpoints, pseudo_residuals, smoothing_bandwidth, smoothing_weights and
shortest_interval.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .design import RegressionSample, ordered_interval

__all__ = ["VarianceCurve", "estimate_nu"]


def midpoints(w: np.ndarray) -> np.ndarray:
    """Midpoints (w_j + w_{j+1})/2, where the pseudo-residuals sit."""
    return 0.5 * (w[1:] + w[:-1])


def pseudo_residuals(y: np.ndarray) -> np.ndarray:
    """Pseudo squared residuals (Y_{j+1} - Y_j)^2 / 2."""
    return 0.5 * (y[1:] - y[:-1]) ** 2


def smoothing_bandwidth(interval: tuple[float, float], size: int) -> float:
    """Default local-variance bandwidth (b - a) * size^(-1/5)."""
    a, b = interval
    return max((b - a), 1e-12) * size ** (-0.2)


def shortest_interval(mids: np.ndarray, x, size: int) -> float:
    """Interval length that leaves no smoothing window around ``x`` empty.

    The window around x holds a midpoint once h_v = length * size^(-1/5)
    (smoothing_bandwidth) exceeds the distance from x to its nearest
    midpoint, so any length above the returned one works.
    """
    i = np.clip(np.searchsorted(mids, x), 1, len(mids) - 1)
    gap = np.minimum(np.abs(x - mids[i - 1]), np.abs(mids[i] - x))
    return float(np.max(gap)) * size**0.2


def smoothing_weights(mids: np.ndarray, x, h_v: float):
    """Epanechnikov weights of ``mids`` around each x, and their row sums.

    Raises when the window around some x holds no midpoint.
    """
    u = (mids[None, :] - x[:, None]) / h_v
    wts = np.maximum(1.0 - u**2, 0.0)
    sums = wts.sum(axis=1)
    empty = int(np.count_nonzero(sums <= 0.0))
    if empty:
        raise ValueError(
            f"empty smoothing window at {empty} of {len(sums)} evaluation points"
        )
    return wts, sums


@dataclass(frozen=True)
class VarianceCurve:
    """Standard-deviation curve x -> nu_hat(x) with a hard positive floor."""

    midpoints: np.ndarray
    residuals: np.ndarray
    h_v: float
    floor: float
    degenerate: bool = False

    def variance(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        wts, sums = smoothing_weights(self.midpoints, x, self.h_v)
        out = np.maximum(wts @ self.residuals / sums, self.floor**2)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return np.sqrt(self.variance(x))


def estimate_nu(
    sample: RegressionSample,
    h_v: float | None = None,
    interval: tuple[float, float] | None = None,
    mask: np.ndarray | None = None,
) -> VarianceCurve:
    """Smoothed standard-deviation curve from pseudo squared residuals.

    ``mask`` holds the positions of the observations to use (the held-out
    split of the extension), strictly increasing integers in [0, size);
    residuals pair consecutive selected points.
    The default bandwidth is (b-a) * n_points^(-1/5) over the requested
    interval, and the floor is max(sigma_hat/2, 1e-8) with sigma_hat the
    difference-based level of the same subsequence.
    """
    w = sample.design.points
    y = sample.responses
    if mask is not None:
        idx = np.asarray(mask)
        if idx.ndim != 1 or idx.dtype.kind not in "iu":
            raise ValueError(
                f"mask must be a 1-d array of integer positions, got {idx.dtype} "
                f"of shape {idx.shape}")
        if len(idx) < 2:
            raise ValueError("mask must select at least two observations")
        if not (idx[0] >= 0 and idx[-1] < len(w) and np.all(idx[1:] > idx[:-1])):
            raise ValueError(
                f"mask positions must be strictly increasing in [0, {len(w)})")
        w, y = w[idx], y[idx]
    if interval is None:
        interval = (float(w[0]), float(w[-1]))
    interval = ordered_interval(interval)
    r = pseudo_residuals(y)
    mids = midpoints(w)
    if h_v is None:
        h_v = smoothing_bandwidth(interval, len(w))
    spacing = float(np.max(np.diff(w))) if len(w) > 1 else 0.0
    if h_v <= 0.5 * spacing:
        raise ValueError(
            f"h_v={h_v:.4g} is below the data spacing {spacing:.4g}; "
            f"smoothing windows would be empty"
        )
    mean_r = float(np.mean(r))
    degenerate = mean_r == 0.0
    if degenerate:
        warnings.warn(
            "constant responses: variance curve reduced to its floor",
            RuntimeWarning,
            stacklevel=2,
        )
    floor = max(np.sqrt(mean_r) / 2.0, 1e-8)
    return VarianceCurve(
        midpoints=mids,
        residuals=r,
        h_v=float(h_v),
        floor=float(floor),
        degenerate=degenerate,
    )
