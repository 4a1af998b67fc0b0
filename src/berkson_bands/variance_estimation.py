"""Difference-based estimators of the calibrated noise level.

The calibrated model has heteroscedastic standard deviation nu(.) >=
sigma.  estimate_nu smooths the pseudo squared residuals
(Y_{j+1}-Y_j)^2/2 with a Nadaraya-Watson/Epanechnikov local average and
floors the result away from zero, as the band construction requires.
The band's difference-based local variance uses the same pieces:
midpoints, pseudo_residuals, smoothing_bandwidth, the window smoother
windows, whose Windows.average is both curves' local average, and
shortest_interval.

The Epanechnikov weight 1 - ((m - x)/h_v)^2 is a quadratic in the
midpoint m, so a local average needs only the window sums of r, m r and
m^2 r (Seifert, Brockmann, Engel & Gasser 1994, J. Comput. Graph.
Statist. 3(2); Fan & Marron 1994, ibid. 3(1)).  They come from
cumulative sums, and each window is found by a binary search, so the
smoother costs O(midpoints + points) and stores no weight matrix.  The
midpoints are cut into blocks: the occupied cells of a grid of width
_CELL h_v, a little wider than a window.  Each block has its own centre
and its own cumulative sums, so a window spans at most two blocks,
every power of m is taken about a centre within a few h_v of it, and no
sum runs over more than one block.  Where a window holds a midpoint of
weight at least 1/2 and its residuals lie within a factor 4 of each
other, its average agrees with dense weights to about 1e-14 relative,
wherever the midpoints lie and however many there are.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .design import RegressionSample, ordered_interval

__all__ = ["VarianceCurve", "estimate_nu"]

# Width of the smoother's blocks in units of h_v: a window is 2 h_v wide,
# and the margin keeps it within two blocks whatever the rounding.
_CELL = 2.5


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


def _blocks(mids: np.ndarray, h_v: float):
    """The first position of each block of midpoints, with the end
    appended; the block centres c, with the last one repeated for the
    empty block after them; and the powers 1, d and d^2 of d = (m - c)/h_v
    for every midpoint m and the centre c of its block, a 3 x blocks x
    (largest block) array, zero past each block's last midpoint."""
    width = _CELL * h_v
    cell = np.floor((mids - mids[0]) / width)
    first = np.append(np.flatnonzero(np.diff(cell, prepend=-1.0)), mids.size)
    centre = mids[0] + (cell[first[:-1]] + 0.5) * width
    count = np.diff(first)
    block = np.repeat(np.arange(count.size), count)
    slot = np.arange(mids.size) - first[block]
    d = (mids - centre[block]) / h_v
    moments = np.zeros((3, count.size, int(count.max())))
    moments[:, block, slot] = np.ones(mids.size), d, d * d
    return first, np.append(centre, centre[-1]), moments


def _table(moments: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cumulative sums of ``moments`` times r within each block, from 0
    at the block's start, and a block of zeros after the last."""
    _, blocks, size = moments.shape
    padded = np.zeros((blocks, size))
    padded[moments[0] > 0.0] = r  # each block's midpoints, in order
    sums = np.zeros((3, blocks + 1, size + 1))
    np.cumsum(moments * padded, axis=2, out=sums[:, :blocks, 1:])
    return sums


def _read(sums: np.ndarray, index: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Epanechnikov-weighted window sums sum_m (1 - ((m - x)/h_v)^2) r_m
    from a _table of r, at the positions ``index`` with the weights
    ``coef``."""
    parts = np.take(sums, index, mode="clip")  # in range; clip skips the check
    parts[1] -= parts[0]
    return np.einsum("jkp,jkp->p", parts[1:], coef)


@dataclass(frozen=True)
class Windows:
    """The Epanechnikov windows of the midpoints around a point set (see
    windows), with their weight sums ``sums``."""

    moments: np.ndarray
    index: np.ndarray
    coef: np.ndarray
    sums: np.ndarray

    def average(self, r: np.ndarray) -> np.ndarray:
        """Each window's weighted average of the residuals r."""
        return _read(_table(self.moments, r), self.index, self.coef) / self.sums


def windows(mids: np.ndarray, h_v: float, x) -> Windows:
    """The windows around each x.

    The window around x holds the midpoints m with |m - x| < h_v, those
    of positive weight; those of its first block and those of the next
    are read separately.  ``moments`` are those of _blocks, ``index``
    the positions in a _table of each power's sum at the window's start,
    at its end within the first block and at its end in the next block
    (3 x 3 x points), and ``coef`` each part's weights (1 - t^2, 2t, -1)
    of the powers, with t = (x - c)/h_v (2 x 3 x points).  Raises when
    the window around some x holds no midpoint.
    """
    x = np.asarray(x, dtype=float)
    lo = np.searchsorted(mids, x - h_v, side="right")
    hi = np.searchsorted(mids, x + h_v, side="left")
    # x -+ h_v may round onto a midpoint just inside the window; m - x is
    # exact for m near x
    lo -= (lo > 0) & (x - mids[np.maximum(lo - 1, 0)] < h_v)
    hi += (hi < mids.size) & (mids[np.minimum(hi, mids.size - 1)] - x < h_v)
    empty = int(np.count_nonzero(hi <= lo))
    if empty:
        raise ValueError(
            f"empty smoothing window at {empty} of {x.size} evaluation points"
        )
    first, centre, moments = _blocks(mids, h_v)
    size = moments.shape[2]
    block = np.searchsorted(first, lo, side="right") - 1
    row = block * (size + 1)
    rows = np.stack((row + lo - first[block],
                     row + np.minimum(hi - first[block], size),
                     row + size + 1 + np.maximum(hi - first[block + 1], 0)))
    power = (first.size * (size + 1)) * np.arange(3)
    t = (x - np.stack((centre[block], centre[block + 1]))) / h_v
    coef = np.stack((1.0 - t * t, 2.0 * t, np.full_like(t, -1.0)), axis=1)
    index = rows[:, None, :] + power[:, None]
    return Windows(moments, index, coef,
                   _read(_table(moments, np.ones(mids.size)), index, coef))


@dataclass(frozen=True)
class VarianceCurve:
    """Standard-deviation curve x -> nu_hat(x) with a hard positive floor."""

    midpoints: np.ndarray
    residuals: np.ndarray
    h_v: float
    floor: float

    def variance(self, x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.maximum(windows(self.midpoints, self.h_v, x).average(self.residuals),
                         self.floor**2)
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return np.sqrt(self.variance(x))


def estimate_nu(
    sample: RegressionSample,
    interval: tuple[float, float],
    mask: np.ndarray | None = None,
) -> VarianceCurve:
    """Smoothed standard-deviation curve from pseudo squared residuals.

    ``mask`` holds the positions of the observations to use (the held-out
    split of the extension), strictly increasing integers in [0, size);
    residuals pair consecutive selected points.  The smoothing bandwidth
    is h_v = (b - a) m^(-1/5) over ``interval`` = (a, b), m the number of
    points used (smoothing_bandwidth); an interval so short that h_v is
    at most half the largest gap between them raises.  The floor is
    max(sigma_hat/2, 1e-8) with sigma_hat the difference-based level of
    the same subsequence.
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
    r = pseudo_residuals(y)
    h_v = smoothing_bandwidth(ordered_interval(interval), len(w))
    spacing = float(np.max(np.diff(w))) if len(w) > 1 else 0.0
    if h_v <= 0.5 * spacing:
        raise ValueError(
            f"h_v={h_v:.4g} is below the data spacing {spacing:.4g}; "
            f"smoothing windows would be empty"
        )
    mean_r = float(np.mean(r))
    if mean_r == 0.0:
        warnings.warn(
            "constant responses: variance curve reduced to its floor",
            RuntimeWarning,
            stacklevel=2,
        )
    floor = max(np.sqrt(mean_r) / 2.0, 1e-8)
    return VarianceCurve(
        midpoints=midpoints(w),
        residuals=r,
        h_v=h_v,
        floor=float(floor),
    )
