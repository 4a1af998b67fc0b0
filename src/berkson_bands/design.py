"""Fixed designs on [-1/a_n, 1/a_n] and the data container built on them.

The regular design places w_j = j/(n a_n) for j = -n..n with uniform
weights 1/(n a_n).  General designs come from a density on [0, infinity)
via quantile spacing, mirrored to the negative axis.  The split design
removes every d_n-th point; the removed singletons form the held-out set
used by the variance estimator of the oscillating-error extension.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

__all__ = [
    "Design",
    "RegressionSample",
    "SplitDesign",
    "build_regular",
    "build_from_density",
    "build_split",
    "default_d_n",
    "default_b_n",
    "load_sample",
    "save_sample",
]


@dataclass(frozen=True)
class Design:
    """2n+1 ordered design points with their quadrature weights."""

    n: int
    a_n: float
    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"need n >= 1, got {self.n}")
        if self.a_n <= 0:
            raise ValueError(f"need a_n > 0, got {self.a_n}")
        if len(self.points) != 2 * self.n + 1 or len(self.weights) != 2 * self.n + 1:
            raise ValueError("points and weights must have length 2n+1")
        if np.any(np.diff(self.points) <= 0):
            raise ValueError("design points must be strictly increasing")

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    @property
    def span(self) -> tuple[float, float]:
        return float(self.points[0]), float(self.points[-1])

    def identifiable_range(self, h: float) -> tuple[float, float]:
        """Interval on which estimation at bandwidth h is supported."""
        return (-1.0 / self.a_n + h, 1.0 / self.a_n - h)

    def kernel_span(self, h: float) -> float:
        """Kernel-table span reaching every design point from any x in it."""
        return (self.points[-1] - self.points[0]) / h + 2.0


@dataclass(frozen=True)
class RegressionSample:
    design: Design
    responses: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.responses, dtype=float)
        if len(y) != self.design.size:
            raise ValueError(
                f"got {len(y)} responses for a design of size {self.design.size}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        object.__setattr__(self, "responses", y)


@dataclass(frozen=True)
class SplitDesign:
    """Index bookkeeping for the every-d_n-th-point removal scheme.

    kept/removed hold signed indices j in -n..n.  gap_weights are the
    summation weights for the kept points: the regular weight 1/(n a_n),
    doubled where the left neighbour was removed so the kept points still
    tile the design span.
    """

    base: Design
    d_n: int
    kept: np.ndarray
    removed: np.ndarray
    gap_weights: np.ndarray

    @property
    def kept_positions(self) -> np.ndarray:
        return self.base.points[self.kept + self.base.n]

    @property
    def removed_positions(self) -> np.ndarray:
        return self.base.points[self.removed + self.base.n]


def build_regular(n: int, a_n: float = 2.0 / 3.0) -> Design:
    """Equispaced design w_j = j/(n a_n), j = -n..n, weights 1/(n a_n)."""
    j = np.arange(-n, n + 1, dtype=float)
    points = j / (n * a_n)
    weights = np.full(2 * n + 1, 1.0 / (n * a_n))
    return Design(n=n, a_n=a_n, points=points, weights=weights)


def build_from_density(
    n: int,
    a_n: float,
    density,
    upper: float | None = None,
) -> Design:
    """Design with positive points at the j/(n+1) quantiles of ``density``.

    ``density`` is a nonnegative function on [0, upper] (default upper
    1/a_n); it is normalized internally.  Points are mirrored to the
    negative axis around w_0 = 0, and each point carries the weight
    1/(n f(w_j)) of the adjusted estimator.  The weight at w_0 = 0 uses
    f(0) as well; the handling of the centre point under a general density
    is a modelling choice, not something the construction forces.
    """
    if upper is None:
        upper = 1.0 / a_n
    grid = np.linspace(0.0, upper, 16385)
    vals = np.asarray([density(x) for x in grid], dtype=float)
    if np.any(vals < 0):
        raise ValueError("design density must be nonnegative")
    total = np.trapezoid(vals, grid)
    if total <= 0:
        raise ValueError("design density integrates to zero")
    vals = vals / total
    cdf = np.concatenate(([0.0], np.cumsum((vals[1:] + vals[:-1]) * 0.5 * np.diff(grid))))
    cdf /= cdf[-1]

    def cdf_at(x: float) -> float:
        return float(np.interp(x, grid, cdf))

    pos = np.empty(n)
    for j in range(1, n + 1):
        target = j / (n + 1)
        pos[j - 1] = brentq(lambda x: cdf_at(x) - target, 0.0, upper, xtol=1e-12)
    points = np.concatenate((-pos[::-1], [0.0], pos))
    dens_norm = lambda x: float(np.interp(abs(x), grid, vals))
    weights = np.array([1.0 / (n * max(dens_norm(w), 1e-300)) for w in points])
    return Design(n=n, a_n=a_n, points=points, weights=weights)


def default_d_n(n: int) -> int:
    """Removal stride: max(8, ceil(ln(n)^2.5)) capped at n//4."""
    return min(max(8, math.ceil(math.log(n) ** 2.5)), max(n // 4, 2))


def default_b_n(n: int, a_n: float) -> float:
    """Truncation fraction for the extension process: min(1, a_n ln(n)^2)."""
    return min(1.0, a_n * math.log(n) ** 2)


def build_split(design: Design, d_n: int | None = None) -> SplitDesign:
    """Remove indices -n + k d_n, k = 1..floor(2n/d_n), from the design."""
    n = design.n
    if d_n is None:
        d_n = default_d_n(n)
    if not 2 <= d_n <= 2 * n:
        raise ValueError(f"need 2 <= d_n <= 2n = {2 * n}, got {d_n}")
    removed = np.array(
        [-n + k * d_n for k in range(1, 2 * n // d_n + 1) if -n + k * d_n <= n],
        dtype=int,
    )
    removed_set = set(removed.tolist())
    kept = np.array([j for j in range(-n, n + 1) if j not in removed_set], dtype=int)
    base_w = design.weights[kept + n]
    doubled = np.array([(j - 1) in removed_set for j in kept])
    gap_weights = np.where(doubled, 2.0 * base_w, base_w)
    return SplitDesign(
        base=design, d_n=d_n, kept=kept, removed=removed, gap_weights=gap_weights
    )


def load_sample(path, design: Design, tol: float = 1e-9) -> RegressionSample:
    """Read a (w, Y) CSV with header and validate w against ``design``."""
    ws, ys = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError(f"{path}: expected a two-column (w, Y) CSV with header")
        for row in reader:
            if not row:
                continue
            ws.append(float(row[0]))
            ys.append(float(row[1]))
    w = np.asarray(ws)
    if len(w) != design.size:
        raise ValueError(
            f"{path}: {len(w)} rows for a design of size {design.size}"
        )
    dev = np.max(np.abs(w - design.points))
    if dev > tol:
        raise ValueError(
            f"{path}: design points deviate from the configured design "
            f"by {dev:.3e} (tolerance {tol:.1e})"
        )
    return RegressionSample(design=design, responses=np.asarray(ys))


def save_sample(sample: RegressionSample, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "Y"])
        for w, y in zip(sample.design.points, sample.responses):
            writer.writerow([f"{w:.17g}", f"{y:.17g}"])
