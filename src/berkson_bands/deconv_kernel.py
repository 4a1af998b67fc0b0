"""Band-limited spectral taper and the deconvolution kernel K(.;h).

K(w;h) = (1/2pi) int exp(-itw) phi_k(t) / charfn(-t/h) dt. The taper
phi_k is supported on [-cutoff, cutoff]; dividing by the error law's
Fourier transform undoes the Berkson smoothing up to that frequency.

Two evaluation routes are provided: an adaptive-quadrature reference
(slow, per point) and a tabulation computed with one discrete Fourier
transform plus cubic interpolation (fast, memoized).  The table owns the
scaled argument (w - x)/h: KernelTable.matrix gives the kernel matrix
between evaluation points and design points at the table's bandwidth.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from .noise_models import NoiseModel, NoError

__all__ = ["TaperSpec", "KernelTable", "phi_k", "kernel_eval", "kernel_table"]

# Samples of the integrand on [0, cutoff] for the tabulation transform.
# The integrand has vanishing one-sided derivatives at both endpoints, so
# the trapezoid sum converges at fourth order and this count is ample.
_N_T = 8192
# Cubic interpolation error budget for off-grid kernel reads; the table
# step is refined until (5/384) du^4 sup|K''''| stays below this.
_INTERP_BUDGET = 1e-7
# Tables kept in memory: one CLI request needs six for Lepski selection
# plus the band's error-law and taper tables.
_TABLES_KEPT = 8


@dataclass(frozen=True)
class TaperSpec:
    """Spectral taper choice.

    kind 'smooth_poly': 1 on [-flat_radius*cutoff, ...], then a quintic
    smoothstep bridge down to 0 at |t| = cutoff.  kind 'damped_cutoff':
    the damped spectral cutoff 1 - exp(-(cutoff/t)^2), closed with the
    same bridge over the outer half so the taper stays C^2.  cutoff sets
    the frequency reach; 1.0 reproduces the unit-band convention, while
    simulation presets use larger values tuned per error law.
    """

    kind: str = "damped_cutoff"
    cutoff: float = 1.0
    flat_radius: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("smooth_poly", "damped_cutoff"):
            raise ValueError(f"unknown taper kind {self.kind!r}")
        if self.cutoff <= 0:
            raise ValueError(f"cutoff must be positive, got {self.cutoff}")
        if not 0.0 < self.flat_radius < 1.0:
            raise ValueError(
                f"flat_radius must be in (0,1), got {self.flat_radius}"
            )


def _smoothstep_fall(s):
    """C^2 descent from 1 at s<=0 to 0 at s>=1 (quintic smoothstep)."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def phi_k(t, spec: TaperSpec):
    """Evaluate the taper; symmetric, bounded by 1, zero beyond the cutoff."""
    r = np.abs(np.asarray(t, dtype=float)) / spec.cutoff
    if spec.kind == "smooth_poly":
        d = spec.flat_radius
        return _smoothstep_fall((r - d) / (1.0 - d))
    with np.errstate(divide="ignore"):
        damp = -np.expm1(-1.0 / np.square(r))
    damp = np.where(r == 0.0, 1.0, damp)
    return damp * _smoothstep_fall((r - 0.5) / 0.5)


@dataclass(frozen=True)
class KernelTable:
    """Tabulated K(.;h) on a symmetric uniform grid with cubic reads."""

    h: float
    beta: float
    grid: np.ndarray
    values: np.ndarray
    span: float
    spec: TaperSpec
    noise: NoiseModel

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_spline", CubicSpline(self.grid, self.values, extrapolate=False)
        )

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        amax = float(np.max(np.abs(u))) if u.size else 0.0
        if amax > self.span * (1.0 + 1e-12):
            raise ValueError(
                f"kernel argument {amax:.4g} outside the tabulated span "
                f"{self.span:.4g}; rebuild the table with a larger span"
            )
        return self._spline(np.clip(u, -self.span, self.span))

    def matrix(self, x, points) -> np.ndarray:
        """K((points_j - x_i)/h; h) at the table's h, one row per x_i."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return self((points[None, :] - x[:, None]) / self.h)


def _integrand_samples(spec: TaperSpec, noise: NoiseModel, h: float):
    s = spec.cutoff
    dt = s / _N_T
    t = np.arange(_N_T + 1) * dt
    f = phi_k(t, spec) / noise.charfn(-t / h)
    return t, f, dt


def kernel_eval(u: float, h: float, noise: NoiseModel, spec: TaperSpec) -> float:
    """Adaptive-quadrature reference value of K(u;h), to about 1e-10.

    Splits at the bridge knot and uses a cosine-weighted rule; this is the
    slow path the fast table is checked against.
    """
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    s = spec.cutoff

    def f(t):
        return phi_k(t, spec) / float(noise.charfn(-t / h))

    total = 0.0
    for lo, hi in ((0.0, 0.5 * s), (0.5 * s, s)):
        val, _ = quad(
            f, lo, hi, weight="cos", wvar=float(u), epsabs=1e-10, limit=400
        )
        total += val
    return total / math.pi


@functools.lru_cache(maxsize=_TABLES_KEPT)
def kernel_table(
    h: float,
    noise: NoiseModel,
    spec: TaperSpec,
    grid_len: int = 1 << 14,
    span: float | None = None,
    a_n: float = 2.0 / 3.0,
) -> KernelTable:
    """Tabulate K(.;h) on [-span, span] via a single discrete transform.

    grid_len (a power of two, >= 256) sets the coarsest acceptable grid;
    the step is refined further whenever the interpolation error model
    asks for it, so off-grid reads stay within the 1e-6 agreement budget
    against kernel_eval.  The default span 4/(a_n h) covers every scaled
    argument (w_j - x)/h a band evaluation can produce.  Tables are
    memoized, the last ``_TABLES_KEPT`` per process; the cache key is the
    arguments exactly as passed.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if grid_len < 256 or grid_len & (grid_len - 1):
        raise ValueError(f"grid_len must be a power of two >= 256, got {grid_len}")
    if span is None:
        span = 4.0 / (a_n * h)
    if not span > 0:
        raise ValueError(f"span must be positive, got {span}")

    t, f, dt = _integrand_samples(spec, noise, h)
    # Rigorous bound sup|K''''| <= (1/pi) int t^4 |f| dt drives the step.
    m4 = float(np.trapezoid(t**4 * np.abs(f), t)) / math.pi
    du_acc = (384.0 * _INTERP_BUDGET / (5.0 * max(m4, 1e-300))) ** 0.25
    du_target = min(du_acc, 2.0 * span / grid_len)
    nfft = 1 << max(
        int(math.ceil(math.log2(2.0 * math.pi / (du_target * dt)))),
        int(math.log2(2 * _N_T)),
    )
    spectrum = np.zeros(nfft // 2 + 1)
    spectrum[: _N_T + 1] = f
    half = np.fft.irfft(spectrum, n=nfft) * (nfft * dt / (2.0 * math.pi))
    du = 2.0 * math.pi / (nfft * dt)
    m_max = int(span / du)
    if m_max < 2:
        raise ValueError(f"span {span} too small for the table step {du:.3g}")
    right = half[: m_max + 1]
    grid = np.arange(-m_max, m_max + 1) * du
    values = np.concatenate((right[:0:-1], right))
    return KernelTable(
        h=float(h),
        beta=float(noise.beta),
        grid=grid,
        values=values,
        span=float(grid[-1]),
        spec=spec,
        noise=noise,
    )
