"""Multiplier-bootstrap uniform confidence bands.

The band is ghat(x) +/- qhat * nuhat(x) / (sqrt(n a_n) h^(1/2+beta)),
where qhat is the empirical (1-alpha)-quantile of M supremum draws of a
Gaussian multiplier process over the evaluation grid.

Draws are studentized: each multiplier is weighted by nuhat at its
design point and the process is divided by nuhat at the evaluation
point, so the draw geometry matches the limiting process of the
estimator exactly when nuhat is correct.  The default nuhat is a
model-assisted field: the local variance induced by the known error law
acting on a pilot estimate of the regression, recentred by the
estimator's own spurious-variation term, floored by a fraction of a
difference-based local estimate, and smoothed with the squared kernel
weights so its shape matches what the supremum actually feels.

Every kernel matrix a band needs from the grid or the pilot points to
the design points is held as low-rank factors left @ basis.T, basis on
the design side (deconv_kernel.SpectralKernel.factors, squared_kernel);
between design points K^2 is Toeplitz, applied by FFT as binned kernel
sums are (_lag_spectrum; Silverman 1982, Wand 1994).  No band builds a
kernel table or a dense kernel matrix.  The multiplier
process lives in the rank coordinates of K's basis: a draw takes rank
normals, not one per design point, and costs (rank + grid) x rank
(_sup_batch).  Its factor is the Cholesky factor of the rank x rank
Gram matrix of the multiplier-weighted basis, or a Householder QR of
that basis where the Cholesky fails (_draw_factor).  The basis is turned
by the right singular vectors of K's grid factor where it is built
(_oriented), so rounding stays in the directions the grid barely sees,
and the draws depend neither on how the basis was found nor on the BLAS
thread count.

The pilot regression is a not-a-knot cubic spline over the pilot
points, solved here in numpy (_spline_coefficients).  A spline is linear
in its data, so the workspace holds the spline of every kernel factor
column, and a band's pilot spline is one product with it.  Like the
kernel operators, bands need numpy alone.
"""
from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .deconv_kernel import TaperSpec, fourier_sums, spectral_kernels, squared_kernel
from .design import (Design, RegressionSample, _caller_stacklevel, _is_int,
                     build_split, check_identifiable, default_b_n,
                     identifiable_range, ordered_interval, write_columns)
from .noise_models import Laplace, LaplaceMixture, NoError, NoiseModel
from .variance_estimation import (Windows, estimate_nu, midpoints,
                                  pseudo_residuals, shortest_interval,
                                  smoothing_bandwidth, windows)

__all__ = [
    "BandRequest",
    "BandResult",
    "EvalGrid",
    "make_eval_grid",
    "quantile",
    "build_band",
    "build_band_extension",
    "default_taper",
    "write_band",
]

# Fraction of the difference-based local variance kept as a lower bound
# on the model-assisted field; guards against pilot-estimate flattening.
_NW_FLOOR_FRAC = 0.7
# Pilot curves live on this many points spanning the clamp range.
_XE_POINTS = 900
# The pilot range stays this many bandwidths inside the design span.
_CLAMP_FACTOR = 1.2
# _error_moments reads splines in blocks of about this many values (plus
# one error window); its FFT correlation then peaks at 13 MB on gb_n750_s05.
_READ_ELEMS = 1 << 18


@dataclass(frozen=True)
class BandRequest:
    interval: tuple[float, float]
    h: float
    alpha: float = 0.05
    draws: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "interval", ordered_interval(self.interval))
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(
                f"bandwidth must be positive and finite, got {self.h}")
        if not _is_int(self.draws):
            raise ValueError(f"draws must be an integer, got {self.draws!r}")
        if self.draws < 1:
            raise ValueError(f"need at least one draw, got {self.draws}")
        if not _is_int(self.seed) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if self.draws < 100:
            warnings.warn(
                f"only {self.draws} multiplier draws; quantiles will be "
                f"unstable below 100",
                UserWarning,
                stacklevel=_caller_stacklevel(),
            )


@dataclass(frozen=True)
class BandResult:
    grid: np.ndarray
    ghat: np.ndarray
    nuhat: np.ndarray
    quantile: float
    half_width: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    h: float
    alpha: float
    draws: int
    seed: int
    spacing: float

    @property
    def mean_width(self) -> float:
        return float(np.mean(2.0 * self.half_width))

    def covers(self, values) -> bool:
        """True when the curve ``values`` lies inside the band everywhere."""
        v = np.asarray(values, dtype=float)
        return bool(np.all((v >= self.lower) & (v <= self.upper)))


@dataclass(frozen=True)
class EvalGrid:
    points: np.ndarray
    spacing: float


def default_taper(noise: NoiseModel) -> TaperSpec:
    """Per-error-law taper preset (frequency reach tuned per class)."""
    if noise.smoothness_class == "W":
        return TaperSpec(kind="damped_cutoff", cutoff=16.0)
    return TaperSpec(kind="damped_cutoff", cutoff=5.5)


def make_eval_grid(
    interval: tuple[float, float], n: int, a_n: float, h: float
) -> EvalGrid:
    """Uniform grid over ``interval`` with spacing <= sqrt(h)/(n sqrt(a_n)),
    the fewest points that keep to that bound; a single point when the
    interval is one."""
    a, b = ordered_interval(interval)
    check_identifiable((a, b), a_n, h)
    if b == a:
        return EvalGrid(points=np.array([a], dtype=float), spacing=0.0)
    bound = math.sqrt(h) / (n * math.sqrt(a_n))
    m = int(math.ceil((b - a) / bound))
    return EvalGrid(points=np.linspace(a, b, m + 1), spacing=(b - a) / m)


def quantile(sups, level: float) -> float:
    """Empirical quantile as the ceil(M*level)-th order statistic."""
    sups = np.sort(np.asarray(sups, dtype=float))
    m = len(sups)
    if m < 1:
        raise ValueError("need at least one supremum draw")
    if not 0.0 < level <= 1.0:
        raise ValueError(f"level must be in (0,1], got {level}")
    return float(sups[min(int(math.ceil(m * level)), m) - 1])


def _draw_factor(core_t: np.ndarray) -> np.ndarray:
    """Upper-triangular R with a non-negative diagonal and R.T @ R = G,
    the Gram matrix core_t.T @ core_t; c core_t gives c R for c > 0.

    R is G's Cholesky factor, much cheaper than a QR of the design x rank
    core_t.  Where the Cholesky fails (a split band's process that barely
    reaches some basis directions), R comes from a Householder QR of
    core_t, rows signed so that the diagonal is >= 0, which needs no full
    rank.  Column k of R depends on the first k + 1 columns of core_t
    alone, and _oriented puts the directions the grid barely sees last,
    so where both routes run their draws agree to rounding."""
    try:
        return np.linalg.cholesky(core_t.T @ core_t, upper=True)
    except np.linalg.LinAlgError:
        r = np.linalg.qr(core_t, mode="r")
        return r * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)[:, None]


def _sup_batch(core_t: np.ndarray, grid_t: np.ndarray, nu_g: np.ndarray,
               coef: float, draws: int, root_seed: int) -> np.ndarray:
    """Supremum draws of |coef * sum_j Z_j (core_t @ grid_t)[j, x]| / nu_g(x).

    Row j of ``core_t`` belongs to design point j; a point left out of
    the process has a zero row.  Given the data, the process Z @ core_t,
    Z ~ N(0, I_design), is a centred Gaussian with covariance
    core_t.T @ core_t, which is the law of z @ R for z ~ N(0, I_rank)
    and R = _draw_factor(core_t), the triangular factor of that
    covariance.  So a draw takes rank normals instead of one per design
    point, and costs (rank + grid) x rank.  All draws come from one
    generator seeded with SeedSequence(root_seed), so different seeds
    give independent streams.  The supremum of |v| is taken as
    max(max v, -min v), which is the same number without writing |v|.
    """
    r = _draw_factor(core_t)
    z = np.random.default_rng(root_seed).standard_normal((draws, r.shape[0]))
    out = (z @ r) @ (grid_t * (abs(coef) / nu_g))
    return np.maximum(out.max(axis=1), -out.min(axis=1))


def _oriented(basis: np.ndarray, lefts: list[np.ndarray]):
    """(basis, lefts), SpectralKernel.factors with the grid factor kg
    first, turned by the right singular vectors of kg, largest first, and
    each column signed by its first entry, in design order, of at least
    half its peak magnitude (the peak itself ties between mirror entries
    on a symmetric interval).  Every left @ basis.T is unchanged.  The
    directions whose singular values are distinct and above rounding
    depend on the span alone; the rest the grid barely sees, so the draws
    depend neither on the sketch nor on how the BLAS rounds.  The vectors
    come from the R of a QR of kg: rank x rank even on a grid with fewer
    points than the rank."""
    v = np.linalg.svd(np.linalg.qr(lefts[0], mode="r"))[2].T
    basis = basis @ v
    mag = np.abs(basis)
    first = np.argmax(mag >= 0.5 * mag.max(axis=0), axis=0)
    sign = np.where(basis[first, np.arange(basis.shape[1])] < 0.0, -1.0, 1.0)
    return basis * sign, [left @ (v * sign) for left in lefts]


# ---------------------------------------------------------------------------
# geometry shared by every band built for the same (design, noise, h, interval)

# Workspaces kept in memory; one holds 8.2 MB on gb_n750_s05 (n = 750):
# kernel factors, 1.7 MB of pilot spline coefficients, 0.3 MB of windows.
_WS_KEEP = 3


@dataclass
class _Workspace:
    """Kernel factors, error-law nodes and smoothing windows of a band.

    From the grid to the design points K((w_j - x)/h) is kg @ basis.T and
    K^2 is k2g @ basis2.T, basis and basis2 orthonormal.  Between design
    points K^2 and the squared taper kernel are Toeplitz, with spectra
    k2ww and kt2ww (_lag_spectrum).  ck @ v holds the pilot spline on xe
    through (K on xe) @ v, and spur @ v the error-law moment
    (_error_moments on ``lattice``) of the one through (K^2 on xe) @
    basis2 @ v.  An error-free law has no pilot variance term, and the
    fields only it needs (ck, spur, kt2ww, lattice) are None.  ``vwin``
    holds the local-variance windows at xe, then at the design points.
    No field is design x error grid or design x design.
    """

    eg: EvalGrid
    basis: np.ndarray
    kg: np.ndarray
    ck: np.ndarray | None
    basis2: np.ndarray
    k2g: np.ndarray
    spur: np.ndarray | None
    k2sg: np.ndarray
    k2ww: np.ndarray
    k2sw: np.ndarray
    kt2ww: np.ndarray | None
    xe: np.ndarray
    lattice: tuple | None
    vwin: Windows


def _lag_spectrum(op, design: Design) -> np.ndarray:
    """Real rfft of the power-of-two circulant embedding the Toeplitz matrix
    K((w_j - w_i)/h)^2 of the design, K the operator ``op``: its first column
    is the lags K(k dw)^2, k = 0..2n, zeros, then the lags mirrored."""
    lags = fourier_sums(np.arange(design.size) / (design.n * design.a_n),
                        op.omega, op.factor[:, None])[:, 0] ** 2
    pad = (1 << (2 * lags.size - 2).bit_length()) - 2 * lags.size + 1
    return np.fft.rfft(np.concatenate((lags, np.zeros(pad), lags[:0:-1]))).real


def _toeplitz(spectrum: np.ndarray, v: np.ndarray) -> np.ndarray:
    """T @ v for T the Toeplitz matrix of ``spectrum`` (_lag_spectrum): one
    FFT round trip of v, zero-padded to the circulant's length."""
    return np.fft.irfft(spectrum * np.fft.rfft(v, 2 * spectrum.size - 2))[: v.size]


def _error_lattice(noise: NoiseModel, design: Design):
    """(delta, fwt, stride): nodes delta_d = d tau, d = -D..D, past 16/a
    (plus the mixture's shift), tau = dw/L no coarser than the reach over
    320 (Laplace) or 400 (mixture), dw = 1/(n a_n); trapezoid weights
    times the error density, summing to 1; and the stride of _read_points:
    L while neighbouring design points share over half their 2D + 1 read
    points, else 2D + 1.  None for an error-free law."""
    if isinstance(noise, Laplace):
        reach, cells = 16.0 / noise.a, 640
    elif isinstance(noise, LaplaceMixture):
        reach, cells = noise.mu + 16.0 / noise.a, 800
    else:
        return None
    dw = 1.0 / (design.n * design.a_n)
    lstep = max(1, math.ceil(dw * cells / (2.0 * reach)))
    half = math.ceil(reach * lstep / dw)
    delta = np.arange(-half, half + 1) * (dw / lstep)
    fwt = noise.density(delta) * np.r_[0.5, np.ones(delta.size - 2), 0.5]
    return delta, fwt / fwt.sum(), lstep if 2 * lstep < delta.size else delta.size


def _read_points(w, delta, stride, xe) -> np.ndarray:
    """Point j stride + d + D is w_j + delta_d, clipped to xe's range."""
    points = np.concatenate((np.add.outer(w, delta[:stride]).ravel(),
                             w[-1] + delta[stride:]))
    return np.clip(points, xe[0], xe[-1], out=points)


@functools.lru_cache(maxsize=_WS_KEEP)
def _workspace(design: Design, noise: NoiseModel, spec: TaperSpec, h: float,
               interval: tuple[float, float]) -> _Workspace:
    n, a_n = design.n, design.a_n
    w = design.points
    eg = make_eval_grid(interval, n, a_n, h)
    clamp_lo, clamp_hi = identifiable_range(a_n, _CLAMP_FACTOR * h)
    if clamp_lo >= clamp_hi:
        raise ValueError(f"bandwidth h={h} too large for the design span")
    xe = np.linspace(clamp_lo, clamp_hi, _XE_POINTS)
    # every evaluation point lies in the design span
    reach = float(w[-1] - w[0])
    (kernel,) = spectral_kernels([h], noise, spec, reach)
    basis, (kg, ke) = _oriented(*kernel.factors(w, eg.points, xe))
    basis2, (k2g, k2e) = squared_kernel(h, noise, spec, reach).factors(w, eg.points, xe)
    k2sg = np.maximum(k2g @ (basis2.T @ np.ones(design.size)), 1e-300)
    k2ww = _lag_spectrum(kernel, design)
    k2sw = np.maximum(_toeplitz(k2ww, np.ones(design.size)), 1e-300)

    lattice = _error_lattice(noise, design)
    if lattice is None:
        ck = spur = kt2ww = None
    else:
        # one solve for both: the elimination runs column by column
        both = _spline_coefficients(xe, np.hstack((ke, k2e)))
        spur = _error_moments(xe, both[..., ke.shape[1] :], w, lattice)
        ck = np.ascontiguousarray(both[..., : ke.shape[1]])
        kt2ww = _lag_spectrum(spectral_kernels([h], NoError(), spec, reach)[0], design)

    mids = midpoints(w)
    hv = smoothing_bandwidth(interval, design.size)
    vpoints = np.concatenate((xe, w))
    try:
        vwin = windows(mids, hv, vpoints)
    except ValueError as exc:
        shortest = shortest_interval(mids, vpoints, design.size)
        raise _too_short(interval, exc, shortest) from None

    return _Workspace(
        eg=eg, basis=basis, kg=kg, ck=ck, basis2=basis2, k2g=k2g, spur=spur,
        k2sg=k2sg, k2ww=k2ww, k2sw=k2sw, kt2ww=kt2ww, xe=xe, lattice=lattice,
        vwin=vwin)


def _too_short(interval, cause, shortest: float) -> ValueError:
    """The error of an interval whose local variance estimate fails."""
    return ValueError(f"interval [{interval[0]}, {interval[1]}] is too short for "
                      f"the local variance estimate: {cause}; use an interval "
                      f"longer than {shortest:.6g}")


def _spline_coefficients(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Not-a-knot cubic splines through the columns of ``y`` at the knots
    ``x`` (at least four, increasing): a 4 x (len(x) - 1) x columns array
    of each cell's coefficients, highest power first.

    The knot slopes s solve the tridiagonal system of scipy's
    CubicSpline with not-a-knot ends, by elimination without pivoting:
    after the first row every pivot dominates its row, so no pivot
    shrinks.
    """
    dx = np.diff(x)
    slope = np.diff(y, axis=0) / dx[:, None]
    ends = (x[2] - x[0], x[-1] - x[-3])
    lower = [*dx[1:], ends[1]]  # row i holds lower[i - 1], diag[i], upper[i]
    diag = [dx[1], *(2.0 * (dx[:-1] + dx[1:])), dx[-2]]
    upper = [ends[0], *dx[:-1]]
    s = np.empty_like(slope, shape=y.shape)
    s[0] = ((dx[0] + 2.0 * ends[0]) * dx[1] * slope[0]
            + dx[0] ** 2 * slope[1]) / ends[0]
    s[1:-1] = 3.0 * (dx[1:, None] * slope[:-1] + dx[:-1, None] * slope[1:])
    s[-1] = (dx[-1] ** 2 * slope[-2]
             + (2.0 * ends[1] + dx[-1]) * dx[-2] * slope[-1]) / ends[1]
    for i in range(1, x.size):
        f = lower[i - 1] / diag[i - 1]
        diag[i] -= f * upper[i - 1]
        s[i] -= f * s[i - 1]
    s[-1] /= diag[-1]
    for i in range(x.size - 2, -1, -1):
        s[i] = (s[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2.0 * slope) / dx[:, None]
    return np.stack((t / dx[:, None], (slope - s[:-1]) / dx[:, None] - t,
                     s[:-1], y[:-1]))


def _spline_read(xe: np.ndarray, coef: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The pieces ``coef`` (_spline_coefficients over the knots xe) read at
    the points x, within xe's range, by Horner's rule in each one's cell."""
    cell = np.minimum(np.searchsorted(xe, x, side="right") - 1, xe.size - 2)
    offset = (x - xe[cell]).reshape(x.shape + (1,) * (coef.ndim - 2))
    out = np.take(coef[0], cell, axis=0)
    for c in coef[1:]:
        out *= offset
        out += np.take(c, cell, axis=0)
    return out


def _error_moments(xe, coef, w, lattice, square=False) -> np.ndarray:
    """sum_d fwt_d s(w_j + delta_d), design x column, for s the spline
    pieces ``coef`` (with ``square``, s and then s^2), in blocks of design
    rows of about _READ_ELEMS read points x columns.  Disjoint windows are
    summed one by one, overlapping ones by FFT correlation with fwt."""
    delta, fwt, stride = lattice
    rows = max(1, _READ_ELEMS // (stride * coef.shape[-1]))
    out = []
    for j in range(0, w.size, rows):
        v = _spline_read(xe, coef, _read_points(w[j : j + rows], delta, stride, xe))
        v = np.hstack((v, v * v)) if square else v
        if stride == fwt.size:
            out.append(fwt @ v.reshape(-1, fwt.size, v.shape[1]))
        else:
            nfft = 1 << (v.shape[0] - 1).bit_length()
            spec = np.fft.rfft(v, nfft, axis=0) * np.fft.rfft(fwt[::-1], nfft)[:, None]
            out.append(np.fft.irfft(spec, nfft, axis=0)[fwt.size - 1 : v.shape[0] : stride])
    return np.vstack(out)


def _band_variance_field(sample: RegressionSample, ws: _Workspace, h: float):
    """Calibrated variance field evaluated at design points and on the grid.

    Pieces: v_nw, the difference-based local variance; vmod, the variance
    of the pilot regression under the error law, debiased by the pilot's
    own sampling variation (spur1 - spur2); a global noise floor s2min
    taken over the full pilot range; the v_nw fraction floor; and squared
    kernel weight smoothing with a sigma^2/4 floor.  The moments over the
    error law are trapezoid sums, weights fwt.
    """
    wts = sample.design.weights
    y = sample.responses
    r = pseudo_residuals(y)
    v_nw = ws.vwin.average(r)
    v_nw_e, v_nw_w = v_nw[: ws.xe.size], v_nw[ws.xe.size :]
    s2min = float(np.min(v_nw_e))
    sc2 = float(np.mean(r))

    if ws.lattice is None:
        vmod = np.zeros(sample.design.size)
    else:
        pilot = (ws.ck @ (ws.basis.T @ (wts * y)) / h)[..., None]
        m1, m2 = _error_moments(ws.xe, pilot, sample.design.points, ws.lattice,
                                square=True).T
        vm = np.maximum(m2 - m1**2, 0.0)
        spur1 = ws.spur @ (ws.basis2.T @ (wts**2 * v_nw_w)) / h**2
        spur2 = _toeplitz(ws.kt2ww, wts**2 * v_nw_w) / h**2
        vmod = np.maximum(vm - np.maximum(spur1 - spur2, 0.0), 0.0)

    vw = np.maximum(vmod + s2min, _NW_FLOOR_FRAC * v_nw_w)
    # the absolute floor keeps constant responses from giving 0/0
    floor2 = max(sc2 / 4.0, 1e-16)
    nu_w = np.sqrt(np.maximum(_toeplitz(ws.k2ww, vw) / ws.k2sw, floor2))
    nu_g = np.sqrt(np.maximum((ws.k2g @ (ws.basis2.T @ vw)) / ws.k2sg, floor2))
    return nu_w, nu_g


def _assemble(
    sample: RegressionSample,
    request: BandRequest,
    beta: float,
    eg: EvalGrid,
    kg: np.ndarray,
    basis: np.ndarray,
    est_w: np.ndarray,
    mult_w: np.ndarray,
    nu_g: np.ndarray,
) -> BandResult:
    """Band from the kernel factors K((w_j - x_i)/h) = (kg @ basis.T)[i, j].

    ghat sums the responses with the estimator weights ``est_w``; the
    multiplier process weights design point j by ``mult_w[j]`` (its
    estimator weight times nuhat at w_j) and is studentized by ``nu_g``.
    """
    design = sample.design
    n, a_n, h = design.n, design.a_n, request.h
    ghat = kg @ (basis.T @ (est_w * sample.responses)) / h
    coef = h**beta / math.sqrt(n * a_n * h)
    core_t = basis * (mult_w * n * a_n)[:, None]
    sups = _sup_batch(core_t, kg.T, nu_g, coef, request.draws, request.seed)
    q = quantile(sups, 1.0 - request.alpha)
    denom = math.sqrt(n * a_n) * h ** (0.5 + beta)
    half = q * nu_g / denom
    return BandResult(
        grid=eg.points.copy(),  # a cached workspace's grid serves later bands
        ghat=ghat,
        nuhat=nu_g,
        quantile=q,
        half_width=half,
        lower=ghat - half,
        upper=ghat + half,
        h=h,
        alpha=request.alpha,
        draws=request.draws,
        seed=request.seed,
        spacing=eg.spacing,
    )


def build_band(
    sample: RegressionSample,
    request: BandRequest,
    noise: NoiseModel,
    taper: TaperSpec | None = None,
) -> BandResult:
    """Uniform confidence band for g over the requested interval, on the
    evaluation grid of make_eval_grid.

    The calibrated variance field is estimated from the sample; ``taper``
    defaults to default_taper(noise).
    """
    design = sample.design
    spec = taper if taper is not None else default_taper(noise)
    ws = _workspace(design, noise, spec, request.h, request.interval)
    nu_w, nu_g = _band_variance_field(sample, ws, request.h)
    return _assemble(sample, request, noise.beta, ws.eg, ws.kg, ws.basis,
                     design.weights, design.weights * nu_w, nu_g)


def build_band_extension(
    sample: RegressionSample,
    request: BandRequest,
    noise: NoiseModel,
    taper: TaperSpec | None = None,
    d_n: int | None = None,
    b_n: float | None = None,
) -> BandResult:
    """Split band for oscillating (weakly ordinary smooth) error laws.

    The removal-based construction that backs the theory: the assembly
    of build_band over a reweighted design, with gap weights on the kept
    points and zero on the removed ones, the multiplier process truncated
    to |j| <= n b_n, and the variance curve estimated from the removed
    singletons.  build_band itself serves every error law.  A b_n that
    is not finite, or that leaves no kept point in the process, raises a
    ValueError naming b_n, a d_n that holds out one point one naming d_n,
    and a too short interval one giving the shortest length that works.
    """
    if noise.smoothness_class != "W":
        raise ValueError(
            "the split band needs an oscillating error law, such as a "
            "Laplace mixture; a smooth-class law takes the plain band"
        )
    spec = taper if taper is not None else default_taper(noise)
    design = sample.design
    n, a_n, h = design.n, design.a_n, request.h
    sd = build_split(design, d_n)
    if b_n is None:
        b_n = default_b_n(n, a_n)
    carry = sd.kept[np.abs(sd.kept) <= n * b_n] + n
    if not (math.isfinite(b_n) and carry.size):
        raise ValueError(
            f"b_n must be finite and keep a design point j with "
            f"|j| <= n b_n in the multiplier process, got {b_n}")
    eg = make_eval_grid(request.interval, n, a_n, h)
    w = design.points
    held = sd.removed + n
    if held.size < 2:
        raise ValueError(f"d_n={sd.d_n} holds out one design point; the "
                         f"variance curve needs at least two")
    try:
        nu = estimate_nu(sample, request.interval, mask=held)(
            np.concatenate((w[carry], eg.points)))
    except ValueError as exc:
        raise _too_short(request.interval, exc,
                         _split_shortest(w[held], w[carry], a_n, h)) from None
    (kernel,) = spectral_kernels([h], noise, spec, design.reach(request.interval))
    basis, (kg,) = _oriented(*kernel.factors(w, eg.points))

    est_w = np.zeros(design.size)
    est_w[sd.kept + n] = sd.gap_weights
    mult_w = np.zeros(design.size)
    mult_w[carry] = est_w[carry] * nu[: carry.size]
    return _assemble(sample, request, noise.beta, eg, kg, basis, est_w, mult_w,
                     nu[carry.size :])


def _split_shortest(held, carried, a_n: float, h: float) -> float:
    """Shortest interval length for the split band's variance curve,
    wherever the interval lies: h_v = length m^(-1/5) must exceed half the
    m held-out points' spacing (estimate_nu) and the distance from every
    carried or grid point to its nearest midpoint.  Grids lie in [lo, hi],
    whose farthest points from the midpoints are lo, hi or gap centres."""
    mids = midpoints(held)
    lo, hi = identifiable_range(a_n, h)
    far = np.clip(np.concatenate(([lo, hi], midpoints(mids))), lo, hi)
    return max(0.5 * float(np.max(np.diff(held))) * held.size**0.2,
               shortest_interval(mids, np.concatenate((carried, far)), held.size))


def _sidecar(csv_path: Path) -> Path:
    """``csv_path`` with the suffix .json; raises if that is csv_path."""
    sidecar = csv_path.with_suffix(".json")
    if sidecar == csv_path:
        raise ValueError(f"{csv_path} ends in .json: the JSON sidecar would "
                         f"overwrite it")
    return sidecar


def write_band(result: BandResult, csv_path) -> dict:
    """Write the band as CSV plus a JSON sidecar with the run parameters,
    and return those parameters.

    The sidecar sits next to the CSV with the suffix ``.json``; a CSV
    path ending in ``.json`` raises before anything is written.
    """
    csv_path = Path(csv_path)
    sidecar = _sidecar(csv_path)
    write_columns(csv_path, "x,ghat,nuhat,lower,upper", result.grid,
                  result.ghat, result.nuhat, result.lower, result.upper)
    meta = {
        "quantile": result.quantile,
        "h": result.h,
        "alpha": result.alpha,
        "M": result.draws,
        "seed": result.seed,
        "spacing": result.spacing,
    }
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
    return meta
