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
"""
from __future__ import annotations

import json
import math
import numbers
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

from .deconv_kernel import TaperSpec, kernel_table
from .design import Design, RegressionSample, build_split, default_b_n
from .noise_models import Laplace, LaplaceMixture, NoError, NoiseModel
from .variance_estimation import estimate_nu

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


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class BandRequest:
    interval: tuple[float, float]
    h: float
    alpha: float = 0.05
    draws: int = 250
    seed: int = 0

    def __post_init__(self) -> None:
        a, b = self.interval
        if not b >= a:
            raise ValueError(f"invalid interval [{a}, {b}]")
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
                stacklevel=2,
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
    interval: tuple[float, float], n: int, a_n: float, h: float,
    refine: int = 1,
) -> EvalGrid:
    """Uniform grid over ``interval`` with spacing <= sqrt(h)/(n sqrt(a_n)).

    ``refine`` tightens the spacing bound by that factor; it exists so
    grid-sufficiency can be audited against finer grids.
    """
    a, b = interval
    lo = -1.0 / a_n + h
    hi = 1.0 / a_n - h
    if a < lo - 1e-12 or b > hi + 1e-12:
        raise ValueError(
            f"interval [{a}, {b}] exceeds the identifiable range "
            f"[{lo:.4g}, {hi:.4g}] at h={h}"
        )
    if b == a:
        return EvalGrid(points=np.array([a], dtype=float), spacing=0.0)
    bound = math.sqrt(h) / (n * math.sqrt(a_n) * max(1, refine))
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


def _sup_batch(core_t: np.ndarray, nu_g: np.ndarray, coef: float, draws: int,
               root_seed: int) -> np.ndarray:
    """Supremum draws of |coef * sum_j Z_j core_t[j, x]| / nu_g(x) over x.

    Row j of ``core_t`` belongs to design point j; a point left out of
    the process has a zero row, so every point keeps its own Z_j.  All
    draws come from one generator seeded with SeedSequence(root_seed), so
    different seeds give independent streams.
    """
    z = np.random.default_rng(root_seed).standard_normal((draws, core_t.shape[0]))
    return np.max(np.abs(coef * (z @ core_t)) / nu_g[None, :], axis=1)


# ---------------------------------------------------------------------------
# geometry shared by every band built for the same (design, noise, h, interval)

_WS_CACHE: dict[tuple, "_Workspace"] = {}
_WS_LOCK = threading.Lock()
_WS_KEEP = 3


@dataclass
class _Workspace:
    eg: EvalGrid
    kg: np.ndarray
    ke: np.ndarray
    k2w: np.ndarray
    k2sw: np.ndarray
    k2g: np.ndarray
    k2sg: np.ndarray
    kfw2_w2: np.ndarray
    xe: np.ndarray
    wd: np.ndarray | None
    fw: np.ndarray | None
    dgrid: np.ndarray | None
    wt_e: np.ndarray
    sw_e: np.ndarray
    wt_w: np.ndarray
    sw_w: np.ndarray


def _noise_delta_grid(noise: NoiseModel):
    if isinstance(noise, Laplace):
        reach = 16.0 / noise.a
        return np.linspace(-reach, reach, 641)
    if isinstance(noise, LaplaceMixture):
        reach = noise.mu + 16.0 / noise.a
        return np.linspace(-reach, reach, 801)
    return None


def _workspace(
    design: Design,
    noise: NoiseModel,
    spec: TaperSpec,
    h: float,
    interval: tuple[float, float],
    refine: int = 1,
) -> _Workspace:
    key = (
        design.n,
        design.a_n,
        design.points.tobytes(),
        design.weights.tobytes(),
        noise,
        spec,
        round(h, 15),
        (round(interval[0], 15), round(interval[1], 15)),
        refine,
    )
    with _WS_LOCK:
        hit = _WS_CACHE.get(key)
    if hit is not None:
        return hit

    n, a_n = design.n, design.a_n
    w = design.points
    span = design.kernel_span(h)
    table = kernel_table(h, noise, spec, span=span)
    taper_table = kernel_table(h, NoError(), spec, span=span)
    eg = make_eval_grid(interval, n, a_n, h, refine)
    kg = table((w[None, :] - eg.points[:, None]) / h)
    clamp_lo = -1.0 / a_n + _CLAMP_FACTOR * h
    clamp_hi = 1.0 / a_n - _CLAMP_FACTOR * h
    if clamp_lo >= clamp_hi:
        raise ValueError(f"bandwidth h={h} too large for the design span")
    xe = np.linspace(clamp_lo, clamp_hi, _XE_POINTS)
    ke = table((w[None, :] - xe[:, None]) / h)
    pair = table((w[None, :] - w[:, None]) / h)
    k2w = pair**2
    k2sw = np.maximum(k2w.sum(axis=1), 1e-300)
    k2g = kg**2
    k2sg = np.maximum(k2g.sum(axis=1), 1e-300)
    kfw = taper_table((w[None, :] - w[:, None]) / h)
    kfw2_w2 = kfw**2 * (design.weights**2)[None, :]

    dgrid = _noise_delta_grid(noise)
    if dgrid is None:
        wd = fw = None
    else:
        fw = noise.density(dgrid)
        fw = fw / np.trapezoid(fw, dgrid)
        wd = np.clip(w[:, None] + dgrid[None, :], clamp_lo, clamp_hi)

    wmid = 0.5 * (w[:-1] + w[1:])
    hv = (interval[1] - interval[0]) * design.size ** (-0.2)

    def epan(targets):
        u = (wmid[None, :] - targets[:, None]) / hv
        wts = np.maximum(1.0 - u**2, 0.0)
        return wts, np.maximum(wts.sum(axis=1), 1e-300)

    wt_e, sw_e = epan(xe)
    wt_w, sw_w = epan(w)

    ws = _Workspace(
        eg=eg,
        kg=kg,
        ke=ke,
        k2w=k2w,
        k2sw=k2sw,
        k2g=k2g,
        k2sg=k2sg,
        kfw2_w2=kfw2_w2,
        xe=xe,
        wd=wd,
        fw=fw,
        dgrid=dgrid,
        wt_e=wt_e,
        sw_e=sw_e,
        wt_w=wt_w,
        sw_w=sw_w,
    )
    with _WS_LOCK:
        if len(_WS_CACHE) >= _WS_KEEP:
            _WS_CACHE.pop(next(iter(_WS_CACHE)))
        _WS_CACHE[key] = ws
    return ws


def _band_variance_field(
    sample: RegressionSample, ws: _Workspace, noise: NoiseModel, h: float
):
    """Calibrated variance field evaluated at design points and on the grid.

    Pieces: v_nw, the difference-based local variance; vmod, the variance
    of the pilot regression under the error law, debiased by the pilot's
    own sampling variation (spur1 - spur2); a global noise floor s2min
    taken over the full pilot range; the v_nw fraction floor; and squared
    kernel weight smoothing with a sigma^2/4 floor.
    """
    w = sample.design.points
    wts = sample.design.weights
    y = sample.responses
    r = 0.5 * (y[1:] - y[:-1]) ** 2
    v_nw_e = (ws.wt_e @ r) / ws.sw_e
    v_nw_w = (ws.wt_w @ r) / ws.sw_w
    s2min = float(np.min(v_nw_e))
    sc2 = float(np.mean(r))

    if ws.wd is None:
        vmod = np.zeros(len(w))
    else:
        ge = ws.ke @ (wts * y) / h
        gi = CubicSpline(ws.xe, ge)
        gw = gi(ws.wd)
        m1 = np.trapezoid(gw * ws.fw, ws.dgrid, axis=1)
        m2 = np.trapezoid(gw**2 * ws.fw, ws.dgrid, axis=1)
        vm = np.maximum(m2 - m1**2, 0.0)
        avar = (ws.ke**2) @ (wts**2 * v_nw_w) / h**2
        ai = CubicSpline(ws.xe, avar)
        spur1 = np.trapezoid(ai(ws.wd) * ws.fw, ws.dgrid, axis=1)
        spur2 = ws.kfw2_w2 @ v_nw_w / h**2
        vmod = np.maximum(vm - np.maximum(spur1 - spur2, 0.0), 0.0)

    vw = np.maximum(vmod + s2min, _NW_FLOOR_FRAC * v_nw_w)
    # the absolute floor keeps constant responses from giving 0/0
    floor2 = max(sc2 / 4.0, 1e-16)
    nu_w = np.sqrt(np.maximum((ws.k2w @ vw) / ws.k2sw, floor2))
    nu_g = np.sqrt(np.maximum((ws.k2g @ vw) / ws.k2sg, floor2))
    return nu_w, nu_g


def _assumption_check(n: int, a_n: float, h: float, beta: float) -> None:
    if 1.0 / (n * a_n * h ** (1.0 + 2.0 * beta)) >= 1.0:
        warnings.warn(
            f"n a_n h^(1+2 beta) = {n * a_n * h ** (1 + 2 * beta):.3g} <= 1; "
            f"the band's asymptotic regime is doubtful at this bandwidth",
            UserWarning,
            stacklevel=3,
        )


def _assemble(
    sample: RegressionSample,
    request: BandRequest,
    beta: float,
    eg: EvalGrid,
    km: np.ndarray,
    est_w: np.ndarray,
    mult_w: np.ndarray,
    nu_g: np.ndarray,
) -> BandResult:
    """Band from the grid x design kernel matrix ``km``.

    ghat sums the responses with the estimator weights ``est_w``; the
    multiplier process weights design point j by ``mult_w[j]`` (its
    estimator weight times nuhat at w_j) and is studentized by ``nu_g``.
    """
    design = sample.design
    n, a_n, h = design.n, design.a_n, request.h
    ghat = km @ (est_w * sample.responses) / h
    coef = h**beta / math.sqrt(n * a_n * h)
    core = km * (mult_w * n * a_n)[None, :]
    sups = _sup_batch(core.T, nu_g, coef, request.draws, request.seed)
    q = quantile(sups, 1.0 - request.alpha)
    denom = math.sqrt(n * a_n) * h ** (0.5 + beta)
    half = q * nu_g / denom
    return BandResult(
        grid=eg.points,
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
    grid_refine: int = 1,
) -> BandResult:
    """Uniform confidence band for g over the requested interval.

    The calibrated variance field is estimated from the sample.
    ``grid_refine`` tightens the evaluation grid for audits.
    """
    design = sample.design
    spec = taper if taper is not None else default_taper(noise)
    _assumption_check(design.n, design.a_n, request.h, noise.beta)
    ws = _workspace(design, noise, spec, request.h, request.interval, grid_refine)
    nu_w, nu_g = _band_variance_field(sample, ws, noise, request.h)
    return _assemble(sample, request, noise.beta, ws.eg, ws.kg,
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
    singletons.  build_band itself serves every error law.
    """
    if noise.smoothness_class != "W":
        raise ValueError(
            "extension band expects an oscillating error law; use "
            "build_band for smooth-class laws"
        )
    spec = taper if taper is not None else default_taper(noise)
    design = sample.design
    n, a_n, h = design.n, design.a_n, request.h
    _assumption_check(n, a_n, h, noise.beta)
    sd = build_split(design, d_n)
    if b_n is None:
        b_n = default_b_n(n, a_n)
    nu_curve = estimate_nu(
        sample, interval=request.interval, mask=sd.removed + n
    )
    eg = make_eval_grid(request.interval, n, a_n, h)
    w = design.points
    table = kernel_table(h, noise, spec, span=design.kernel_span(h))
    km = table((w[None, :] - eg.points[:, None]) / h)

    est_w = np.zeros(design.size)
    est_w[sd.kept + n] = sd.gap_weights
    carry = sd.kept[np.abs(sd.kept) <= int(n * b_n)] + n
    mult_w = np.zeros(design.size)
    mult_w[carry] = est_w[carry] * nu_curve(w[carry])
    return _assemble(sample, request, noise.beta, eg, km, est_w, mult_w,
                     nu_curve(eg.points))


def write_band(result: BandResult, csv_path) -> None:
    """Write the band as CSV plus a JSON sidecar with the run parameters.

    The sidecar sits next to the CSV with the suffix ``.json``.
    """
    csv_path = Path(csv_path)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("x,ghat,nuhat,lower,upper\n")
        for row in zip(
            result.grid, result.ghat, result.nuhat, result.lower, result.upper
        ):
            fh.write(",".join(f"{v:.10g}" for v in row) + "\n")
    meta = {
        "quantile": result.quantile,
        "h": result.h,
        "alpha": result.alpha,
        "M": result.draws,
        "seed": result.seed,
        "spacing": result.spacing,
    }
    with open(csv_path.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")
