"""Band-limited spectral taper and the deconvolution kernel K(.;h).

K(w;h) = (1/2pi) int exp(-itw) phi_k(t) / charfn(-t/h) dt. The taper
phi_k is supported on [-cutoff, cutoff]; dividing by the error law's
Fourier transform undoes the Berkson smoothing up to that frequency.

K is computed one way, with numpy alone; the adaptive-quadrature
reference it is checked against lives with the tests.  The kernel
is band-limited, so spectral_kernels writes it as a Gauss-Legendre sum
over its frequency band [0, cutoff/h], with nodes from Newton's method
on the Legendre recurrence (_legendre_rule), on panels cut so that no
rule exceeds _MAX_RULE_NODES nodes (_gauss_rule).  A kernel sum over the
design is then a node sum of the data's Fourier transform, and a kernel
matrix between two point sets has low-rank factors
(SpectralKernel.factors), found from K's exact rows at Chebyshev points
of the grids' span and the points' phases exp(i omega x) in row blocks
of at most _BLOCK_ELEMS entries, each viewed as interleaved [cos, sin]
columns (_phase_rows): no points x nodes array is formed.
SpectralKernel.squared_factors gives those of K(.;h)^2, whose band is
[0, 2 cutoff/h], from the squares of K's sample.  Every read of K goes
through these operators: the estimator, the Lepski rule and the bands
form no grid x design matrix.
Their point sets are uniform, and transform, factors and fourier_sums
demand it: they take exponentials of anchors and offsets alone
(_uniform_blocks).
SpectralKernel.exact_matrix, a cos and a sin per entry at any points,
is the dense reference.  kernel_table holds K on a uniform grid, the
values the CLI's kernel-dump writes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .design import _A_N, _is_int
from .noise_models import NoiseModel

__all__ = ["TaperSpec", "KernelTable", "SpectralKernel", "phi_k", "kernel_table",
           "spectral_kernels", "fourier_sums"]

# Entries of the largest block temporary of a kernel sum, a data
# transform, a block of phase rows or of barycentric weights, or a node
# chunk of fourier_sums.
_BLOCK_ELEMS = 1 << 17
# Intervals of kernel_table's grid; every default grid length reads it.
_GRID_LEN = 1 << 14
# Gauss-Legendre nodes of the spectral operator on a frequency panel
# [lo, hi]: _NODES_PER_TURN per 2 pi of the phase (hi - lo) * rate, plus
# _PANEL_NODES (see spectral_kernels).  The operator then matches an
# adaptive-quadrature reference to 1e-12 relative for both shipped error
# laws at h from 1/2 to 1/64.
_NODES_PER_TURN = 3
_PANEL_NODES = 24
# Most nodes of one rule: building an m-node rule costs O(m^2)
# (_legendre), so _gauss_rule cuts a longer panel into equal parts.
_MAX_RULE_NODES = 400
# Newton steps of the Gauss-Legendre rule.  Convergence is quadratic, so
# after a step below _NEWTON_TOL the error in theta is far below
# rounding; from Tricomi's estimates that takes three steps for every m
# from 2 to 3000.  _NEWTON_STEPS only bounds the loop.
_NEWTON_STEPS = 10
_NEWTON_TOL = 1e-12
# Low-rank factors (SpectralKernel._sample): a sample of K^power at
# ceil(power Omega l) + _SAMPLE_MARGIN Chebyshev points keeps directions
# above _RANK_TOL times its largest singular value, and doubles while the
# factors miss exact rows off it by over _CHECK_TOL of K^power's peak.  On
# the 31 calls of the preset bands and the cold split band every margin
# from 16 to 96 finds the same ranks, the check never fires at 24, and at
# 1e-13 the factors match exact_matrix to 1.1e-13 of K(0)^power (at 1e-15
# rounding noise would pass the test).
_SAMPLE_MARGIN = 24
_RANK_TOL = 1e-13
_CHECK_TOL = 1e-12


@dataclass(frozen=True)
class TaperSpec:
    """Spectral taper choice.

    kind 'smooth_poly': 1 on [-knot*cutoff, knot*cutoff], then a quintic
    smoothstep bridge down to 0 at |t| = cutoff.  kind 'damped_cutoff':
    the damped spectral cutoff 1 - exp(-(cutoff/t)^2), closed with the
    same bridge so the taper stays C^2.  cutoff sets the frequency reach;
    bands.default_taper holds each error law's preset.
    """

    kind: str
    cutoff: float
    # Fraction of the cutoff where the bridge down to 0 starts.
    knot: ClassVar[float] = 0.5

    def __post_init__(self) -> None:
        if self.kind not in ("smooth_poly", "damped_cutoff"):
            raise ValueError(f"unknown taper kind {self.kind!r}")
        if not (math.isfinite(self.cutoff) and self.cutoff > 0):
            raise ValueError(f"cutoff must be positive and finite, got {self.cutoff}")


def _smoothstep_fall(s):
    """C^2 descent from 1 at s<=0 to 0 at s>=1 (quintic smoothstep)."""
    s = np.clip(s, 0.0, 1.0)
    return 1.0 - s**3 * (10.0 - 15.0 * s + 6.0 * s**2)


def phi_k(t, spec: TaperSpec):
    """Evaluate the taper; symmetric, bounded by 1, zero beyond the cutoff."""
    r = np.abs(np.asarray(t, dtype=float)) / spec.cutoff
    bridge = _smoothstep_fall((r - spec.knot) / (1.0 - spec.knot))
    if spec.kind == "smooth_poly":
        return bridge
    with np.errstate(divide="ignore"):
        damp = -np.expm1(-1.0 / np.square(r))
    damp = np.where(r == 0.0, 1.0, damp)
    return damp * bridge


@dataclass(frozen=True)
class KernelTable:
    """K(.;h) at grid_len + 1 uniform points over [-span, span], the values
    the CLI's kernel-dump writes, with the operator they come from."""

    operator: SpectralKernel
    span: float
    grid: np.ndarray
    values: np.ndarray

    def __call__(self, u):
        """K(u;h) = sum_r factor_r cos(omega_r h u) for u in [-span, span],
        by a direct node sum in blocks of at most ``_BLOCK_ELEMS`` entries."""
        u = np.asarray(u, dtype=float)
        if u.size and np.max(np.abs(u)) > self.span * (1.0 + 1e-12):
            raise ValueError(f"kernel argument outside the tabulated span "
                             f"{self.span:.4g}; rebuild the table with a larger span")
        op, flat = self.operator, u.ravel()
        vals = np.empty(flat.size)
        block = max(1, _BLOCK_ELEMS // op.omega.size)
        for s in range(0, flat.size, block):
            phase = np.outer(op.h * flat[s : s + block], op.omega)
            vals[s : s + block] = np.cos(phase) @ op.factor
        return vals.reshape(u.shape)


def kernel_table(
    h: float,
    noise: NoiseModel,
    spec: TaperSpec,
    grid_len: int = _GRID_LEN,
    span: float | None = None,
) -> KernelTable:
    """K(.;h) on [-span, span]: the operator of spectral_kernels for reach
    span h, with K at grid_len + 1 uniform points over [-span, span].

    The default span 4/(a_n h), at the paper's a_n, covers every scaled
    argument (w_j - x)/h a band evaluation on that design can produce.
    """
    if not h > 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    if not _is_int(grid_len):
        raise ValueError(f"grid_len must be an integer, got {grid_len!r}")
    if grid_len < 2:
        raise ValueError(f"grid_len must be at least 2, got {grid_len}")
    if span is None:
        span = 4.0 / (_A_N * h)
    if not (span > 0 and math.isfinite(span)):
        raise ValueError(f"span must be positive and finite, got {span}")
    (op,) = spectral_kernels([h], noise, spec, span * h)
    grid = np.linspace(-span, span, grid_len + 1)
    values = fourier_sums(h * grid, op.omega, op.factor[:, None])[:, 0]
    return KernelTable(operator=op, span=float(span), grid=grid, values=values)


@dataclass(frozen=True)
class SpectralKernel:
    """K(.;h) as a Gauss-Legendre sum over its frequency band [0, cutoff/h].

    With T_r = sum_j c_j exp(i omega_r w_j) the data transform at the
    nodes omega_r,

        sum_j c_j K((w_j - x)/h; h) = sum_r factor_r Re(exp(-i omega_r x) T_r),

    factor_r = h q_r phi_k(omega_r h) / (pi charfn(-omega_r)), where q_r
    are the node rule's weights (see spectral_kernels).  ``transform``
    gives T and fourier_sums the node sum, so estimate_g evaluates the
    kernel sum; ``factors`` gives the kernel matrix's low-rank factors.
    All three take uniform point sets; ``exact_matrix`` gives the kernel
    matrix between any two point sets.
    """

    h: float
    noise: NoiseModel
    omega: np.ndarray
    factor: np.ndarray

    def transform(self, points, coef) -> np.ndarray:
        """T_r = sum_j coef_j exp(i omega_r points_j) = sum_A exp(i omega_r
        anchor_A) sum_B exp(i omega_r offset_B) coef_{A,B} for uniform
        points (_uniform_blocks), one matrix product per chunk of nodes."""
        anchors, offsets = _uniform_blocks(points)
        c = np.zeros((anchors.size, offsets.size), dtype=np.result_type(coef, float))
        c.flat[: np.size(points)] = coef
        out = np.empty(self.omega.size, dtype=complex)
        rows = max(1, _BLOCK_ELEMS // max(anchors.size, offsets.size))
        for s in range(0, self.omega.size, rows):
            om = self.omega[s : s + rows, None]
            inner = np.exp(1j * om * offsets) @ c.T
            out[s : s + rows] = np.sum(np.exp(1j * om * anchors) * inner, axis=1)
        return out

    def exact_matrix(self, x, points) -> np.ndarray:
        """K((points_j - x_i)/h; h), one row per x_i: left @ right.T with
        left = [factor cos(omega x), factor sin(omega x)] and
        right = [cos(omega w), sin(omega w)], by a cos and a sin per entry
        at any points: the dense reference."""
        phase = np.outer(x, self.omega)
        left = np.hstack((self.factor * np.cos(phase), self.factor * np.sin(phase)))
        phase = np.outer(np.asarray(points, dtype=float), self.omega)
        right = np.hstack((np.cos(phase), np.sin(phase)))
        return left @ right.T

    def factors(self, points, *grids) -> tuple[np.ndarray, list[np.ndarray]]:
        """Low-rank factors of the kernel matrices from ``grids`` to ``points``.

        Returns (basis, lefts): basis is len(points) x R with orthonormal
        columns, and K((points_j - x_i)/h; h) = (lefts[k] @ basis.T)[i, j]
        for x_i in grids[k].  The kernel matrix is left @ right.T, where a
        row of right is exp(i omega w_j) and a row of left is factor
        exp(i omega x_i), each viewed as interleaved [cos, sin] columns
        (_phase_rows), so that a row product sums factor cos(omega (w_j -
        x_i)).  Neither is formed: every product below takes their rows
        in blocks of whole anchors, at most _BLOCK_ELEMS entries each.
        basis comes from K's sample over the grids' hull (_sample), and
        lefts are the exact rows times basis, left @ (basis.T @ right).T.
        ``points`` and each grid must be uniform, each with its own step.
        """
        basis = self._sample(points, grids, 1)[0]
        mix = _times_rows(basis, points, self.omega)  # basis.T @ right
        return basis, [_rows_times(g, self.omega, mix.T, scale=self.factor)[0]
                       for g in grids]

    def squared_factors(self, points, *grids) -> tuple[np.ndarray, list[np.ndarray]]:
        """factors of K^2 from the squares of K's sample (_sample).  Exact
        rows of K^2 would need a grid x design matrix, so lefts read the
        sample's coordinates at the grids by barycentric interpolation
        (_chebyshev_read), stable at Chebyshev points (Berrut & Trefethen 2004)."""
        basis, xi, coords = self._sample(points, grids, 2)
        return basis, [_chebyshev_read(xi, coords, g) for g in grids]

    def _sample(self, points, grids, power: int):
        """(basis, xi, coords): an orthonormal basis of K^power's rows from
        the grids' hull [lo, hi] to ``points``, the sample's Chebyshev
        points xi, and its coordinates in basis, a row per xi.

        The sample is K^power from p points xi to ``points``.  K^power is
        band-limited to power Omega (Omega the largest node), so its rows'
        Chebyshev coefficients over the hull are Bessel values J_k(power
        Omega l), l = (hi - lo)/2, which vanish fast past k = power Omega l
        (Jacobi-Anger): at p = ceil(power Omega l) + _SAMPLE_MARGIN the
        sample spans every row to rounding (Fong & Darve 2009).  basis
        holds its left singular vectors above _RANK_TOL of the largest.  p
        doubles while the rank reaches p or the factors, by each power's
        own lefts, miss exact rows at the hull's ends and the midpoints of
        xi's six central gaps, where xi is sparsest, by more than
        _CHECK_TOL of sum |factor|^power, K^power's bound and the scale of
        its rounding even where the check rows are small.
        """
        omega = self.omega
        for g in grids:  # before the hull, so that a NaN fails as non-uniform
            _uniform_blocks(g)
        lo, hi = min(np.min(g) for g in grids), max(np.max(g) for g in grids)
        half = 0.5 * (hi - lo)
        p = math.ceil(power * omega.max() * half) + _SAMPLE_MARGIN
        peak = np.sum(np.abs(self.factor)) ** power
        while True:
            xi = 0.5 * (hi + lo) + half * np.cos(math.pi * (np.arange(p) + 0.5) / p)
            gaps = p // 2 - 3 + np.arange(6)
            check = np.concatenate(([lo, hi], 0.5 * (xi[gaps] + xi[gaps + 1])))
            rows = (self.factor * np.exp(1j * np.outer(np.r_[xi, check], omega))).view(float)
            # the sample's product keeps its own shape: at two BLAS
            # threads, added columns would move its rounding
            sample, exact = _rows_times(points, omega, rows[:p].T, rows[p:].T)
            sample **= power
            exact **= power
            # the SVD through the sample's R takes less memory than the
            # sample's own: a cold n = 5,000 band peaks 18 MB lower
            q, r = np.linalg.qr(sample)
            u, sv, vt = np.linalg.svd(r)
            keep = np.flatnonzero(sv > _RANK_TOL * sv[0])  # sv may be shorter than vt
            basis, coords = q @ u[:, keep], vt[keep].T * sv[keep]
            left = exact.T @ basis if power == 1 else _chebyshev_read(xi, coords, check)
            gap = np.max(np.abs(basis @ left.T - exact))
            if basis.shape[1] < p and gap <= _CHECK_TOL * peak:
                return basis, xi, coords
            p *= 2


def _chebyshev_read(xi, values, x) -> np.ndarray:
    """The polynomial through ``values``, one row per Chebyshev point xi_c =
    mid + half cos(pi (c + 1/2) / p), at x: the barycentric formula with
    weights (-1)^c sin(pi (c + 1/2) / p), in row blocks of at most
    _BLOCK_ELEMS entries.  An x on some xi_c reads row c."""
    c = np.arange(xi.size)
    weights = (-1.0) ** c * np.sin(math.pi * (c + 0.5) / c.size)
    out = np.empty((np.size(x), values.shape[1]))
    step = max(1, _BLOCK_ELEMS // c.size)
    for s in range(0, np.size(x), step):
        with np.errstate(divide="ignore"):
            d = weights / np.subtract.outer(x[s : s + step], xi)
        on = np.isinf(d).any(axis=1)
        d[on] = np.isinf(d[on])
        d /= d.sum(axis=1, keepdims=True)
        np.matmul(d, values, out=out[s : s + step])
    return out


def _rows_times(x, omega, *ms, scale=1.0) -> list[np.ndarray]:
    """[rows @ m for m in ms] for the phase rows of x (_phase_rows), one pass."""
    outs = [np.empty((np.size(x), m.shape[1])) for m in ms]
    for s, rows in _phase_rows(x, omega, scale):
        for m, out in zip(ms, outs):
            np.matmul(rows, m, out=out[s : s + len(rows)])
    return outs


def _times_rows(m, x, omega) -> np.ndarray:
    """m.T @ rows for the phase rows of x (_phase_rows), block by block."""
    out = np.zeros((m.shape[1], 2 * omega.size))
    for s, rows in _phase_rows(x, omega):
        out += m[s : s + len(rows)].T @ rows
    return out


def _uniform_blocks(x) -> tuple[np.ndarray, np.ndarray]:
    """(anchors, offsets) with x_{A b + B} = anchors[A] + offsets[B]: every
    b-th point of x and b = ceil(sqrt(len(x))) multiples of its step.
    Raises ValueError unless x is uniform to 1e-12 of its largest |x|,
    which no x holding a NaN is."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    m = x.size
    b = math.isqrt(m - 1) + 1
    step = (x[-1] - x[0]) / (m - 1) if m > 1 else 0.0
    offsets = np.arange(b) * step
    anchors = x[::b]
    model = (anchors[:, None] + offsets[None, :]).ravel()[:m]
    if not np.max(np.abs(model - x)) <= 1e-12 * max(1.0, float(np.max(np.abs(x)))):
        raise ValueError("the spectral operator needs a uniform grid")
    return anchors, offsets


def _phase_rows(x, omega: np.ndarray, scale=1.0):
    """Yield (start, rows): rows i of [scale cos(omega x), scale sin(omega
    x)] from i = start on, columns interleaved, for uniform x.

    Each block is whole anchors (_uniform_blocks) of at most _BLOCK_ELEMS
    complex entries, or one anchor: one broadcast product exp(i omega
    anchor) * scale exp(i omega offset), viewed as floats.  The blocks
    share one buffer, so a block is valid until the next is taken.
    """
    anchors, offsets = _uniform_blocks(x)
    near = scale * np.exp(1j * np.outer(offsets, omega))
    step = min(anchors.size, max(1, _BLOCK_ELEMS // near.size))
    block = np.empty((step,) + near.shape, dtype=complex)
    for a in range(0, anchors.size, step):
        far = np.exp(1j * np.outer(anchors[a : a + step], omega))
        rows = np.multiply(far[:, None], near, out=block[: len(far)])
        rows = rows.reshape(-1, omega.size)[: np.size(x) - a * offsets.size]
        yield a * offsets.size, rows.view(float)


def spectral_kernels(
    hs, noise: NoiseModel, spec: TaperSpec, reach: float
) -> list[SpectralKernel]:
    """Spectral operators of K(.;h) for every h in ``hs`` on one node rule.

    The rule is Gauss-Legendre in the frequency omega = t/h on panels
    whose edges are 0 and, for every h, the taper's knot and cutoff in
    omega, spec.knot * cutoff / h and cutoff / h.  Each integrand is then
    smooth on every panel, and each band [0, cutoff/h] is a union of
    whole panels, so every operator's nodes lead the rule: the operator
    of the smallest h holds them all, and its data transform serves the
    others.  ``reach`` bounds |x - w| over the evaluation and design
    points.  The integrand oscillates in omega at rates up to
    reach + noise.ripple, so a panel [lo, hi] gets
    ceil(3 (hi - lo) rate / 2 pi) + 24 nodes, in equal parts of at most
    _MAX_RULE_NODES each (_gauss_rule).
    """
    if not (math.isfinite(reach) and reach >= 0):
        raise ValueError(f"reach must be non-negative and finite, got {reach}")
    for h in hs:
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"bandwidth must be positive, got {h}")
    edges = sorted(
        {0.0, *(spec.cutoff * f / h for h in hs for f in (spec.knot, 1.0))}
    )
    nodes, weights = _gauss_rule(edges, reach + noise.ripple)
    ops = []
    for h in hs:
        keep = nodes < spec.cutoff / h
        omega = nodes[keep]
        factor = weights[keep] * (h * phi_k(omega * h, spec)
                                  / (math.pi * noise.charfn(-omega)))
        ops.append(SpectralKernel(h=float(h), noise=noise, omega=omega, factor=factor))
    return ops


def _gauss_rule(edges, rate: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on the panels between ``edges``.

    A panel [lo, hi] gets ceil(3 (hi - lo) rate / 2 pi) + 24 nodes, for
    an integrand oscillating at rates up to ``rate``.  A panel that would
    get more than _MAX_RULE_NODES is cut into the fewest equal parts
    whose own count fits, so a dyadic panel twice the length of its
    neighbour takes that neighbour's rule twice.  Parts of equal node
    count share one _legendre_rule.  The rule is counted before it is
    filled, so one that cannot fit fails at its allocation.
    """
    panels, rules = [], {}
    for lo, hi in zip(edges[:-1], edges[1:]):
        turns = _NODES_PER_TURN * (hi - lo) * rate / (2.0 * math.pi)
        parts = max(1, math.ceil(turns / (_MAX_RULE_NODES - _PANEL_NODES)))
        panels.append((lo, hi, parts, _PANEL_NODES + math.ceil(turns / parts)))
    size = sum(parts * m for _, _, parts, m in panels)
    nodes, weights, at = np.empty(size), np.empty(size), 0
    for lo, hi, parts, m in panels:
        if m not in rules:
            rules[m] = _legendre_rule(m)
        x, q = rules[m]
        cuts = np.linspace(lo, hi, parts + 1)
        half, mid = 0.5 * np.diff(cuts)[:, None], 0.5 * (cuts[1:] + cuts[:-1])[:, None]
        nodes[at : at + parts * m] = (half * x + mid).ravel()
        weights[at : at + parts * m] = (half * q).ravel()
        at += parts * m
    return nodes, weights


def _legendre_rule(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The m-node Gauss-Legendre rule on [-1, 1], nodes ascending.

    Newton's method in theta, x = cos(theta), from Tricomi's estimates
    of the roots of P_m (Hale & Townsend 2013, SIAM J. Sci. Comput.
    35(2)), on the nodes in [0, 1); the others follow by symmetry.  The
    weights are 2 / (sin(theta) P_m'(x))^2 with P_m' from its own
    recurrence, which keeps them within 2e-11 relative of a 40-digit
    reference at the end nodes for m = 1442 (scipy's roots_legendre:
    6e-9).  The shorter form through P_{m-1} loses digits there, where
    P_{m-1} is small.
    """
    k = np.arange(1, (m + 1) // 2 + 1)
    phi = (4 * k - 1) * math.pi / (4 * m + 2)
    theta = np.arccos(np.cos(phi) * (
        1.0 - (m - 1) / (8.0 * m**3)
        - (39.0 - 28.0 / np.sin(phi) ** 2) / (384.0 * m**4)))
    for _ in range(_NEWTON_STEPS):
        p, dp = _legendre(m, np.cos(theta))
        step = p / (np.sin(theta) * dp)
        theta += step
        if np.max(np.abs(step)) < _NEWTON_TOL:
            break
    x = np.cos(theta)
    weights = 2.0 / (np.sin(theta) * _legendre(m, x)[1]) ** 2
    if m % 2:
        x[-1] = 0.0
    mirror = slice(-1 - m % 2, None, -1)  # an odd m's node at 0 appears once
    return (np.concatenate((-x, x[mirror])),
            np.concatenate((weights, weights[mirror])))


def _legendre(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """P_m(x) and P_m'(x) by the three-term recurrence
    (j + 1) P_{j+1} = (2j + 1) x P_j - j P_{j-1} and
    P_{j+1}' = P_{j-1}' + (2j + 1) P_j."""
    p0, p1 = np.ones_like(x), x
    d0, d1 = np.zeros_like(x), np.ones_like(x)
    for j in range(1, m):
        p0, p1, d0, d1 = (p1, ((2 * j + 1) / (j + 1)) * x * p1 - (j / (j + 1)) * p0,
                          d1, d0 + (2 * j + 1) * p1)
    return p1, d1


def fourier_sums(x, omega, coeffs) -> np.ndarray:
    """Re sum_r exp(-i omega_r x_i) coeffs[r, k] for x on a uniform grid.

    With x = anchor + offset (_uniform_blocks) and c = coeffs[r, k],

        Re(exp(-i omega x) c) = cos(omega offset) Re(exp(-i omega anchor) c)
                              + sin(omega offset) Im(exp(-i omega anchor) c),

    so each chunk of nodes adds one real matrix product, offsets x
    (2 nodes) by (2 nodes) x (columns x anchors).  A chunk takes only
    the columns with a nonzero coefficient there: a column that holds
    an operator of r nodes, zero-padded to the longest, costs its r
    nodes alone.  No temporary holds more than ``_BLOCK_ELEMS`` entries
    beyond two the size of the len(x) x K output, which is returned.
    """
    kk = coeffs.shape[1]
    if not np.size(x):
        return np.zeros((0, kk))
    anchors, offsets = _uniform_blocks(x)
    j, b = anchors.size, offsets.size
    out = np.zeros((b, kk, j))
    rows = max(1, _BLOCK_ELEMS // (2 * max(b, kk * j)))
    nonzero = coeffs != 0
    for s in range(0, omega.size, rows):
        live = np.flatnonzero(nonzero[s : s + rows].any(axis=0))
        if not live.size:
            continue
        om = omega[s : s + rows]
        near = np.outer(offsets, om)
        far = np.outer(om, anchors)[:, None, :]
        cos_a, sin_a = np.cos(far), np.sin(far)
        c = coeffs[s : s + rows, live, None]
        rhs = np.concatenate((cos_a * c.real + sin_a * c.imag,
                              cos_a * c.imag - sin_a * c.real))
        part = np.hstack((np.cos(near), np.sin(near))) @ rhs.reshape(2 * om.size, -1)
        out[:, live] += part.reshape(b, live.size, j)
    return out.transpose(2, 0, 1).reshape(j * b, kk)[: np.size(x)]
