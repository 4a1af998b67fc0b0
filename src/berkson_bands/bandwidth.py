"""Bandwidth selection: an adaptive rule and undersmoothing.

The adaptive rule compares estimates along the dyadic grid h_k = 2^(-k)
and picks the largest bandwidth whose estimate stays within a deviation
threshold of every finer one (Lepski, Mammen & Spokoiny 1997, Ann.
Statist. 25(3)).  The dyadic range and the threshold follow from n, a_n
and the error law's beta alone, so the rule takes no settings.  Its
estimates are one estimate_g call on the spectral kernel operators of
every bandwidth, over the finest bandwidth's evaluation grid: one data
transform and one Fourier sum, and no kernel table.  The preset
bandwidths of the reference scenarios live with those scenarios, in
simulation.SCENARIOS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import make_eval_grid
from .design import RegressionSample, check_identifiable, ordered_interval
from .deconv_kernel import TaperSpec, spectral_kernels
from .estimator import estimate_g
from .noise_models import NoiseModel

__all__ = ["LepskiResult", "lepski_select", "undersmooth"]

# The Lepski rule's threshold constant, the smoothness of its adaptation
# range, and the most dyadic steps below the coarse end.
_C_L = 1.0
_M_BAR = 4.0
_MAX_DEPTH = 5


@dataclass(frozen=True)
class LepskiResult:
    h: float
    k: int
    deviations: list[tuple[int, int, float, float]] = field(repr=False)
    # each record is (k, l, sup deviation, threshold tau_l)


def _dyadic_range(n: int, beta: float, a_n: float) -> tuple[int, int]:
    """(k_l, k_u), the dyadic grid bounds matched to the adaptation range.

    The coarse end tracks ((log n)/(n a_n))^(1/(beta+_M_BAR)); the fine
    end tracks 1/n but is capped at ``_MAX_DEPTH`` steps below the coarse
    end, since estimates at very small h cost far more than the rule can
    use.  Needs n >= 2, where log n > 0.
    """
    if n < 2:
        raise ValueError(f"the Lepski rule needs n >= 2, got n={n}")
    rate = (math.log(n) / (n * a_n)) ** (1.0 / (beta + _M_BAR))
    k_l = max(0, round(math.log2(1.0 / rate)))
    k_u = min(int(math.floor(math.log2(n))), k_l + _MAX_DEPTH)
    return k_l, max(k_u, k_l + 1)


def lepski_select(
    sample: RegressionSample,
    noise: NoiseModel,
    spec: TaperSpec,
    interval: tuple[float, float],
) -> LepskiResult:
    """Select h along the dyadic grid by pairwise deviation tests.

    k is admissible when sup_x |ghat(x;h_k) - ghat(x;h_l)| stays below
    _C_L ((log n)/(n a_n h_l^(1+2 beta)))^(1/2) for every l from k to
    k_u; the smallest admissible k wins, with beta from ``noise`` and n
    and a_n from the sample's design, which also fix the range k_l..k_u
    (_dyadic_range).  Sup-norms are taken over ``interval`` on the finest
    bandwidth's evaluation grid, a band grid for every h, since its
    spacing bound sqrt(h)/(n sqrt(a_n)) is tightest at the smallest h.
    The finest bandwidth is always admissible: its one test compares ghat
    with itself, a deviation of 0 below tau > 0.
    """
    design = sample.design
    n, a_n = design.n, design.a_n
    k_l, k_u = _dyadic_range(n, noise.beta, a_n)
    hs = [2.0 ** (-k) for k in range(k_l, k_u + 1)]
    # the coarsest bandwidth's range is the tightest, so check it first
    check_identifiable(ordered_interval(interval), a_n, hs[0])
    grid = make_eval_grid(interval, n, a_n, hs[-1]).points
    # est[i] is ghat(.;h_i) on the grid, by position i = k - k_l
    est = estimate_g(sample, grid, spectral_kernels(hs, noise, spec,
                                                    design.reach(interval)))

    tau = [_C_L * math.sqrt(math.log(n) / (n * a_n * h ** (1.0 + 2.0 * noise.beta)))
           for h in hs]
    deviations: list[tuple[int, int, float, float]] = []
    for i in range(len(hs)):
        for l in range(i, len(hs)):
            dev = float(np.max(np.abs(est[i] - est[l])))
            deviations.append((k_l + i, k_l + l, dev, tau[l]))
            if dev > tau[l]:
                break
        else:
            return LepskiResult(h=hs[i], k=k_l + i, deviations=deviations)
    raise AssertionError("the finest bandwidth is always admissible")


def undersmooth(h: float, n: int) -> float:
    """Undersmoothing adjustment h -> h/log(n)."""
    if n < 3:
        raise ValueError(f"undersmoothing needs n >= 3, got {n}")
    if not (math.isfinite(h) and h > 0):
        raise ValueError(f"bandwidth must be positive and finite, got {h}")
    return h / math.log(n)
