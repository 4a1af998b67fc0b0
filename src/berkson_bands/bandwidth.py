"""Bandwidth selection: an adaptive rule and undersmoothing.

The adaptive rule compares estimates along the dyadic grid h_k = 2^(-k)
and picks the largest bandwidth whose estimate stays within a deviation
threshold of every finer one (Lepski, Mammen & Spokoiny 1997, Ann.
Statist. 25(3)).  The dyadic range and the threshold follow from n, a_n
and the error law's beta alone, so the rule takes no settings.  Its
estimates are estimate_g's on spectral kernel operators that share one
frequency rule: one data transform at the finest bandwidth's nodes
serves every estimate, and one Fourier sum gives all bandwidths on an
evaluation grid, so the rule builds no kernel table.  The
preset bandwidths of the reference scenarios live with those scenarios,
in simulation.SCENARIOS.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import make_eval_grid
from .design import RegressionSample
from .deconv_kernel import TaperSpec, spectral_kernels
from .estimator import _node_sums
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
    (_dyadic_range).  Sup-norms are taken over ``interval`` on the
    evaluation grid of the finer bandwidth of each pair.  The finest
    bandwidth is always admissible: its one test compares ghat with
    itself, a deviation of 0 below tau > 0.
    """
    design = sample.design
    n, a_n = design.n, design.a_n
    k_l, k_u = _dyadic_range(n, noise.beta, a_n)
    hs = [2.0 ** (-k) for k in range(k_l, k_u + 1)]
    # the coarsest bandwidth comes first, where the interval check is tightest
    grids = [make_eval_grid(interval, n, a_n, h).points for h in hs]
    kernels = spectral_kernels(hs, noise, spec, design.reach(interval))
    # the finest operator's nodes hold every other's: one transform
    spectrum = kernels[-1].transform(design.points, design.weights * sample.responses)
    # lists by position i = k - k_l; est[l][i] is ghat(.;h_i) on grid l, i <= l
    est = [_node_sums(grid, kernels[: l + 1], spectrum)
           for l, grid in enumerate(grids)]

    tau = [_C_L * math.sqrt(math.log(n) / (n * a_n * h ** (1.0 + 2.0 * noise.beta)))
           for h in hs]
    deviations: list[tuple[int, int, float, float]] = []
    for i in range(len(hs)):
        for l in range(i, len(hs)):
            dev = float(np.max(np.abs(est[l][i] - est[l][l])))
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
