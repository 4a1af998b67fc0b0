"""Bandwidth selection: fixed presets, an adaptive rule, undersmoothing.

The adaptive rule compares estimates along the dyadic grid h_k = 2^(-k)
and picks the largest bandwidth whose estimate stays within a deviation
threshold of every finer one.  Presets reproduce the bandwidths used by
the reference simulation scenarios, which were chosen by inspection and
are shipped as data rather than re-derived.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bands import make_eval_grid
from .design import RegressionSample
from .deconv_kernel import TaperSpec, kernel_table
from .estimator import estimate_g
from .noise_models import NoiseModel

__all__ = [
    "LepskiConfig",
    "LepskiResult",
    "default_lepski_config",
    "lepski_select",
    "undersmooth",
    "preset_h",
    "TABLE_PRESETS",
]

# Bandwidths used by the reference scenarios, keyed (signal, n, sigma).
TABLE_PRESETS: dict[tuple[str, int, float], float] = {
    ("g_a", 100, 0.1): 0.25,
    ("g_a", 100, 0.05): 0.24,
    ("g_a", 750, 0.1): 0.21,
    ("g_a", 750, 0.05): 0.12,
    ("g_b", 100, 0.1): 0.20,
    ("g_b", 100, 0.05): 0.22,
    ("g_b", 750, 0.1): 0.22,
    ("g_b", 750, 0.05): 0.11,
}


def preset_h(signal: str, n: int, sigma: float) -> float:
    key = (signal, n, sigma)
    if key not in TABLE_PRESETS:
        known = ", ".join(str(k) for k in sorted(TABLE_PRESETS))
        raise ValueError(f"no preset bandwidth for {key}; known: {known}")
    return TABLE_PRESETS[key]


@dataclass(frozen=True)
class LepskiConfig:
    k_l: int
    k_u: int
    C_L: float

    def __post_init__(self) -> None:
        if self.k_l >= self.k_u:
            raise ValueError(
                f"need k_l < k_u, got k_l={self.k_l}, k_u={self.k_u}"
            )
        if self.C_L <= 0:
            raise ValueError(f"C_L must be positive, got {self.C_L}")

    def bandwidths(self) -> list[float]:
        return [2.0 ** (-k) for k in range(self.k_l, self.k_u + 1)]


@dataclass(frozen=True)
class LepskiResult:
    h: float
    k: int
    flag: bool
    deviations: list[tuple[int, int, float, float]] = field(repr=False)
    # each record is (k, l, sup deviation, threshold tau_l)


def default_lepski_config(
    n: int,
    beta: float,
    a_n: float = 2.0 / 3.0,
    C_L: float = 1.0,
    m_bar: float = 4.0,
    max_depth: int = 5,
) -> LepskiConfig:
    """Dyadic grid bounds matched to the adaptation range.

    The coarse end tracks ((log n)/(n a_n))^(1/(beta+m_bar)); the fine
    end tracks 1/n but is capped at ``max_depth`` steps below the coarse
    end, since estimates at very small h cost far more than the rule can
    use.
    """
    rate = (math.log(n) / (n * a_n)) ** (1.0 / (beta + m_bar))
    k_l = max(0, round(math.log2(1.0 / rate)))
    k_u = min(int(math.floor(math.log2(n))), k_l + max_depth)
    k_u = max(k_u, k_l + 1)
    return LepskiConfig(k_l=k_l, k_u=k_u, C_L=C_L)


def lepski_select(
    sample: RegressionSample,
    config: LepskiConfig,
    noise: NoiseModel,
    spec: TaperSpec,
    interval: tuple[float, float],
) -> LepskiResult:
    """Select h along the dyadic grid by pairwise deviation tests.

    k is admissible when sup_x |ghat(x;h_k) - ghat(x;h_l)| stays below
    C_L ((log n)/(n a_n h_l^(1+2 beta)))^(1/2) for every l from k to
    k_u; the smallest admissible k wins, with beta from ``noise`` and
    a_n from the sample's design.  Sup-norms are taken over ``interval``
    on the evaluation grid of the finer bandwidth of each pair.  When no
    k is admissible the finest bandwidth is returned with the flag set.
    """
    design = sample.design
    n, a_n = design.n, design.a_n
    ks = list(range(config.k_l, config.k_u + 1))
    hs = {k: 2.0 ** (-k) for k in ks}
    tables = {
        k: kernel_table(hs[k], noise, spec, span=design.kernel_span(hs[k]))
        for k in ks
    }
    # containment must hold at the coarsest bandwidth too
    make_eval_grid(interval, n, a_n, hs[config.k_l])

    grids = {k: make_eval_grid(interval, n, a_n, hs[k]).points for k in ks}
    cache: dict[tuple[int, int], np.ndarray] = {}

    def est(k: int, on_l: int) -> np.ndarray:
        key = (k, on_l)
        if key not in cache:
            cache[key] = estimate_g(sample, hs[k], grids[on_l], tables[k]).values
        return cache[key]

    log_n = math.log(n)
    deviations: list[tuple[int, int, float, float]] = []
    selected: int | None = None
    for k in ks:
        ok = True
        for l in range(k, config.k_u + 1):
            tau = config.C_L * math.sqrt(
                log_n / (n * a_n * hs[l] ** (1.0 + 2.0 * noise.beta))
            )
            dev = float(np.max(np.abs(est(k, l) - est(l, l))))
            deviations.append((k, l, dev, tau))
            if dev > tau:
                ok = False
                break
        if ok:
            selected = k
            break
    if selected is None:
        return LepskiResult(
            h=hs[config.k_u], k=config.k_u, flag=True, deviations=deviations
        )
    return LepskiResult(
        h=hs[selected], k=selected, flag=False, deviations=deviations
    )


def undersmooth(h: float, n: int) -> float:
    """Undersmoothing adjustment h -> h/log(n)."""
    if n < 3:
        raise ValueError(f"undersmoothing needs n >= 3, got {n}")
    if h <= 0:
        raise ValueError(f"bandwidth must be positive, got {h}")
    return h / math.log(n)
