"""Error laws for the Berkson covariate noise.

Each law exposes its characteristic function, its Lebesgue density, a
sampler, and its polynomial-decay envelope constants: c_lower *
(1+t^2)^(-beta/2) <= |charfn(t)| <= c_upper * (1+t^2)^(-beta/2), which
acceptance criterion 5 and the tests check.  The smoothness degree beta
and class belong to the law, not to an instance.  ``ripple`` is the
highest frequency at which 1/charfn oscillates, which sets how finely a
quadrature over t must sample it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

__all__ = [
    "Laplace",
    "LaplaceMixture",
    "NoError",
    "NoiseModel",
    "make_noise",
]

# The mixture law of the paper's study; every default lam and mu reads these
_LAM, _MU = 0.2, 0.3
# The kinds make_noise builds
_KINDS = ("laplace", "mixture", "none")


def _check_rate(a: float) -> None:
    if not (math.isfinite(a) and a > 0):
        raise ValueError(f"rate must be positive and finite, got a={a}")


@dataclass(frozen=True)
class Laplace:
    """Laplace law with rate ``a``: density (a/2) exp(-a|x|), sd sqrt(2)/a."""

    a: float

    def __post_init__(self) -> None:
        _check_rate(self.a)

    beta: ClassVar[float] = 2.0
    smoothness_class: ClassVar[str] = "S"

    @property
    def c_lower(self) -> float:
        return min(self.a**2, 1.0)

    @property
    def c_upper(self) -> float:
        return max(self.a**2, 1.0)

    @property
    def ripple(self) -> float:
        return 0.0

    def charfn(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 / (1.0 + (t / self.a) ** 2)

    def density(self, x):
        x = np.asarray(x, dtype=float)
        return 0.5 * self.a * np.exp(-self.a * np.abs(x))

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return rng.laplace(0.0, 1.0 / self.a, size=size)


@dataclass(frozen=True)
class LaplaceMixture:
    """Three-component shift mixture of a common Laplace(a) core.

    Density (1-lam) f0(x) + (lam/2) f0(x-mu) + (lam/2) f0(x+mu) with f0 the
    Laplace(a) density.  Its Fourier transform (1-lam+lam cos(mu t)) /
    (1+(t/a)^2) oscillates, so the law is only weakly ordinary smooth; the
    lower envelope picks up the factor (1-2 lam), which forces lam < 1/2.
    """

    a: float
    lam: float
    mu: float

    def __post_init__(self) -> None:
        _check_rate(self.a)
        if not 0.0 <= self.lam < 0.5:
            raise ValueError(f"mixture weight must be in [0, 1/2), got {self.lam}")
        if not (math.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"shift must be nonnegative and finite, got {self.mu}")

    beta: ClassVar[float] = 2.0
    smoothness_class: ClassVar[str] = "W"

    @property
    def c_lower(self) -> float:
        return min(self.a**2, 1.0) * (1.0 - 2.0 * self.lam)

    @property
    def c_upper(self) -> float:
        return max(self.a**2, 1.0)

    @property
    def ripple(self) -> float:
        """Highest harmonic k mu of 1/charfn above 1e-10 of its mean.

        1/(1 - lam + lam cos(mu t)) has harmonics at k mu of relative size
        2 rho^k, rho = (1 - sqrt(1 - alpha^2))/alpha, alpha = lam/(1 - lam).
        """
        alpha = self.lam / (1.0 - self.lam)
        if alpha == 0.0 or self.mu == 0.0:
            return 0.0
        rho = (1.0 - math.sqrt(1.0 - alpha**2)) / alpha
        return self.mu * math.ceil(math.log(5e-11) / math.log(rho))

    def charfn(self, t):
        t = np.asarray(t, dtype=float)
        return (1.0 - self.lam + self.lam * np.cos(self.mu * t)) / (
            1.0 + (t / self.a) ** 2
        )

    def density(self, x):
        x = np.asarray(x, dtype=float)

        def f0(u):
            return 0.5 * self.a * np.exp(-self.a * np.abs(u))

        return (1.0 - self.lam) * f0(x) + 0.5 * self.lam * (
            f0(x - self.mu) + f0(x + self.mu)
        )

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        core = rng.laplace(0.0, 1.0 / self.a, size=size)
        u = rng.random(size=size)
        shift = np.where(
            u < 0.5 * self.lam, -self.mu, np.where(u < self.lam, self.mu, 0.0)
        )
        return core + shift


@dataclass(frozen=True)
class NoError:
    """Degenerate point mass at zero (no covariate noise)."""

    beta: ClassVar[float] = 0.0
    smoothness_class: ClassVar[str] = "S"
    c_lower: ClassVar[float] = 0.5
    c_upper: ClassVar[float] = 2.0

    @property
    def ripple(self) -> float:
        return 0.0

    def charfn(self, t):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t)

    def density(self, x):
        raise ValueError("point mass at zero has no Lebesgue density")

    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        return np.zeros(size)


NoiseModel = Laplace | LaplaceMixture | NoError


def make_noise(
    kind: str,
    *,
    sigma_delta: float | None = None,
    lam: float = _LAM,
    mu: float = _MU,
) -> NoiseModel:
    """Build a noise model from config-style fields: ``kind`` is one of
    _KINDS, the CLI's --density choices.

    ``sigma_delta`` fixes the scale: for ``laplace`` it is the law's sd,
    for ``mixture`` the sd of the Laplace core.  It must be positive and
    finite for every kind but ``none``.
    """
    if kind not in _KINDS:
        raise ValueError(
            f"unknown noise kind {kind!r}; known: {', '.join(_KINDS)}")
    if kind == "none":
        return NoError()
    if sigma_delta is None or not (math.isfinite(sigma_delta) and sigma_delta > 0):
        raise ValueError(
            f"sigma_delta must be positive and finite, got {sigma_delta}")
    a = math.sqrt(2.0) / sigma_delta
    if kind == "laplace":
        return Laplace(a=a)
    return LaplaceMixture(a=a, lam=lam, mu=mu)
