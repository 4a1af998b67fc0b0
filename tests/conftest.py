"""Shared frozen objects: reference error laws, tapers, and the operator helper."""
from __future__ import annotations

from berkson_bands import TaperSpec, make_noise
from berkson_bands.deconv_kernel import spectral_kernels

A_N = 2.0 / 3.0
TAPER_S = TaperSpec(kind="damped_cutoff", cutoff=5.5)
TAPER_W = TaperSpec(kind="damped_cutoff", cutoff=16.0)
SMOOTH = TaperSpec(kind="smooth_poly", cutoff=1.0)
LAP01 = make_noise("laplace", sigma_delta=0.1)
MIX = make_noise("mixture", sigma_delta=0.05, lam=0.2, mu=0.3)


def operator_for(design, h, noise, spec):
    """Spectral operator of K(.;h) reaching every design point from any
    point of the design span, as the band workspace builds it."""
    (op,) = spectral_kernels([h], noise, spec,
                             float(design.points[-1] - design.points[0]))
    return op
