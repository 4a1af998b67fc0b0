"""Shared frozen objects: reference error laws, tapers, and a table helper."""
from __future__ import annotations

from berkson_bands import TaperSpec, kernel_table, make_noise

A_N = 2.0 / 3.0
TAPER_S = TaperSpec(kind="damped_cutoff", cutoff=5.5)
TAPER_W = TaperSpec(kind="damped_cutoff", cutoff=16.0)
SMOOTH = TaperSpec(kind="smooth_poly", cutoff=1.0, flat_radius=0.5)
LAP01 = make_noise("laplace", sigma_delta=0.1)
MIX = make_noise("mixture", sigma_delta=0.05, lam=0.2, mu=0.3)


def table_for(design, h, noise, spec):
    """Kernel table wide enough to reach every design point at bandwidth h."""
    return kernel_table(h, noise, spec, span=design.kernel_span(h))
