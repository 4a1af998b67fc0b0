"""Uniform confidence bands for nonparametric regression with
Berkson-type covariate measurement errors.

The estimator deconvolves the known error law with a tapered Fourier
kernel; bands come from a Gaussian multiplier bootstrap of the
estimator's linearization, with widths driven by a calibrated local
variance field.
"""
from __future__ import annotations

from .bands import (
    BandRequest,
    build_band,
    build_band_extension,
    default_taper,
    make_eval_grid,
    quantile,
    write_band,
)
from .bandwidth import lepski_select, undersmooth
from .deconv_kernel import TaperSpec, phi_k
from .design import (
    Design,
    RegressionSample,
    build_regular,
    build_split,
    load_sample,
    save_sample,
)
from .estimator import estimate_g
from .noise_models import (
    Laplace,
    LaplaceMixture,
    NoError,
    NoiseModel,
    make_noise,
)
from .simulation import (
    SCENARIOS,
    Scenario,
    export_report,
    g_a,
    g_b,
    generate_sample,
    run_scenario,
)
from .variance_estimation import estimate_nu

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandRequest",
    "build_band",
    "build_band_extension",
    "default_taper",
    "make_eval_grid",
    "quantile",
    "write_band",
    "lepski_select",
    "undersmooth",
    "TaperSpec",
    "phi_k",
    "Design",
    "RegressionSample",
    "build_regular",
    "build_split",
    "load_sample",
    "save_sample",
    "estimate_g",
    "Laplace",
    "LaplaceMixture",
    "NoError",
    "NoiseModel",
    "make_noise",
    "SCENARIOS",
    "Scenario",
    "export_report",
    "g_a",
    "g_b",
    "generate_sample",
    "run_scenario",
    "estimate_nu",
]
