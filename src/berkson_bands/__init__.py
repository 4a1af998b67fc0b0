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
    BandResult,
    build_band,
    build_band_extension,
    default_taper,
    make_eval_grid,
    quantile,
    write_band,
)
from .bandwidth import (
    LepskiConfig,
    LepskiResult,
    default_lepski_config,
    lepski_select,
    preset_h,
    undersmooth,
)
from .deconv_kernel import KernelTable, TaperSpec, kernel_eval, kernel_table, phi_k
from .design import (
    Design,
    RegressionSample,
    SplitDesign,
    build_from_density,
    build_regular,
    build_split,
    load_sample,
    save_sample,
)
from .estimator import (
    EstimateCurve,
    estimate_g,
    estimate_g_fourier,
    gamma_profile,
    nu2_profile,
    oracle_gamma,
    oracle_mean,
    oracle_nu2,
    oracle_variance,
)
from .noise_models import (
    Laplace,
    LaplaceMixture,
    NoError,
    NoiseModel,
    laplace_from_sd,
    make_noise,
)
from .simulation import (
    SCENARIOS,
    Scenario,
    ScenarioReport,
    export_report,
    g_a,
    g_b,
    generate_sample,
    run_scenario,
)
from .variance_estimation import VarianceCurve, estimate_nu, estimate_sigma2

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BandRequest",
    "BandResult",
    "build_band",
    "build_band_extension",
    "default_taper",
    "make_eval_grid",
    "quantile",
    "write_band",
    "LepskiConfig",
    "LepskiResult",
    "default_lepski_config",
    "lepski_select",
    "preset_h",
    "undersmooth",
    "KernelTable",
    "TaperSpec",
    "kernel_eval",
    "kernel_table",
    "phi_k",
    "Design",
    "RegressionSample",
    "SplitDesign",
    "build_from_density",
    "build_regular",
    "build_split",
    "load_sample",
    "save_sample",
    "EstimateCurve",
    "estimate_g",
    "estimate_g_fourier",
    "gamma_profile",
    "nu2_profile",
    "oracle_gamma",
    "oracle_mean",
    "oracle_nu2",
    "oracle_variance",
    "Laplace",
    "LaplaceMixture",
    "NoError",
    "NoiseModel",
    "laplace_from_sd",
    "make_noise",
    "SCENARIOS",
    "Scenario",
    "ScenarioReport",
    "export_report",
    "g_a",
    "g_b",
    "generate_sample",
    "run_scenario",
    "VarianceCurve",
    "estimate_nu",
    "estimate_sigma2",
]
