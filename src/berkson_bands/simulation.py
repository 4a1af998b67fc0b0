"""Monte Carlo harness: signals, scenario execution, report export.

A scenario draws R independent samples from the errors-in-covariates
model, builds a uniform band for each, and records whether the band
covers the true signal at every grid point together with its mean
width.  Reports serialize to CSV/JSON, including plot data for one
representative band.  SCENARIOS, the paper's simulation study, is the
one table of the preset scenarios and their bandwidths, which were
chosen by inspection and are shipped as data rather than re-derived.
"""
from __future__ import annotations

import contextlib
import functools
import json
import math
import time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bands import BandRequest, build_band, make_eval_grid
from .design import _A_N, RegressionSample, _is_int, build_regular, write_columns
from .noise_models import _KINDS, _LAM, _MU, NoiseModel, make_noise

__all__ = [
    "g_a",
    "g_b",
    "SIGNALS",
    "Scenario",
    "RepRecord",
    "ScenarioReport",
    "generate_sample",
    "run_scenario",
    "export_report",
    "scenario_from_dict",
    "scenario_from_file",
    "SCENARIOS",
]


def _bump(x, center: float) -> np.ndarray:
    s = np.asarray(x, dtype=float) - center
    return np.where(
        2.0 * np.abs(s) <= 1.0, np.maximum(1.0 - 4.0 * s**2, 0.0) ** 5, 0.0
    )


def g_a(x) -> np.ndarray:
    return _bump(x, 0.1)


def g_b(x) -> np.ndarray:
    return _bump(x, -0.4) + _bump(x, 0.3)


SIGNALS = {"g_a": g_a, "g_b": g_b}


@dataclass(frozen=True)
class Scenario:
    signal: str
    n: int
    sigma: float
    sigma_delta: float
    h: float
    a_n: float = _A_N
    interval: tuple[float, float] = (-0.7, 0.6)
    reps: int = 500
    draws: int = BandRequest.draws
    alpha: float = BandRequest.alpha
    seed: int = 0
    density: str = "laplace"
    lam: float = _LAM
    mu: float = _MU

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ValueError(
                f"signal must be one of {sorted(SIGNALS)}, got {self.signal!r}"
            )
        build_regular(self.n, self.a_n)  # the design validates n and a_n
        if not _is_int(self.reps) or self.reps < 1:
            raise ValueError(f"reps must be a positive integer, got {self.reps!r}")
        if not (0 <= self.sigma < math.inf and 0 <= self.sigma_delta < math.inf):
            raise ValueError("sigma and sigma_delta must be finite and >= 0")
        # h, alpha, draws, seed and the interval are the band request's
        self.request(self.seed)
        make_eval_grid(self.interval, self.n, self.a_n, self.h)
        self.noise()  # validates the density spec eagerly

    def request(self, seed: int) -> BandRequest:
        """Band request of one replication, drawing with ``seed``."""
        return BandRequest(interval=self.interval, h=self.h, alpha=self.alpha,
                           draws=self.draws, seed=seed)

    def noise(self) -> NoiseModel:
        """Error-law object for this scenario.

        For the Laplace kind ``sigma_delta`` is the error sd; for the
        mixture kind it is the sd of the Laplace component, with the
        shift mass ``lam`` at +/- ``mu`` on top.  A zero ``sigma_delta``
        gives the error-free law, whatever the (known) kind.
        """
        if self.sigma_delta == 0.0 and self.density in _KINDS:
            return make_noise("none")
        return make_noise(
            self.density,
            sigma_delta=self.sigma_delta,
            lam=self.lam,
            mu=self.mu,
        )


@dataclass(frozen=True)
class RepRecord:
    rep: int
    covered: bool
    width: float


@dataclass
class ScenarioReport:
    scenario: Scenario
    rejection_rate: float | None  # None when no replication finished
    mean_width: float | None
    records: list[RepRecord]
    runtime: float
    spacing: float
    interrupted: bool = False
    representative: dict[str, np.ndarray] | None = field(
        default=None, repr=False
    )


def generate_sample(scenario: Scenario, rep_seed) -> RegressionSample:
    """One draw of the model Y_j = g(w_j + delta_j) + eps_j."""
    rng = np.random.default_rng(rep_seed)
    design = build_regular(scenario.n, scenario.a_n)
    noise = scenario.noise()
    delta = noise.sample(rng, design.size)
    eps = scenario.sigma * rng.standard_normal(design.size)
    g = SIGNALS[scenario.signal]
    y = g(design.points + delta) + eps
    return RegressionSample(design=design, responses=y)


def _run_rep(scenario: Scenario, rep: int):
    data_seed = np.random.SeedSequence((scenario.seed, rep, 0))
    words = np.random.SeedSequence((scenario.seed, rep, 1)).generate_state(4)
    band_seed = sum(int(v) << (32 * i) for i, v in enumerate(words))  # 128 bits
    sample = generate_sample(scenario, data_seed)
    band = build_band(sample, scenario.request(band_seed), scenario.noise())
    g_true = SIGNALS[scenario.signal](band.grid)
    rec = RepRecord(
        rep=rep, covered=band.covers(g_true), width=band.mean_width
    )
    extra = None
    if rep == 0:
        extra = {
            "x": band.grid,
            "g": g_true,
            "ghat": band.ghat,
            "lower": band.lower,
            "upper": band.upper,
        }
    return rec, band.spacing, extra


def run_scenario(scenario: Scenario, workers: int | None = None) -> ScenarioReport:
    """Execute all reps and aggregate coverage and width.

    ``workers`` > 1 distributes reps over a pool of at most
    min(workers, reps) processes with per-rep derived seeds (results
    identical to the serial run).  Inner draw parallelism is left to the
    BLAS layer.  A keyboard interrupt stops the loop and returns the
    completed reps with the interrupted flag set; with none completed,
    the rejection rate and mean width are None.
    """
    start = time.perf_counter()
    records: list[RepRecord] = []
    spacing = 0.0
    representative = None
    interrupted = False
    serial = workers is None or workers <= 1 or scenario.reps <= 1
    try:
        if serial:
            pool = contextlib.nullcontext()
        else:
            from concurrent.futures import ProcessPoolExecutor  # off the CLI path
            pool = ProcessPoolExecutor(max_workers=min(workers, scenario.reps))
        with pool:
            runs = (map if serial else pool.map)(
                _run_rep, [scenario] * scenario.reps, range(scenario.reps))
            for rec, spacing, extra in runs:
                records.append(rec)
                if extra is not None:
                    representative = extra
    except KeyboardInterrupt:
        interrupted = True
    runtime = time.perf_counter() - start
    rejection = mean_width = None  # no replication finished: JSON null
    if records:
        rejection = 1.0 - float(np.mean([r.covered for r in records]))
        mean_width = float(np.mean([r.width for r in records]))
    return ScenarioReport(
        scenario=scenario,
        rejection_rate=rejection,
        mean_width=mean_width,
        records=records,
        runtime=runtime,
        spacing=spacing,
        interrupted=interrupted,
        representative=representative,
    )


def export_report(report: ScenarioReport, out_dir) -> None:
    """Write reps.csv, summary.json, and band.csv under ``out_dir``."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    recs = report.records
    write_columns(out / "reps.csv", "rep,covered,width",
                  [r.rep for r in recs], [int(r.covered) for r in recs],
                  [r.width for r in recs])
    sc = report.scenario
    summary = {
        "scenario": {f.name: getattr(sc, f.name) for f in fields(sc)},
        "rejection_rate": report.rejection_rate,
        "mean_width": report.mean_width,
        "completed_reps": len(report.records),
        "runtime": report.runtime,
        "spacing": report.spacing,
        "interrupted": report.interrupted,
    }
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    keys = ("x", "g", "ghat", "lower", "upper")
    rep = report.representative
    cols = [] if rep is None else [rep[k] for k in keys]
    write_columns(out / "band.csv", ",".join(keys), *cols)


def scenario_from_dict(data: dict) -> Scenario:
    known = {f.name for f in fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    data = dict(data)
    if "interval" in data:
        data["interval"] = tuple(data["interval"])
    return Scenario(**data)


def scenario_from_file(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


# The paper's study: signal, n, sigma, sigma_delta and h; the mixture
# presets' sigma_delta is the sd of the law's Laplace core.
_paper = functools.partial(Scenario, seed=20_240_501)
SCENARIOS: dict[str, Scenario] = {
    "ga_n100_s10": _paper("g_a", 100, 0.1, 0.1, 0.25),
    "ga_n100_s05": _paper("g_a", 100, 0.05, 0.05, 0.24),
    "ga_n750_s10": _paper("g_a", 750, 0.1, 0.1, 0.21),
    "ga_n750_s05": _paper("g_a", 750, 0.05, 0.05, 0.12),
    "gb_n100_s10": _paper("g_b", 100, 0.1, 0.1, 0.20),
    "gb_n100_s05": _paper("g_b", 100, 0.05, 0.05, 0.22),
    "gb_n750_s10": _paper("g_b", 750, 0.1, 0.1, 0.22),
    "gb_n750_s05": _paper("g_b", 750, 0.05, 0.05, 0.11),
    "mix_ga_n100": _paper("g_a", 100, 0.1, 0.05, 0.59, density="mixture"),
    "mix_ga_n750": _paper("g_a", 750, 0.1, 0.05, 0.32, density="mixture"),
}
