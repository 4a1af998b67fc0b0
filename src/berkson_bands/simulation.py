"""Monte Carlo harness: signals, scenario execution, report export.

A scenario draws R independent samples from the errors-in-covariates
model, builds a uniform band for each, and records whether the band
covers the true signal at every grid point together with its mean
width.  Reports serialize to CSV/JSON, including plot data for one
representative band.
"""
from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .bands import BandRequest, build_band
from .bandwidth import TABLE_PRESETS
from .deconv_kernel import TaperSpec
from .design import RegressionSample, build_regular
from .noise_models import NoiseModel, make_noise

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
    "load_summary",
    "scenario_from_dict",
    "scenario_from_file",
    "SCENARIOS",
]

_DEFAULT_INTERVAL = (-0.7, 0.6)


def _bump(x: np.ndarray, center: float) -> np.ndarray:
    s = x - center
    return np.where(
        2.0 * np.abs(s) <= 1.0, np.maximum(1.0 - 4.0 * s**2, 0.0) ** 5, 0.0
    )


def g_a(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _bump(x, 0.1)


def g_b(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    return _bump(x, -0.4) + _bump(x, 0.3)


SIGNALS = {"g_a": g_a, "g_b": g_b}


@dataclass(frozen=True)
class Scenario:
    signal: str
    n: int
    sigma: float
    sigma_delta: float
    h: float
    a_n: float = 2.0 / 3.0
    interval: tuple[float, float] = _DEFAULT_INTERVAL
    reps: int = 500
    draws: int = 250
    alpha: float = 0.05
    seed: int = 0
    density: str = "laplace"
    lam: float = 0.2
    mu: float = 0.3
    taper: TaperSpec | None = None

    def __post_init__(self) -> None:
        if self.signal not in SIGNALS:
            raise ValueError(
                f"signal must be one of {sorted(SIGNALS)}, got {self.signal!r}"
            )
        if self.n < 1:
            raise ValueError(f"n must be positive, got {self.n}")
        if self.sigma < 0 or self.sigma_delta < 0:
            raise ValueError("sigma and sigma_delta must be >= 0")
        if self.h <= 0 or self.a_n <= 0:
            raise ValueError("h and a_n must be positive")
        if self.reps < 0 or self.draws < 1:
            raise ValueError("need reps >= 0 and draws >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0,1), got {self.alpha}")
        a, b = self.interval
        lo = -1.0 / self.a_n + self.h
        hi = 1.0 / self.a_n - self.h
        if a < lo - 1e-12 or b > hi + 1e-12 or a > b:
            raise ValueError(
                f"interval [{a}, {b}] must lie in the identifiable range "
                f"[{lo:.4g}, {hi:.4g}] at h={self.h}"
            )
        self.noise()  # validates the density spec eagerly

    def noise(self) -> NoiseModel:
        """Error-law object for this scenario.

        For the Laplace kind ``sigma_delta`` is the error sd; for the
        mixture kind it is the sd of the Laplace component, with the
        shift mass ``lam`` at +/- ``mu`` on top.
        """
        if self.density in ("none", "noerror") or self.sigma_delta == 0.0:
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
    rejection_rate: float
    mean_width: float
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
    band_seed = int(
        np.random.SeedSequence((scenario.seed, rep, 1)).generate_state(1)[0]
    )
    sample = generate_sample(scenario, data_seed)
    request = BandRequest(
        interval=scenario.interval,
        h=scenario.h,
        alpha=scenario.alpha,
        draws=scenario.draws,
        seed=band_seed,
    )
    band = build_band(sample, request, scenario.noise(), taper=scenario.taper)
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

    ``workers`` > 1 distributes reps over a process pool with per-rep
    derived seeds (results identical to the serial run).  Inner draw
    parallelism is left to the BLAS layer.  A keyboard interrupt stops
    the loop and returns the completed reps with the interrupted flag
    set.
    """
    start = time.perf_counter()
    records: list[RepRecord] = []
    spacing = 0.0
    representative = None
    interrupted = False
    reps = range(scenario.reps)
    try:
        if workers is None or workers <= 1 or scenario.reps <= 1:
            for rep in reps:
                rec, spacing, extra = _run_rep(scenario, rep)
                records.append(rec)
                if extra is not None:
                    representative = extra
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                for rec, spacing, extra in pool.map(
                    _run_rep, [scenario] * scenario.reps, reps
                ):
                    records.append(rec)
                    if extra is not None:
                        representative = extra
    except KeyboardInterrupt:
        interrupted = True
    runtime = time.perf_counter() - start
    if records:
        rejection = 1.0 - float(np.mean([r.covered for r in records]))
        mean_width = float(np.mean([r.width for r in records]))
    else:
        rejection = float("nan")
        mean_width = float("nan")
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
    with open(out / "reps.csv", "w", encoding="utf-8") as fh:
        fh.write("rep,covered,width\n")
        for r in report.records:
            fh.write(f"{r.rep},{int(r.covered)},{r.width:.10g}\n")
    sc = report.scenario
    summary = {
        "scenario": {
            f.name: getattr(sc, f.name)
            for f in fields(sc)
            if f.name != "taper"
        },
        "rejection_rate": report.rejection_rate,
        "mean_width": report.mean_width,
        "completed_reps": len(report.records),
        "runtime": report.runtime,
        "spacing": report.spacing,
        "interrupted": report.interrupted,
    }
    summary["scenario"]["interval"] = list(sc.interval)
    with open(out / "summary.json", "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(out / "band.csv", "w", encoding="utf-8") as fh:
        fh.write("x,g,ghat,lower,upper\n")
        rep = report.representative
        if rep is not None:
            for row in zip(
                rep["x"], rep["g"], rep["ghat"], rep["lower"], rep["upper"]
            ):
                fh.write(",".join(f"{v:.10g}" for v in row) + "\n")


def load_summary(out_dir) -> dict:
    with open(Path(out_dir) / "summary.json", encoding="utf-8") as fh:
        return json.load(fh)


def scenario_from_dict(data: dict) -> Scenario:
    known = {f.name for f in fields(Scenario)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    data = dict(data)
    if "interval" in data:
        data["interval"] = tuple(data["interval"])
    if "taper" in data and data["taper"] is not None:
        data["taper"] = TaperSpec(**data["taper"])
    return Scenario(**data)


def scenario_from_file(path) -> Scenario:
    with open(path, encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))


def _table_scenarios() -> dict[str, Scenario]:
    out: dict[str, Scenario] = {}
    for (sig, n, s), h in TABLE_PRESETS.items():
        tag = f"{sig.replace('_', '')}_n{n}_s{int(round(100 * s)):02d}"
        out[tag] = Scenario(
            signal=sig, n=n, sigma=s, sigma_delta=s, h=h, seed=20_240_501
        )
    out["mix_ga_n100"] = Scenario(
        signal="g_a",
        n=100,
        sigma=0.1,
        sigma_delta=0.05,
        h=0.59,
        density="mixture",
        seed=20_240_501,
    )
    out["mix_ga_n750"] = Scenario(
        signal="g_a",
        n=750,
        sigma=0.1,
        sigma_delta=0.05,
        h=0.32,
        density="mixture",
        seed=20_240_501,
    )
    return out


SCENARIOS: dict[str, Scenario] = _table_scenarios()
