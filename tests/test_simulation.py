"""Scenario presets, data generation, and the coverage harness."""
from __future__ import annotations

import concurrent.futures
import dataclasses
import json
import math

import numpy as np
import pytest

from berkson_bands import (
    NoError,
    SCENARIOS,
    Scenario,
    build_regular,
    export_report,
    g_a,
    g_b,
    generate_sample,
    run_scenario,
)
from berkson_bands.cli import parse_and_dispatch
from berkson_bands.simulation import scenario_from_dict, scenario_from_file

from conftest import A_N, LAP01
from oracles import oracle_gamma, oracle_nu2

pytestmark = pytest.mark.filterwarnings("ignore:n a_n h")


def test_signal_shapes():
    assert g_a(0.1) == 1.0
    assert np.all(g_a(np.array([0.61, -0.41])) == 0.0)
    assert g_b(-0.4) == 1.0
    assert g_b(0.3) == 1.0
    assert g_b(1.0) == 0.0


def test_preset_scenario_table():
    expected = {
        "ga_n100_s10": (100, 0.1, 0.25),
        "ga_n100_s05": (100, 0.05, 0.24),
        "ga_n750_s10": (750, 0.1, 0.21),
        "ga_n750_s05": (750, 0.05, 0.12),
        "gb_n100_s10": (100, 0.1, 0.20),
        "gb_n100_s05": (100, 0.05, 0.22),
        "gb_n750_s10": (750, 0.1, 0.22),
        "gb_n750_s05": (750, 0.05, 0.11),
    }
    for tag, (n, s, h) in expected.items():
        sc = SCENARIOS[tag]
        assert (sc.n, sc.sigma, sc.sigma_delta, sc.h) == (n, s, s, h)
        assert (sc.reps, sc.draws, sc.seed) == (500, 250, 20_240_501)
        assert sc.density == "laplace"
    assert SCENARIOS["mix_ga_n100"].h == 0.59
    assert SCENARIOS["mix_ga_n750"].h == 0.32
    assert SCENARIOS["mix_ga_n100"].density == "mixture"
    assert SCENARIOS["mix_ga_n100"].sigma_delta == 0.05
    assert len(SCENARIOS) == 10


def test_scenario_validation():
    base = dict(signal="g_a", n=50, sigma=0.1, sigma_delta=0.1, h=0.3)
    with pytest.raises(ValueError, match="signal must be one of"):
        Scenario(**{**base, "signal": "g_c"})
    with pytest.raises(ValueError, match="sigma and sigma_delta"):
        Scenario(**{**base, "sigma": -0.1})
    with pytest.raises(ValueError, match="identifiable range"):
        Scenario(**{**base, "h": 1.0})
    # sigma_delta = 0 is the error-free law, but only of a known kind
    for density, sd in (("gauss", 0.1), ("noerror", 0.1), ("noerror", 0.0)):
        with pytest.raises(ValueError, match="unknown noise kind"):
            Scenario(**{**base, "density": density, "sigma_delta": sd})
    with pytest.raises(ValueError, match="draws must be an integer"):
        Scenario(**{**base, "draws": 120.5})
    for reps in (2.5, 0):
        with pytest.raises(ValueError, match="reps must be a positive integer"):
            Scenario(**{**base, "reps": reps})
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        Scenario(**{**base, "seed": -1})
    with pytest.raises(ValueError, match="invalid interval"):
        Scenario(**{**base, "interval": (0.5, -0.5)})
    for field, value, message in (("n", 0, "need n >= 1 and an integer"),
                                  ("n", 50.0, "need n >= 1 and an integer"),
                                  ("a_n", -1.0, "need a_n > 0 and finite"),
                                  ("a_n", float("inf"), "need a_n > 0 and finite")):
        with pytest.raises(ValueError, match=message):
            Scenario(**{**base, field: value})


def test_noise_resolution():
    base = dict(signal="g_a", n=50, sigma=0.1, h=0.3)
    assert Scenario(**base, sigma_delta=0.1).noise() == LAP01
    assert isinstance(Scenario(**base, sigma_delta=0.0).noise(), NoError)
    assert isinstance(Scenario(**base, sigma_delta=0.1, density="none").noise(),
                      NoError)


def test_generated_sample_moments_match_oracles():
    sc = Scenario(signal="g_a", n=100, sigma=0.1, sigma_delta=0.1, h=0.25, seed=0)
    j = 7
    w_j = float(build_regular(100, A_N).points[100 + j])
    reps = 10_000
    vals = np.array([generate_sample(sc, (123, r)).responses[100 + j]
                     for r in range(reps)])
    se_mean = vals.std(ddof=1) / math.sqrt(reps)
    centred = vals - vals.mean()
    se_var = math.sqrt((np.mean(centred**4) - np.var(vals) ** 2) / reps)
    assert abs(vals.mean() - oracle_gamma(g_a, LAP01, w_j)) < 3.0 * se_mean
    assert abs(np.var(vals, ddof=1) - oracle_nu2(g_a, LAP01, 0.01, w_j)) \
        < 3.0 * se_var


def test_noise_free_scenario_never_rejects():
    sc = Scenario(signal="g_a", n=800, sigma=0.0, sigma_delta=0.0, h=0.08,
                  reps=3, draws=150, seed=1)
    report = run_scenario(sc)
    assert report.rejection_rate == 0.0
    assert report.mean_width < 0.01


def test_runs_are_deterministic_and_worker_invariant():
    sc = Scenario(signal="g_a", n=60, sigma=0.05, sigma_delta=0.05, h=0.3,
                  reps=10, draws=120, seed=7)
    serial = run_scenario(sc)
    again = run_scenario(sc)
    pooled = run_scenario(sc, workers=2)
    for other in (again, pooled):
        assert [r.covered for r in other.records] == \
            [r.covered for r in serial.records]
        assert [r.width for r in other.records] == \
            [r.width for r in serial.records]
    assert serial.rejection_rate == pooled.rejection_rate
    assert len(serial.records) == 10


@pytest.mark.parametrize("seed", [1, 5, 9])
def test_preset_report_does_not_depend_on_the_worker_count(seed):
    sc = dataclasses.replace(SCENARIOS["ga_n100_s10"], reps=4, seed=seed)
    serial = run_scenario(sc, workers=1)
    pooled = run_scenario(sc, workers=2)
    assert pooled.records == serial.records
    assert pooled.rejection_rate == serial.rejection_rate
    assert pooled.mean_width == serial.mean_width


def test_pool_never_exceeds_the_replication_count(monkeypatch):
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    sc = Scenario(signal="g_a", n=60, sigma=0.05, sigma_delta=0.05, h=0.3,
                  reps=3, draws=120, seed=7)
    report = run_scenario(sc, workers=64)
    assert sizes == [3]
    assert len(report.records) == 3


def test_report_export_round_trip(tmp_path):
    sc = Scenario(signal="g_a", n=60, sigma=0.05, sigma_delta=0.05, h=0.3,
                  reps=4, draws=120, seed=7)
    report = run_scenario(sc)
    out = tmp_path / "run"
    export_report(report, out)
    assert sorted(p.name for p in out.iterdir()) == \
        ["band.csv", "reps.csv", "summary.json"]
    with open(out / "summary.json", encoding="utf-8") as fh:
        summary = json.load(fh)
    assert summary["rejection_rate"] == report.rejection_rate
    assert summary["completed_reps"] == 4
    assert summary["scenario"]["n"] == 60
    reps_lines = (out / "reps.csv").read_text().splitlines()
    assert reps_lines[0] == "rep,covered,width"
    assert len(reps_lines) == 5
    with open(out / "band.csv") as fh:
        assert fh.readline().strip() == "x,g,ghat,lower,upper"
    band = np.loadtxt(out / "band.csv", delimiter=",", skiprows=1)
    assert np.all(np.diff(band[:, 0]) > 0)
    assert np.all(band[:, 3] <= band[:, 4])


def test_scenario_round_trip_and_unknown_fields(tmp_path, capsys):
    data = {"signal": "g_a", "n": 60, "sigma": 0.05, "sigma_delta": 0.05, "h": 0.3}
    sc = scenario_from_dict(data)
    assert (sc.n, sc.h) == (60, 0.3)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({**data, "reps": 7, "seed": 3}))
    sc2 = scenario_from_file(path)
    assert (sc2.reps, sc2.seed) == (7, 3)
    with pytest.raises(ValueError, match="unknown scenario fields"):
        scenario_from_dict({**data, "bogus": 1})
    # a JSON interval is a list; the scenario holds a tuple and stays hashable
    listed = scenario_from_dict({**data, "interval": [-0.5, 0.4]})
    assert type(listed.interval) is tuple and listed.interval == (-0.5, 0.4)
    assert hash(listed) == hash(scenario_from_dict({**data, "interval": (-0.5, 0.4)}))
    # every band of a scenario takes the error law's default taper
    path.write_text(json.dumps({**data, "taper": {"kind": "damped_cutoff",
                                                   "cutoff": 5.5}}))
    assert parse_and_dispatch(["simulate", "--scenario", str(path),
                               "--out", str(tmp_path / "run")]) == 2
    assert "unknown scenario fields: ['taper']" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
