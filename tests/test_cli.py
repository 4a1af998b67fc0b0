"""Command-line entry points, exercised in process plus one subprocess smoke."""
from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from berkson_bands import RegressionSample, build_regular, g_a, save_sample
from berkson_bands.cli import ConfigError, _threads, parse_and_dispatch

from conftest import A_N, LAP01

pytestmark = pytest.mark.filterwarnings("ignore:n a_n h")


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    d = build_regular(100, A_N)
    rng = np.random.default_rng(12)
    y = g_a(d.points + LAP01.sample(rng, d.size)) + 0.1 * rng.standard_normal(d.size)
    path = tmp_path_factory.mktemp("cli") / "data.csv"
    save_sample(RegressionSample(design=d, responses=y), path)
    return path


def test_estimate_writes_curve(data_csv, tmp_path):
    out = tmp_path / "est.csv"
    code = parse_and_dispatch(["estimate", "--input", str(data_csv),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "x,ghat"
    assert len(lines) > 100


def test_band_writes_csv_and_sidecar(data_csv, tmp_path):
    out = tmp_path / "band.csv"
    code = parse_and_dispatch(["band", "--input", str(data_csv),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25", "--M", "150", "--seed", "4",
                               "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,ghat,nuhat,lower,upper"
    meta = json.loads((tmp_path / "band.json").read_text())
    assert (meta["M"], meta["seed"], meta["h"]) == (150, 4, 0.25)


def test_band_accepts_preset_fixed_and_lepski_bandwidths(data_csv, tmp_path):
    common = ["band", "--input", str(data_csv), "--density", "laplace",
              "--sigma-delta", "0.1", "--M", "120"]
    assert parse_and_dispatch(common + ["--bandwidth", "preset:ga_n100_s10",
                                        "--out", str(tmp_path / "p.csv")]) == 0
    assert json.loads((tmp_path / "p.json").read_text())["h"] == 0.25
    assert parse_and_dispatch(common + ["--bandwidth", "fixed:0.3",
                                        "--out", str(tmp_path / "f.csv")]) == 0
    assert json.loads((tmp_path / "f.json").read_text())["h"] == 0.3
    assert parse_and_dispatch(common + ["--bandwidth", "lepski", "--undersmooth",
                                        "--out", str(tmp_path / "l.csv")]) == 0
    picked = json.loads((tmp_path / "l.json").read_text())["h"]
    assert picked == pytest.approx(0.5 / math.log(100), rel=1e-9)


def test_config_errors_exit_with_code_two(data_csv, tmp_path, capsys):
    out = ["--out", str(tmp_path / "x.csv")]
    assert parse_and_dispatch(["band", "--input", str(data_csv),
                               "--h", "0.25"] + out) == 2
    assert "--density" in capsys.readouterr().err
    common = ["band", "--input", str(data_csv), "--density", "laplace",
              "--sigma-delta", "0.1"]
    assert parse_and_dispatch(common + ["--h", "0.25", "--bandwidth",
                                        "lepski"] + out) == 2
    assert "mutually exclusive" in capsys.readouterr().err
    assert parse_and_dispatch(common + ["--h", "0.25", "--split"] + out) == 2
    assert "oscillating error law" in capsys.readouterr().err
    assert parse_and_dispatch(common + ["--h", "0.25", "--seed", "-1"] + out) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    assert parse_and_dispatch(["band", "--input", str(tmp_path / "missing.csv"),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25"] + out) == 2
    assert "not found" in capsys.readouterr().err


def test_simulate_runs_scenario_files(tmp_path, capsys):
    scen = {"signal": "g_a", "n": 60, "sigma": 0.05, "sigma_delta": 0.05,
            "h": 0.3, "reps": 3, "draws": 120, "seed": 7}
    path = tmp_path / "scen.json"
    path.write_text(json.dumps(scen))
    out = tmp_path / "sim"
    code = parse_and_dispatch(["--json", "simulate", "--scenario", str(path),
                               "--out", str(out)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed_reps"] == 3
    assert not payload["interrupted"]
    assert (out / "summary.json").exists()
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({**scen, "bogus": 2}))
    assert parse_and_dispatch(["simulate", "--scenario", str(bad),
                               "--out", str(tmp_path / "s2")]) == 2
    assert parse_and_dispatch(["simulate", "--scenario", "nope",
                               "--out", str(tmp_path / "s3")]) == 2
    assert "neither a preset" in capsys.readouterr().err


def test_simulate_accepts_preset_names_with_overrides(tmp_path):
    code = parse_and_dispatch(["simulate", "--scenario", "ga_n100_s10",
                               "--reps", "2", "--out", str(tmp_path / "s4")])
    assert code == 0
    summary = json.loads((tmp_path / "s4" / "summary.json").read_text())
    assert summary["completed_reps"] == 2


def test_kernel_dump_and_selftest(tmp_path, capsys):
    out = tmp_path / "k.csv"
    assert parse_and_dispatch(["kernel-dump", "--h", "0.25", "--density",
                               "laplace", "--sigma-delta", "0.1",
                               "--out", str(out)]) == 0
    with open(out) as fh:
        assert fh.readline().strip() == "u,K"
    capsys.readouterr()
    assert parse_and_dispatch(["selftest"]) == 0
    assert "selftest: all checks passed" in capsys.readouterr().out


def test_threads_resolution(monkeypatch):
    ns = argparse.Namespace(threads=None)
    monkeypatch.delenv("BB_THREADS", raising=False)
    assert _threads(ns) == 1
    monkeypatch.setenv("BB_THREADS", "3")
    assert _threads(ns) == 3
    assert _threads(argparse.Namespace(threads=4)) == 4
    monkeypatch.setenv("BB_THREADS", "x")
    with pytest.raises(ConfigError, match="BB_THREADS must be an integer"):
        _threads(ns)


def test_config_rejects_unknown_keys(capsys):
    assert parse_and_dispatch(["selftest", "--nonsense", "1"]) == 2
    assert "unrecognized arguments: --nonsense" in capsys.readouterr().err


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "k.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "berkson_bands", "kernel-dump", "--h", "0.5",
         "--density", "none", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert out.exists()
