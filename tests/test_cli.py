"""Command-line entry points, exercised in process plus one subprocess smoke."""
from __future__ import annotations

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berkson_bands import (SCENARIOS, RegressionSample, build_regular,
                           default_taper, g_a, generate_sample, load_sample,
                           save_sample)
from berkson_bands import cli, simulation
from berkson_bands.cli import parse_and_dispatch

from conftest import A_N, LAP01, SMOOTH, operator_for
from oracles import kernel_eval


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
    # the CLI's Fourier sums against a direct node sum at the written points
    x, ghat = np.loadtxt(out, delimiter=",", skiprows=1).T
    sample = load_sample(data_csv, A_N)
    d = sample.design
    op = operator_for(d, 0.25, LAP01, default_taper(LAP01))
    direct = op.exact_matrix(x, d.points) @ (d.weights * sample.responses) / 0.25
    assert np.max(np.abs(ghat - direct)) < 1e-6


def test_band_writes_csv_and_sidecar(data_csv, tmp_path, capsys):
    out = tmp_path / "band.csv"
    code = parse_and_dispatch(["--json", "band", "--input", str(data_csv),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25", "--M", "150", "--seed", "4",
                               "--out", str(out)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "x,ghat,nuhat,lower,upper"
    meta = json.loads((tmp_path / "band.json").read_text())
    assert (meta["M"], meta["seed"], meta["h"]) == (150, 4, 0.25)
    payload = json.loads(capsys.readouterr().out)
    assert payload["sidecar"] == str(tmp_path / "band.json")
    assert meta == {key: payload[key] for key in meta}


def test_band_out_ending_in_json_exits_two_before_any_work(
        data_csv, tmp_path, capsys, monkeypatch):
    def no_work(args):
        raise AssertionError("the band was computed")

    monkeypatch.setattr(cli, "_prepare", no_work)
    out = tmp_path / "band.json"
    assert parse_and_dispatch(["band", "--input", str(data_csv),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25", "--out", str(out)]) == 2
    assert "config error: --out:" in capsys.readouterr().err
    assert not out.exists()


def test_too_small_samples_exit_with_code_two(tmp_path, capsys):
    # a 3-row file is the design of n = 1: log n = 0 leaves the Lepski
    # rule undefined and undersmoothing needs n >= 3
    tiny = tmp_path / "tiny.csv"
    save_sample(RegressionSample(design=build_regular(1, A_N),
                                 responses=np.array([0.1, 0.2, 0.3])), tiny)
    common = ["estimate", "--input", str(tiny), "--density", "laplace",
              "--sigma-delta", "0.1", "--out", str(tmp_path / "e.csv")]
    assert parse_and_dispatch(common + ["--bandwidth", "lepski"]) == 2
    err = capsys.readouterr().err
    assert "--bandwidth" in err and "n >= 2" in err
    assert parse_and_dispatch(common + ["--h", "0.25", "--undersmooth"]) == 2
    err = capsys.readouterr().err
    assert "--undersmooth" in err and "n >= 3" in err


def test_band_accepts_preset_and_lepski_bandwidths(data_csv, tmp_path, capsys):
    common = ["band", "--input", str(data_csv), "--density", "laplace",
              "--sigma-delta", "0.1", "--M", "120"]
    assert parse_and_dispatch(common + ["--bandwidth", "preset:ga_n100_s10",
                                        "--out", str(tmp_path / "p.csv")]) == 0
    assert json.loads((tmp_path / "p.json").read_text())["h"] == 0.25
    assert parse_and_dispatch(common + ["--bandwidth", "lepski", "--undersmooth",
                                        "--out", str(tmp_path / "l.csv")]) == 0
    picked = json.loads((tmp_path / "l.json").read_text())["h"]
    assert picked == pytest.approx(0.5 / math.log(100), rel=1e-9)
    capsys.readouterr()
    # a fixed bandwidth is --h alone
    assert parse_and_dispatch(common + ["--bandwidth", "fixed:0.3",
                                        "--out", str(tmp_path / "f.csv")]) == 2
    err = capsys.readouterr().err
    assert "--bandwidth must be preset:<scenario> or lepski" in err
    assert not (tmp_path / "f.csv").exists()


def test_bandwidth_errors_exit_with_code_two(data_csv, tmp_path, capsys):
    out = tmp_path / "est.csv"
    estimate = ["estimate", "--input", str(data_csv), "--density", "laplace",
                "--sigma-delta", "0.1", "--out", str(out)]
    assert parse_and_dispatch(estimate) == 2
    assert "one of --h or --bandwidth is required" in capsys.readouterr().err
    assert parse_and_dispatch(estimate + ["--bandwidth", "preset:nope"]) == 2
    err = capsys.readouterr().err
    assert "--bandwidth preset 'nope' unknown" in err
    assert f"known: {', '.join(sorted(SCENARIOS))}" in err
    assert not out.exists()


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
    # build_band_extension owns the split band's law rule
    for split in (["--split"], ["--d-n", "8"], ["--b-n", "0.5"]):
        assert parse_and_dispatch(common + ["--h", "0.25", *split] + out) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --split/--d-n/--b-n:")
        assert "oscillating error law" in err
    assert parse_and_dispatch(common + ["--h", "0.25", "--seed", "-1"] + out) == 2
    assert "seed must be a non-negative integer" in capsys.readouterr().err
    reversed_interval = ["--interval", "0.5", "-0.5"]
    assert parse_and_dispatch(["estimate"] + common[1:] + ["--h", "0.2"]
                              + reversed_interval + out) == 2
    assert "--interval" in capsys.readouterr().err
    assert parse_and_dispatch(common + ["--bandwidth", "lepski"]
                              + reversed_interval + out) == 2
    assert "--interval" in capsys.readouterr().err
    assert parse_and_dispatch(["estimate"] + common[1:] + ["--h", "0.25",
                              "--interval", "-1.4", "1.4"] + out) == 2
    assert "identifiable range" in capsys.readouterr().err
    assert parse_and_dispatch(common + ["--bandwidth", "lepski", "--interval",
                                        "-1.4", "1.4"] + out) == 2
    err = capsys.readouterr().err
    assert "--interval" in err and "identifiable range" in err
    assert parse_and_dispatch(common + ["--h", "0.25", "--a-n", "nan"] + out) == 2
    assert "--a-n" in capsys.readouterr().err
    # kernel-dump's span is set by --span alone
    for value in ("nan", "-1", "0.5"):
        assert parse_and_dispatch(["kernel-dump", "--h", "0.25", "--density",
                                   "none", "--a-n", value] + out) == 2
        assert "unrecognized arguments: --a-n" in capsys.readouterr().err
    assert parse_and_dispatch(["band", "--input", str(tmp_path / "missing.csv"),
                               "--density", "laplace", "--sigma-delta", "0.1",
                               "--h", "0.25"] + out) == 2
    assert "not found" in capsys.readouterr().err
    shifted = tmp_path / "shifted.csv"
    shifted.write_text("w,Y\n-1,0\n0.1,0\n1,0\n")
    assert parse_and_dispatch(common[:2] + [str(shifted)] + common[3:]
                              + ["--h", "0.25"] + out) == 2
    err = capsys.readouterr().err
    assert "--input" in err and err.count(str(shifted)) == 1
    mixture = ["--density", "mixture", "--sigma-delta", "0.05"]
    for law, message in (
        (["--density", "laplace", "--sigma-delta", "nan"], "sigma_delta must be"),
        (["--density", "laplace", "--sigma-delta", "inf"], "sigma_delta must be"),
        (["--density", "laplace"], "sigma_delta must be"),
        (mixture + ["--mu", "nan"], "shift must be"),
        (mixture + ["--mu", "inf"], "shift must be"),
        (mixture + ["--lam", "nan"], "mixture weight"),
    ):
        argv = ["band", "--input", str(data_csv), *law, "--h", "0.25"] + out
        assert parse_and_dispatch(argv) == 2
        err = capsys.readouterr().err
        assert "--sigma-delta/--lam/--mu" in err and message in err
    split_out = tmp_path / "split.csv"
    split = ["band", "--input", str(data_csv), *mixture, "--h", "0.5", "--split",
             "--out", str(split_out)]
    for flag, value in (("--b-n", "0"), ("--b-n", "-1"), ("--b-n", "nan"),
                        ("--b-n", "inf"), ("--d-n", "1"), ("--d-n", "200")):
        assert parse_and_dispatch(split + [flag, value]) == 2
        assert f"config error: {flag}:" in capsys.readouterr().err
    assert not split_out.exists()
    taper_out = tmp_path / "taper.csv"
    for command in (["estimate", "--input", str(data_csv), "--h", "0.25"],
                    ["band", "--input", str(data_csv), "--h", "0.25"],
                    ["kernel-dump", "--h", "0.25"]):
        for taper in (["--taper", "damped_cutoff"], []):
            for cutoff in ("nan", "inf"):
                argv = command + ["--density", "laplace", "--sigma-delta", "0.1",
                                  *taper, "--cutoff", cutoff, "--out", str(taper_out)]
                assert parse_and_dispatch(argv) == 2
                err = capsys.readouterr().err
                assert "--taper/--cutoff" in err and "finite" in err
    assert not taper_out.exists()


def test_band_on_a_too_short_interval_writes_nothing(data_csv, tmp_path, capsys):
    out = tmp_path / "short.csv"
    assert parse_and_dispatch(["band", "--input", str(data_csv), "--density",
                               "laplace", "--sigma-delta", "0.1", "--h", "0.25",
                               "--interval", "0.09", "0.11",
                               "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: --interval: interval [0.09, 0.11]" in err
    assert "use an interval longer than" in err
    assert not out.exists()
    sc = SCENARIOS["mix_ga_n100"]
    mix_csv = tmp_path / "mix.csv"
    save_sample(generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0))),
                mix_csv)
    for a, b in (("0.09", "0.1"), ("0.0", "0.3")):
        assert parse_and_dispatch(["band", "--input", str(mix_csv), "--density",
                                   "mixture", "--sigma-delta", "0.05", "--h", "0.5",
                                   "--split", "--interval", a, b,
                                   "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: --interval: interval [{a}, {b}]" in err
        assert "use an interval longer than" in err
    assert not out.exists()


def test_band_with_a_too_large_h_exits_two(data_csv, tmp_path, capsys):
    out = tmp_path / "wide.csv"
    assert parse_and_dispatch(["band", "--input", str(data_csv), "--density",
                               "laplace", "--sigma-delta", "0.1", "--h", "1.3",
                               "--interval", "0", "0.1", "--out", str(out)]) == 2
    assert "config error: --h: bandwidth h=1.3 too large" in capsys.readouterr().err
    assert not out.exists()


def test_taper_flags_replace_one_field_of_the_preset(tmp_path):
    sc = SCENARIOS["ga_n100_s10"]
    data = tmp_path / "ga.csv"
    save_sample(generate_sample(sc, np.random.SeedSequence(1)), data)
    band = ["band", "--input", str(data), "--density", "laplace",
            "--sigma-delta", str(sc.sigma_delta), "--h", str(sc.h)]
    written = []
    # naming the preset's own kind or cutoff keeps the preset band
    for flags in ([], ["--taper", "damped_cutoff"], ["--cutoff", "5.5"]):
        out = tmp_path / f"band{len(written)}.csv"
        assert parse_and_dispatch(band + flags + ["--out", str(out)]) == 0
        written.append(out.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    parser = cli._build_parser()
    for density, law_cutoff in (("laplace", 5.5), ("mixture", 16.0), ("none", 5.5)):
        args = parser.parse_args(["kernel-dump", "--h", "0.5", "--density", density,
                                  "--sigma-delta", "0.1", "--taper", "smooth_poly"])
        spec = cli._taper_from(args, cli._noise_from(args))
        assert (spec.kind, spec.cutoff) == ("smooth_poly", law_cutoff)


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
    for field, value, message in (("draws", 120.5, "draws must be an integer"),
                                  ("reps", 2.5, "reps must be a positive"),
                                  ("reps", 0, "reps must be a positive"),
                                  ("seed", -1, "seed must be a non-negative"),
                                  # the design checks n and a_n
                                  ("n", 0, "need n >= 1 and an integer"),
                                  ("a_n", -1, "need a_n > 0 and finite")):
        bad.write_text(json.dumps({**scen, field: value}))
        assert parse_and_dispatch(["simulate", "--scenario", str(bad),
                                   "--out", str(tmp_path / "s5")]) == 2
        assert message in capsys.readouterr().err
    # a run needs at least one replication
    for flags, message in ((["--reps", "1", "--seed", "-1"], "--seed"),
                           (["--reps", "0"], "--reps/--bootstrap/--seed: reps "
                                             "must be a positive integer")):
        assert parse_and_dispatch(["simulate", "--scenario", "ga_n100_s10", *flags,
                                   "--out", str(tmp_path / "s6")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "s6").exists()


def test_interrupted_simulation_writes_null_rates(tmp_path, capsys, monkeypatch):
    def interrupt(*args):
        raise KeyboardInterrupt

    def strict(constant):
        raise ValueError(f"{constant} is not JSON")

    monkeypatch.setattr(simulation, "_run_rep", interrupt)
    out = tmp_path / "sim"
    assert parse_and_dispatch(["--json", "simulate", "--threads", "1",
                               "--scenario", "ga_n100_s10", "--reps", "2",
                               "--out", str(out)]) == 1
    payload = json.loads(capsys.readouterr().out, parse_constant=strict)
    summary = json.loads((out / "summary.json").read_text(), parse_constant=strict)
    for record in (payload, summary):
        assert record["interrupted"] and record["completed_reps"] == 0
        assert record["rejection_rate"] is None and record["mean_width"] is None


def test_simulate_accepts_preset_names_with_overrides(tmp_path):
    code = parse_and_dispatch(["simulate", "--scenario", "ga_n100_s10",
                               "--reps", "2", "--out", str(tmp_path / "s4")])
    assert code == 0
    summary = json.loads((tmp_path / "s4" / "summary.json").read_text())
    assert summary["completed_reps"] == 2


SELFTEST_CHECKS = [
    "kernel quadrature vs operator (laplace)",
    "kernel quadrature vs operator (mixture)",
    "characteristic function vs density (laplace)",
    "characteristic function vs density (mixture)",
    "Fourier sums vs direct node sum",
    "uniform factors vs direct cos/sin",
    "band estimate vs estimate_g",
    "band scale equivariance",
]


def test_kernel_dump_and_selftest(tmp_path, capsys):
    out = tmp_path / "k.csv"
    dump = ["kernel-dump", "--h", "0.25", "--density", "laplace",
            "--sigma-delta", "0.1", "--out", str(out)]
    assert parse_and_dispatch(dump + ["--grid-len", "1000"]) == 0
    with open(out) as fh:
        assert fh.readline().strip() == "u,K"
    u, k = np.loadtxt(out, delimiter=",", skiprows=1).T
    # grid_len + 1 rows over [-span, span], span = 4 / (a_n h); values as .10g
    grid = np.linspace(-24.0, 24.0, 1001)
    assert np.allclose(u, grid, rtol=1e-9, atol=0)
    spec = default_taper(LAP01)
    peak = kernel_eval(0.0, 0.25, LAP01, spec)
    for i in (0, 137, 480, 500, 731, 1000):
        assert abs(k[i] - kernel_eval(grid[i], 0.25, LAP01, spec)) <= 1e-9 * peak
    assert parse_and_dispatch(dump + ["--grid-len", "1"]) == 2
    assert "--grid-len" in capsys.readouterr().err
    assert parse_and_dispatch(["selftest"]) == 0
    assert "selftest: all checks passed" in capsys.readouterr().out
    assert parse_and_dispatch(["--json", "selftest"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] and all(c["pass"] is True for c in payload["checks"])
    assert [c["name"] for c in payload["checks"]] == SELFTEST_CHECKS


def test_selftest_reports_a_failed_check(capsys, monkeypatch):
    # a wrong kernel reference fails the two quadrature checks alone
    monkeypatch.setattr(cli, "_simpson_kernel",
                        lambda us, h, noise, spec: np.zeros(np.size(us)))
    assert parse_and_dispatch(["selftest"]) == 1
    out = capsys.readouterr().out
    failed = [line.split("  ")[0] for line in out.splitlines() if "  FAIL  " in line]
    assert failed == SELFTEST_CHECKS[:2]
    assert out.splitlines()[-1] == "selftest: FAILURES above"
    assert parse_and_dispatch(["--json", "selftest"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert not payload["ok"]
    assert [c["name"] for c in payload["checks"] if not c["pass"]] == SELFTEST_CHECKS[:2]


def test_cli_imports_no_band_internal_but_the_sidecar_name():
    # the selftest reads bands through the public API alone, so a change
    # inside bands.py never has to edit the CLI
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    modules = {node.asname or node.name for node in ast.walk(tree)
               if isinstance(node, ast.alias) and node.name == "bands"}
    private = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                (node.level, node.module) == (1, "bands")
                or node.module == "berkson_bands.bands"):
            private |= {a.name for a in node.names if a.name.startswith("_")}
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            private.add(node.attr)
    assert private <= {"_sidecar"}, sorted(private - {"_sidecar"})


def test_threads_resolution(data_csv, tmp_path, monkeypatch):
    # only simulate starts workers; no environment variable sets their count
    monkeypatch.setenv("BB_THREADS", "x")
    assert parse_and_dispatch(["band", "--input", str(data_csv), "--density",
                               "laplace", "--sigma-delta", "0.1", "--h", "0.25",
                               "--M", "100", "--out", str(tmp_path / "b.csv")]) == 0
    sim = ["simulate", "--scenario", "ga_n100_s10", "--reps", "2",
           "--bootstrap", "100"]
    summaries = []
    for extra in ([], ["--threads", "2"]):
        out = tmp_path / f"sim{len(extra)}"
        assert parse_and_dispatch(sim + extra + ["--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        summary.pop("runtime")
        summaries.append(summary)
    assert summaries[0] == summaries[1]


def test_bad_thread_counts_exit_with_code_two(tmp_path, capsys):
    out = tmp_path / "sim"
    for bad in ("0", "-1", "x", "1.5"):
        assert parse_and_dispatch(["simulate", "--scenario", "ga_n100_s10",
                                   "--threads", bad, "--out", str(out)]) == 2
        assert "--threads" in capsys.readouterr().err
    # a command that starts no worker has no --threads
    assert parse_and_dispatch(["--threads", "2", "selftest"]) == 2
    assert not out.exists()


def test_config_rejects_unknown_keys(capsys):
    assert parse_and_dispatch(["selftest", "--nonsense", "1"]) == 2
    assert "unrecognized arguments: --nonsense" in capsys.readouterr().err


def _band_paths_load_none_of(data_csv, tmp_path, absent: str) -> None:
    """Run a plain and a Lepski + split band in a fresh interpreter and
    check that no loaded module's name matches the regex ``absent``."""
    script = f"""
import re
import sys
import berkson_bands.cli as cli

def loaded():
    return sorted(m for m in sys.modules if re.match({absent!r}, m))

assert not loaded(), loaded()
band = ["band", "--input", {str(data_csv)!r}, "--density", "mixture",
        "--sigma-delta", "0.05", "--M", "100"]
assert cli.main(band + ["--h", "0.5", "--out", {str(tmp_path / "plain.csv")!r}]) == 0
assert cli.main(band + ["--bandwidth", "lepski", "--split",
                        "--out", {str(tmp_path / "split.csv")!r}]) == 0
assert not loaded(), loaded()
"""
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "plain.csv").exists() and (tmp_path / "split.csv").exists()


def test_every_subcommand_runs_with_scipy_blocked(data_csv, tmp_path):
    # the package needs numpy alone: scipy serves only the tests' references
    script = f"""
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now fails
import berkson_bands.cli as cli

common = ["--input", {str(data_csv)!r}, "--density", "mixture",
          "--sigma-delta", "0.05"]
runs = [
    ["estimate", *common, "--h", "0.5", "--out", {str(tmp_path / "est.csv")!r}],
    ["band", *common, "--M", "100", "--h", "0.5",
     "--out", {str(tmp_path / "plain.csv")!r}],
    ["band", *common, "--M", "100", "--bandwidth", "lepski", "--split",
     "--out", {str(tmp_path / "split.csv")!r}],
    ["simulate", "--scenario", "ga_n100_s10", "--reps", "2", "--bootstrap",
     "100", "--out", {str(tmp_path / "sim")!r}],
    ["kernel-dump", "--h", "0.25", "--density", "laplace", "--sigma-delta",
     "0.1", "--grid-len", "64", "--out", {str(tmp_path / "kernel.csv")!r}],
    ["selftest"],
]
for argv in runs:
    assert cli.main(argv) == 0, argv
"""
    proc = subprocess.run([sys.executable, "-W", "ignore", "-c", script],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for name in ("est.csv", "plain.csv", "split.csv", "sim/summary.json",
                 "kernel.csv"):
        assert (tmp_path / name).exists(), name
    assert "selftest: all checks passed" in proc.stdout


@pytest.mark.parametrize("noise,spec,h", [
    (SCENARIOS["ga_n100_s10"].noise(), None, SCENARIOS["ga_n100_s10"].h),
    (SCENARIOS["mix_ga_n100"].noise(), None, SCENARIOS["mix_ga_n100"].h),
    (LAP01, SMOOTH, 0.25),
], ids=["laplace", "mixture", "smooth_poly"])
def test_selftest_reference_matches_quadrature(noise, spec, h):
    spec = spec or default_taper(noise)
    us = np.linspace(-5.5, 5.5, 9)  # the selftest's arguments
    want = [kernel_eval(float(u), h, noise, spec) for u in us]
    assert np.max(np.abs(cli._simpson_kernel(us, h, noise, spec) - want)) <= 1e-12


def test_band_paths_load_no_process_pool(data_csv, tmp_path):
    # only run_scenario with workers > 1 starts a process pool
    _band_paths_load_none_of(data_csv, tmp_path, r"concurrent\.futures\.process$")


def test_module_entry_point_runs(tmp_path):
    out = tmp_path / "k.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "berkson_bands", "kernel-dump", "--h", "0.5",
         "--density", "none", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert out.exists()


def test_module_entry_point_prints_warnings_without_a_location(tmp_path):
    argv = ["-m", "berkson_bands", "simulate", "--scenario", "ga_n100_s10",
            "--reps", "1", "--bootstrap", "50"]
    proc = subprocess.run([sys.executable, *argv, "--out", str(tmp_path / "a")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ("warning: only 50 multiplier draws; "
                           "quantiles will be unstable below 100\n")
    # the filters still decide: an error filter turns the warning into an error
    proc = subprocess.run([sys.executable, "-W", "error::UserWarning", *argv,
                           "--out", str(tmp_path / "b")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: only 50 multiplier draws")
