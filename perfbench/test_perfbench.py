"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import Tally, band_problems, cli_problems  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _names(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_end_to_end_names_and_units_match_benchmark_json():
    r = run.Run.__new__(run.Run)
    r.workload = run.WORKLOADS["mc_small"]
    r.details = {}
    metrics = r.end_to_end([1.0, 2.0], [0.1, 0.2, 0.3], 1024, 0.5, 0.95)
    assert {k: unit for k, (_, unit) in metrics.items()} == _names("end_to_end")


def test_per_layer_names_and_units_match_benchmark_json():
    metrics = run.layer_metrics(Tracer(), 1, 0.0, 0.0, 0.0, 0.0, 0)
    assert {k: unit for k, (_, unit) in metrics.items()} == _names("per_layer")


def _band(n=5):
    x = np.linspace(-0.7, 0.6, n)
    ghat = np.sin(x)
    return x, ghat, ghat - 0.2, ghat + 0.2


def test_nan_band_and_cli_exit_code_both_count_as_failures():
    tally = Tally()
    x, ghat, lower, upper = _band()
    assert tally.record(band_problems(x, ghat, lower, upper, x), "good band")
    ghat_nan = ghat.copy()
    ghat_nan[2] = np.nan
    assert not tally.record(band_problems(x, ghat_nan, lower, upper, x), "nan band")
    problems, output = cli_problems(1, "", "missing.csv", "missing.json", None)
    assert output is None
    assert not tally.record(problems, "cli exit 1")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.failed_frac == pytest.approx(2 / 3)


def test_band_checks_catch_asymmetry_crossing_and_wrong_grid():
    x, ghat, lower, upper = _band()
    assert band_problems(x, ghat, lower, upper + 1e-3, x) == ["band not symmetric about ghat"]
    assert "lower > upper" in band_problems(x, ghat, upper, lower, x)
    assert band_problems(x, ghat, lower, upper, x[:-1])
    assert band_problems(x, ghat, lower, upper, x + 1e-6) == ["grid differs from make_eval_grid"]


def test_cli_check_reads_written_band(tmp_path):
    x, ghat, lower, upper = _band()
    csv_path = tmp_path / "band.csv"
    rows = ["x,ghat,nuhat,lower,upper"] + [
        ",".join(f"{v:.10g}" for v in row) for row in zip(x, ghat, np.ones_like(x), lower, upper)
    ]
    csv_path.write_text("\n".join(rows) + "\n")
    (tmp_path / "band.json").write_text(json.dumps({"quantile": 0.5, "h": 0.1}))
    stdout = json.dumps({"quantile": 0.5, "h": 0.1})
    problems, output = cli_problems(0, stdout, csv_path, tmp_path / "band.json", lambda h: x)
    assert problems == []
    assert (output.quantile, output.h) == (0.5, 0.1)
    np.testing.assert_allclose(output.upper, upper, rtol=1e-9)
    wrong = json.dumps({"quantile": 0.6, "h": 0.1})
    assert cli_problems(0, wrong, csv_path, tmp_path / "band.json", lambda h: x)[0] == [
        "sidecar quantile 0.5 != --json 0.6"
    ]
    csv_path.write_text("x,ghat,nuhat,lower,upper\n1,2,3\n")
    problems, output = cli_problems(0, stdout, csv_path, tmp_path / "band.json", lambda h: x)
    assert output is None and problems[0].startswith("unreadable output")


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}


def test_tail_is_p90_with_ten_samples_beyond_else_the_maximum():
    values = list(range(1, 101))
    assert run.tail(values) == (pytest.approx(90.1), 90.0)
    assert run.tail(values[:99]) == (99.0, 100.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run_prints_the_declared_metrics(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "mc_small", "--seed", "3",
         "--seconds", "0.5", "--trace", trace],
        capture_output=True, text=True, cwd=HERE.parent, timeout=170, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    section = "per_layer" if trace == "1" else "end_to_end"
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names(section)
