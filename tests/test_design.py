"""Design grids, splits, and sample files."""
from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from berkson_bands import (
    Design,
    RegressionSample,
    build_regular,
    build_split,
    load_sample,
    save_sample,
)
from berkson_bands.cli import parse_and_dispatch
from berkson_bands.design import default_b_n, default_d_n, write_columns

from conftest import A_N


def test_regular_design_layout():
    d = build_regular(100, A_N)
    j = np.arange(-100, 101)
    assert d.size == 201
    assert np.array_equal(d.points, j / (100 * A_N))
    assert np.all(d.weights == 1.0 / (100 * A_N))
    # a design is the value (n, a_n); its arrays are derived and read-only
    assert [f.name for f in dataclasses.fields(Design)] == ["n", "a_n"]
    assert d == Design(n=100, a_n=A_N)
    assert d != build_regular(100, 0.5) and d != build_regular(99, A_N)
    with pytest.raises(ValueError, match="read-only"):
        d.points[0] = 0.0


def test_design_validation():
    for n in (0, -3, 2.5, True):
        with pytest.raises(ValueError, match="need n >= 1 and an integer"):
            Design(n=n, a_n=1.0)
    for a_n in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="need a_n > 0 and finite"):
            Design(n=2, a_n=a_n)
    with pytest.raises(ValueError, match="need a_n > 0 and finite"):
        build_regular(3, float("nan"))
    with pytest.raises(ValueError, match="need n >= 1 and an integer"):
        build_regular(2.5)


def test_sample_validation():
    d = build_regular(3, A_N)
    with pytest.raises(ValueError):
        RegressionSample(design=d, responses=np.ones(5))
    with pytest.raises(ValueError, match="finite"):
        RegressionSample(design=d, responses=np.full(7, np.nan))


def test_split_removes_every_dnth_point():
    sd = build_split(build_regular(5, A_N), d_n=5)
    assert sd.removed.tolist() == [0, 5]
    assert sd.kept.tolist() == [-5, -4, -3, -2, -1, 1, 2, 3, 4]
    base = 1.0 / (5 * A_N)
    assert np.all(sd.gap_weights / base == [1, 1, 1, 1, 1, 2, 1, 1, 1])
    assert sd.gap_weights.sum() == pytest.approx(2.0 / A_N, rel=1e-12)


def test_split_with_maximal_dn_removes_one_point():
    sd = build_split(build_regular(6, 0.5), d_n=12)
    assert sd.removed.tolist() == [6]


def test_split_rejects_out_of_range_dn():
    d = build_regular(5, A_N)
    with pytest.raises(ValueError, match="2 <= d_n <= 2n"):
        build_split(d, d_n=1)
    with pytest.raises(ValueError, match="2 <= d_n <= 2n"):
        build_split(d, d_n=11)


def test_default_split_sizes():
    assert default_d_n(100) == 25
    assert default_d_n(750) == 113
    assert default_b_n(100, A_N) == 1.0
    assert default_b_n(20, 0.1) == pytest.approx(0.1 * math.log(20) ** 2, rel=1e-12)


def test_sample_file_round_trip(tmp_path):
    d = build_regular(20, A_N)
    y = np.sin(np.arange(d.size, dtype=float))
    path = tmp_path / "sample.csv"
    save_sample(RegressionSample(design=d, responses=y), path)
    back = load_sample(path, A_N)
    assert np.array_equal(back.responses, y)
    assert np.array_equal(back.design.points, d.points)


def test_write_columns_formats_every_value_as_10g(tmp_path):
    # the bytes of a per-value f"{v:.10g}" writer, special values included
    values = [-0.0, math.nan, math.inf, -math.inf, 1e-300, 0.1, 123456789012.0,
              2.0 / 3.0, -5e-324, 1.7976931348623157e308]
    columns = (np.arange(len(values)), [v % 2 == 0 for v in range(len(values))],
               np.array(values), values[::-1])
    path = tmp_path / "cols.csv"
    write_columns(path, "i,even,v,w", *columns)
    want = "i,even,v,w\n" + "".join(
        ",".join(f"{v:.10g}" for v in row) + "\n" for row in zip(*columns))
    assert path.read_bytes() == want.encode("utf-8")
    write_columns(path, "x")
    assert path.read_bytes() == b"x\n"


def test_load_rejects_malformed_files(tmp_path, capsys):
    d = build_regular(3, A_N)
    path = tmp_path / "bad.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="two-column"):
        load_sample(path, A_N)
    path.write_text("w,Y\n0.0,1.0\n")
    with pytest.raises(ValueError, match="odd number of design rows"):
        load_sample(path, A_N)
    rows = "\n".join(f"{w + 0.001:.6f},1.0" for w in d.points)
    path.write_text("w,Y\n" + rows + "\n")
    with pytest.raises(ValueError, match="deviate from the configured design"):
        load_sample(path, A_N)
    good = [f"{w:.17g},1.0" for w in d.points]
    cli = ["estimate", "--input", str(path), "--density", "none", "--h", "0.5",
           "--interval", "-0.1", "0.1", "--out", str(tmp_path / "e.csv")]
    for bad_rows, message in (
        (good[:3] + ["0.5"] + good[4:], "line 5 has 1 field"),
        (good[:3] + ["nan,1.0"] + good[4:], "deviate from the configured design"),
    ):
        path.write_text("w,Y\n" + "\n".join(bad_rows) + "\n")
        with pytest.raises(ValueError, match=message):
            load_sample(path, A_N)
        assert parse_and_dispatch(cli) == 2
        err = capsys.readouterr().err
        assert "--input" in err and message in err
