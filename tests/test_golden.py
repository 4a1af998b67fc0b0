"""Golden outputs, built in fresh interpreters at one and at two BLAS threads."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import berkson_bands
import golden

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def arrays(tmp_path_factory):
    """golden.outputs() by BLAS thread count, each from its own interpreter."""
    out = tmp_path_factory.mktemp("golden")
    package_root = str(Path(berkson_bands.__file__).parents[1])
    procs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, **{var: threads for var in BLAS_VARS})
        env["PYTHONPATH"] = os.pathsep.join(filter(None, (package_root,
                                                          env.get("PYTHONPATH"))))
        procs[threads] = subprocess.Popen(
            [sys.executable, golden.__file__, "--arrays", str(out / f"{threads}.npz")],
            env=env, stderr=subprocess.PIPE, text=True)
    for proc in procs.values():
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    return {threads: dict(np.load(out / f"{threads}.npz")) for threads in procs}


def test_outputs_do_not_depend_on_the_blas_thread_count(arrays):
    one, two = arrays["1"], arrays["2"]
    assert one.keys() == two.keys()
    for key, value in one.items():
        gap = np.max(np.abs(two[key] - value))
        assert gap <= 1e-12 * np.max(np.abs(value)), (key, gap)


def test_outputs_match_the_golden_file(arrays):
    want = json.loads(golden.GOLDEN.read_text(encoding="utf-8"))
    for threads, got in arrays.items():
        got = golden.summary(got)
        assert got.keys() == want.keys()
        for key, value in want.items():
            gap = np.max(np.abs(np.subtract(got[key], value)))
            assert gap <= 1e-10 * np.max(np.abs(value)), (threads, key, gap)
