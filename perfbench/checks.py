"""Per-operation correctness checks; every failure counts in ``failed``.

An operation fails if it raises, if its band has a non-finite value, if
``lower > upper`` anywhere, if the band is not symmetric about ``ghat``,
if its grid is not ``make_eval_grid`` of its request, or (for the CLI) if
the process exits non-zero or its files disagree with its ``--json``
output.  The regime warning the package emits for every shipped scenario
is not a failure.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

# The CLI writes band values with 10 significant digits.
CSV_RTOL = 1e-9


def band_problems(x, ghat, lower, upper, expected_grid, rtol: float = 1e-12) -> list[str]:
    """Reasons the band (x, ghat, lower, upper) is wrong; empty when it is fine."""
    x, ghat, lower, upper, expected_grid = (
        np.asarray(a, dtype=float) for a in (x, ghat, lower, upper, expected_grid)
    )
    problems = []
    if not all(np.all(np.isfinite(a)) for a in (x, ghat, lower, upper)):
        problems.append("non-finite band value")
    if np.any(lower > upper):
        problems.append("lower > upper")
    scale = np.abs(ghat) + np.abs(upper - lower)
    if np.any(np.abs((ghat - lower) - (upper - ghat)) > 4 * rtol * scale + 1e-300):
        problems.append("band not symmetric about ghat")
    if x.shape != expected_grid.shape:
        problems.append(f"grid has {x.size} points, make_eval_grid gives {expected_grid.size}")
    elif np.any(np.abs(x - expected_grid) > rtol * (np.abs(expected_grid) + 1.0)):
        problems.append("grid differs from make_eval_grid")
    return problems


@dataclass(frozen=True)
class CliOutput:
    """What one ``berkson-bands --json band`` request wrote, read once."""

    quantile: float
    h: float
    x: np.ndarray
    ghat: np.ndarray
    nuhat: np.ndarray
    lower: np.ndarray
    upper: np.ndarray


def cli_problems(returncode: int, stdout: str, csv_path, sidecar_path, grid_for):
    """(reasons the request is wrong, its parsed output or None if unreadable).

    ``grid_for(h)`` returns the evaluation grid the request should use at
    the bandwidth the CLI reports.
    """
    if returncode != 0:
        return [f"exit status {returncode}"], None
    try:
        summary = json.loads(stdout)
        with open(sidecar_path, encoding="utf-8") as fh:
            sidecar = json.load(fh)
        with open(csv_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        if rows[:1] != [["x", "ghat", "nuhat", "lower", "upper"]]:
            return ["unexpected CSV header"], None
        columns = np.array(rows[1:], dtype=float).reshape(-1, 5).T
        output = CliOutput(float(summary["quantile"]), float(summary["h"]), *columns)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"], None
    problems = []
    for key in ("quantile", "h"):
        if sidecar.get(key) != summary.get(key):
            problems.append(f"sidecar {key} {sidecar.get(key)} != --json {summary.get(key)}")
    problems += band_problems(output.x, output.ghat, output.lower, output.upper,
                              grid_for(output.h), CSV_RTOL)
    return problems, output


@dataclass
class Tally:
    """Attempted and failed operations with the reasons for each failure."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def record(self, problems: list[str], label: str) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.reasons.append(f"{label}: {'; '.join(problems)}")
        return not problems

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
