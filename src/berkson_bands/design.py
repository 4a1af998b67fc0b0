"""The regular design on [-1/a_n, 1/a_n] and the data container built on it.

The model's design is fixed by n and a_n alone: w_j = j/(n a_n) for
j = -n..n with uniform weights 1/(n a_n).  ``Design`` is that value,
built by ``build_regular``; two designs with the same (n, a_n) are equal
and hash equal.  The split design removes every d_n-th point; the
removed singletons form the held-out set used by the variance estimator
of the oscillating-error extension.
"""
from __future__ import annotations

import csv
import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Design",
    "RegressionSample",
    "SplitDesign",
    "build_regular",
    "build_split",
    "default_d_n",
    "default_b_n",
    "load_sample",
    "save_sample",
    "write_columns",
]

# Largest deviation of a sample file's w column from the regular design.
_W_TOL = 1e-9
_A_N = 2.0 / 3.0  # the paper's a_n; every default a_n in the package reads it


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _caller_stacklevel() -> int:
    """``stacklevel`` that points a warning raised by the calling function at
    the first frame outside this package and the dataclass machinery: a
    generated ``__init__`` runs in its class's module globals, and
    ``dataclasses.replace`` calls it."""
    frame, level = sys._getframe(1), 1
    while frame is not None and (frame.f_globals.get("__package__") == __package__
                                 or frame.f_globals.get("__name__") == "dataclasses"):
        frame, level = frame.f_back, level + 1
    return level


def ordered_interval(interval) -> tuple[float, float]:
    """``interval`` as two floats a <= b; raises for a reversed one."""
    a, b = (float(v) for v in interval)
    if not b >= a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    return a, b


def identifiable_range(a_n: float, h: float) -> tuple[float, float]:
    """Points at least h inside the design span [-1/a_n, 1/a_n]."""
    return (-1.0 / a_n + h, 1.0 / a_n - h)


def check_identifiable(interval, a_n: float, h: float) -> None:
    """Raise unless ``interval`` lies in the identifiable range at h."""
    a, b = interval
    lo, hi = identifiable_range(a_n, h)
    if not (lo - 1e-12 <= a and b <= hi + 1e-12):  # a NaN fails too
        raise ValueError(
            f"interval [{a}, {b}] exceeds the identifiable range "
            f"[{lo:.4g}, {hi:.4g}] at h={h}"
        )


@dataclass(frozen=True)
class Design:
    """The regular design of size 2n+1 on [-1/a_n, 1/a_n].

    A design is the value (n, a_n): it compares and hashes by those two
    fields, so it can key a cache.  ``points`` w_j = j/(n a_n), j = -n..n,
    and ``weights`` 1/(n a_n) are derived once, read-only, and take no
    part in equality.
    """

    n: int
    a_n: float

    def __post_init__(self) -> None:
        if not _is_int(self.n) or self.n < 1:
            raise ValueError(f"need n >= 1 and an integer, got {self.n!r}")
        if not (math.isfinite(self.a_n) and self.a_n > 0):
            raise ValueError(f"need a_n > 0 and finite, got {self.a_n}")
        n, a_n = self.n, self.a_n
        points = np.arange(-n, n + 1, dtype=float) / (n * a_n)
        weights = np.full(2 * n + 1, 1.0 / (n * a_n))
        for name, arr in (("points", points), ("weights", weights)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return 2 * self.n + 1

    def reach(self, interval) -> float:
        """Largest distance from a point of ``interval`` to a design point."""
        a, b = interval
        return float(max(b - self.points[0], self.points[-1] - a))


@dataclass(frozen=True)
class RegressionSample:
    design: Design
    responses: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.responses, dtype=float)
        if len(y) != self.design.size:
            raise ValueError(
                f"got {len(y)} responses for a design of size {self.design.size}"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("responses must be finite")
        object.__setattr__(self, "responses", y)


@dataclass(frozen=True)
class SplitDesign:
    """Index bookkeeping for the every-d_n-th-point removal scheme.

    kept/removed hold signed indices j in -n..n.  gap_weights are the
    summation weights for the kept points: the regular weight 1/(n a_n),
    doubled where the left neighbour was removed so the kept points still
    tile the design span.
    """

    d_n: int
    kept: np.ndarray
    removed: np.ndarray
    gap_weights: np.ndarray


def build_regular(n: int, a_n: float = _A_N) -> Design:
    """Equispaced design w_j = j/(n a_n), j = -n..n, weights 1/(n a_n)."""
    return Design(n=n, a_n=a_n)


def default_d_n(n: int) -> int:
    """Removal stride: max(8, ceil(ln(n)^2.5)) capped at n//4."""
    return min(max(8, math.ceil(math.log(n) ** 2.5)), max(n // 4, 2))


def default_b_n(n: int, a_n: float) -> float:
    """Truncation fraction for the extension process: min(1, a_n ln(n)^2)."""
    return min(1.0, a_n * math.log(n) ** 2)


def build_split(design: Design, d_n: int | None = None) -> SplitDesign:
    """Remove indices -n + k d_n, k = 1..floor(2n/d_n), from the design."""
    n = design.n
    if d_n is None:
        d_n = default_d_n(n)
    if not _is_int(d_n):
        raise ValueError(f"d_n must be an integer, got {d_n!r}")
    if not 2 <= d_n <= 2 * n:
        raise ValueError(f"need 2 <= d_n <= 2n = {2 * n}, got {d_n}")
    removed = np.arange(-n + d_n, n + 1, d_n)
    kept = np.delete(np.arange(-n, n + 1), removed + n)
    base_w = design.weights[kept + n]
    gap_weights = np.where(np.isin(kept - 1, removed), 2.0 * base_w, base_w)
    return SplitDesign(d_n=d_n, kept=kept, removed=removed, gap_weights=gap_weights)


def load_sample(path, a_n: float) -> RegressionSample:
    """Read a (w, Y) CSV with header on the regular design build_regular(n, a_n).

    n comes from the row count, which must be 2n+1 with n >= 1; the w
    column must match the design points within ``_W_TOL``.
    """
    ws, ys = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2:
            raise ValueError("expected a two-column (w, Y) CSV with header")
        for row in reader:
            if not row:
                continue
            if len(row) < 2:
                raise ValueError(
                    f"line {reader.line_num} has {len(row)} field; "
                    f"expected w and Y"
                )
            ws.append(float(row[0]))
            ys.append(float(row[1]))
    rows = len(ws)
    if rows % 2 == 0 or rows < 3:
        raise ValueError(
            f"expected an odd number of design rows (2n+1, at least 3), "
            f"got {rows}"
        )
    design = build_regular((rows - 1) // 2, a_n)
    dev = np.max(np.abs(np.asarray(ws) - design.points))
    if not dev <= _W_TOL:  # also catches NaN in w
        raise ValueError(
            f"design points deviate from the configured design "
            f"by {dev:.3e} (tolerance {_W_TOL:.1e})"
        )
    return RegressionSample(design=design, responses=np.asarray(ys))


def save_sample(sample: RegressionSample, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["w", "Y"])
        for w, y in zip(sample.design.points, sample.responses):
            writer.writerow([f"{w:.17g}", f"{y:.17g}"])


def write_columns(path, header: str, *columns) -> None:
    """Write equal-length numeric columns as CSV, every value as ``.10g``."""
    row = ",".join(["%.10g"] * len(columns)) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(row % values for values in zip(*columns))
