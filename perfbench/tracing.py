"""Spans around the calls into each berkson_bands module.

The wrappers live here, in the benchmark, not in the package: ``install``
rebinds every module-level binding of a traced function (and the
``__call__`` of traced classes) to a wrapper that records a span and, for
some layers, a count.  Spans stay in memory until ``Tracer.dump``.

Private names may disappear in a refactor; a missing optional layer is
reported as absent instead of failing the run.  A missing public name is
an error.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "berkson_bands"
MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class Layer:
    module: str
    attr: str
    required: bool
    hook: Callable | None = None

    @property
    def name(self) -> str:
        # KernelTable.__call__ -> deconv_kernel.KernelTable
        return f"{self.module}.{self.attr.removesuffix('.__call__')}"


def _array_mb(objs) -> float:
    return sum(o.nbytes for o in objs if isinstance(o, np.ndarray)) / MB


def _on_table(tr, bound, out):
    if tr.first_sight(out):
        tr.counts["deconv_kernel.kernel_table.builds"] += 1
        spline = getattr(out, "_spline", None)
        arrays = [out.grid, out.values]
        if spline is not None:
            arrays += [spline.x, spline.c]
        tr.counts["deconv_kernel.table_mb"] += _array_mb(arrays)


def _on_kernel_read(tr, bound, out):
    tr.counts["deconv_kernel.KernelTable.points"] += int(np.size(bound.arguments["u"]))


def _on_workspace(tr, bound, out):
    if tr.first_sight(out):
        tr.counts["bands._workspace.builds"] += 1
        tr.counts["bands.workspace_mb"] += _array_mb(vars(out).values())
    else:
        tr.counts["bands._workspace.hits"] += 1


def _on_sup_batch(tr, bound, out):
    draws = int(bound.arguments["draws"])
    points, grid = bound.arguments["core_t"].shape
    tr.counts["bands.sup_draws"] += draws
    tr.counts["bands.sup_flops"] += 2 * draws * grid * points


def _on_write_band(tr, bound, out):
    csv_path = bound.arguments["csv_path"]
    sidecar = bound.arguments.get("sidecar_path")
    if sidecar is None:
        sidecar = os.path.splitext(os.fspath(csv_path))[0] + ".json"
    tr.counts["bands.write_band.bytes"] += os.path.getsize(csv_path) + os.path.getsize(sidecar)


def _on_estimate_on(tr, bound, out):
    design_size = bound.arguments["sample"].design.size
    tr.counts["bandwidth.kernel_evals"] += len(bound.arguments["grid"]) * design_size


LAYERS = (
    Layer("deconv_kernel", "kernel_table", True, _on_table),
    Layer("deconv_kernel", "KernelTable.__call__", True, _on_kernel_read),
    Layer("bands", "_workspace", False, _on_workspace),
    Layer("bands", "_band_variance_field", False),
    Layer("bands", "_sup_batch", False, _on_sup_batch),
    Layer("bands", "build_band", True),
    Layer("bands", "quantile", True),
    Layer("bands", "build_band_extension", True),
    Layer("bands", "write_band", True, _on_write_band),
    Layer("variance_estimation", "estimate_nu", True),
    Layer("variance_estimation", "VarianceCurve.__call__", True),
    Layer("bandwidth", "lepski_select", True),
    Layer("bandwidth", "_estimate_on", False, _on_estimate_on),
    Layer("estimator", "estimate_g", True),
    Layer("design", "load_sample", True),
    Layer("cli", "_load_input", False),
    Layer("cli", "main", True),
    Layer("simulation", "run_scenario", True),
    Layer("simulation", "generate_sample", True),
)
LAYER_NAMES = tuple(layer.name for layer in LAYERS)

# Counters kept by the hooks above; all start at zero so every run
# reports the same names.
COUNTERS = {
    "deconv_kernel.kernel_table.builds": "count",
    "deconv_kernel.table_mb": "MB",
    "deconv_kernel.KernelTable.points": "count",
    "bands._workspace.builds": "count",
    "bands._workspace.hits": "count",
    "bands.workspace_mb": "MB",
    "bands.sup_draws": "count",
    "bands.sup_flops": "flop",
    "bands.write_band.bytes": "B",
    "bandwidth.kernel_evals": "count",
}


class Tracer:
    """In-memory span recorder: each span is [name, start, end, parent]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.enabled = True
        self._stack: list[int] = []
        self._seen: dict[int, object] = {}
        self._undo: list[tuple[object, str, object]] = []

    def first_sight(self, obj) -> bool:
        """True the first time ``obj`` is returned; holds it so ids stay unique."""
        if id(obj) in self._seen:
            return False
        self._seen[id(obj)] = obj
        return True

    def span(self, name: str, fn: Callable, hook: Callable | None = None) -> Callable:
        sig = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if hook is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound, out)
            return out

        return traced

    def install(self) -> None:
        """Wrap every binding of every traced layer in the loaded package."""
        for layer in LAYERS:
            mod = importlib.import_module(f"{PACKAGE}.{layer.module}")
            owner_name, _, method = layer.attr.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            fn = getattr(owner, method, None) if owner is not None else None
            if fn is None:
                if layer.required:
                    raise RuntimeError(f"traced name {layer.name} is missing")
                self.absent.append(layer.name)
                continue
            wrapped = self.span(layer.name, fn, layer.hook)
            if owner_name:
                self._rebind(owner, method, wrapped)
                continue
            for mname, m in list(sys.modules.items()):
                if mname != PACKAGE and not mname.startswith(PACKAGE + "."):
                    continue
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        self._rebind(m, attr, wrapped)

    def _rebind(self, owner, attr: str, wrapped) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "counts": dict(self.counts), "absent": self.absent},
                fh,
            )

    def absorb(self, path) -> None:
        """Merge spans and counts written by ``dump`` in a child process."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        offset = len(self.spans)
        for name, start, end, parent in data["spans"]:
            self.spans.append([name, start, end, parent + offset if parent >= 0 else -1])
        self.counts.update(data["counts"])
        self.absent = sorted(set(self.absent) | set(data["absent"]))


def self_times(spans) -> dict[str, float]:
    """Per-name span time minus the time covered by direct child spans.

    Spans nest and run on one thread, so children of one parent do not
    overlap and their durations can simply be subtracted.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), c in zip(spans, child):
        out[name] = out.get(name, 0.0) + (end - start) - c
    return out


def durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _ in spans if n == name]
