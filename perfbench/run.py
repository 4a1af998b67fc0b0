#!/usr/bin/env python3
"""Benchmark of berkson-bands through its public entry points.

    python3 perfbench/run.py --workload mc_large --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from ``src``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it record the environment and per-run details, which are also written to
``perfbench/work/``.  See perfbench/README.md for the workloads and the
metric definitions.
"""
from __future__ import annotations

import os

# One BLAS thread for every run of every commit, children included; set
# before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from checks import Tally, band_problems, cli_problems  # noqa: E402
from tracing import COUNTERS, LAYER_NAMES, Tracer, durations, self_times  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

END_TO_END = {
    "setup_s": "s",
    "reps_per_s": "1/s",
    "request_s_tail": "s",
    "peak_rss_mb": "MB",
    "mean_width": "band_units",
    "coverage": "fraction",
}

# Arguments of every cli_cold request after "band"; only --seed and --out vary.
CLI_BAND_ARGS = (
    "--density", "mixture", "--sigma-delta", "0.05", "--bandwidth", "lepski",
    "--undersmooth", "--split", "--M", "250",
)
CLI_SCENARIO = "mix_ga_n750"
CLI_INTERVAL = (-0.7, 0.6)  # the CLI's default --interval

# The tail is p90 when at least 10 samples lie beyond it, else the maximum.
# Higher percentiles would qualify on the Monte Carlo workloads, but on a
# shared two-core VM they swing by up to 20% from run to run.
TAIL_PCT = 90.0


@dataclasses.dataclass(frozen=True)
class Workload:
    kind: str  # "mc": run_scenario in this process; "cli": one process per request
    scenario: str
    setup_runs: int  # fresh interpreters timed for setup_s
    trace_ops: int  # operations in the traced pass (and in its untraced twin)
    quality_reps: int = 0  # warm replications always completed, for mean_width/coverage


WORKLOADS = {
    "mc_large": Workload("mc", "gb_n750_s05", setup_runs=3, trace_ops=40, quality_reps=150),
    "mc_small": Workload("mc", "ga_n100_s10", setup_runs=3, trace_ops=200, quality_reps=1000),
    "cli_cold": Workload("cli", CLI_SCENARIO, setup_runs=5, trace_ops=2),
}


def tail(values) -> tuple[float, float]:
    """(value, percentile used) for the tail of ``values``."""
    if len(values) * (100.0 - TAIL_PCT) >= 10.0 * 100.0:
        return float(np.percentile(values, TAIL_PCT)), TAIL_PCT
    return float(max(values)), 100.0


def mc_seed(seed: int, op: int) -> int:
    """Scenario seed of operation ``op``; each op is one replication."""
    return seed * (1 << 20) + op


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def time_until_ready(args: list[str]) -> float:
    """Seconds from spawning ``child.py args`` until it prints "ready"."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up child {args} failed: {err[-2000:]}")
    return elapsed


class Run:
    """One benchmark run: checks every operation and collects its timings."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool) -> None:
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.tally = Tally()
        self.tracer = Tracer()
        self.quantiles: list[float] = []
        self.details: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
        self.dir = WORK / f"{name}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    # -- Monte Carlo ------------------------------------------------------

    def mc_op(self, op: int):
        """One replication via run_scenario(reps=1); (seconds, (width, rejection)).

        Only those two numbers outlive the call, so the process's memory does
        not grow with the number of replications finished.  A band that fails
        its checks still counts in the timings; only a replication that
        raised has no result (and nan seconds)."""
        from berkson_bands import bands, simulation

        sc = dataclasses.replace(
            simulation.SCENARIOS[self.workload.scenario], reps=1, seed=mc_seed(self.seed, op)
        )
        try:
            start = time.perf_counter()
            report = simulation.run_scenario(sc, workers=1)
            elapsed = time.perf_counter() - start
            band = report.representative
            if band is None or len(report.records) != 1:
                problems = ["run_scenario returned no band"]
            else:
                grid = bands.make_eval_grid(sc.interval, sc.n, sc.a_n, sc.h).points
                problems = band_problems(band["x"], band["ghat"], band["lower"], band["upper"], grid)
        except Exception:  # noqa: BLE001 - a raising operation is a failed one
            problems = [traceback.format_exc(limit=3)]
            elapsed, report = float("nan"), None
        self.tally.record(problems, f"replication {op}")
        return elapsed, None if report is None else (report.mean_width, report.rejection_rate)

    def run_mc(self) -> dict:
        wl = self.workload
        if self.trace:
            self.tracer.install()
            self.mc_op(0)  # the cold replication, traced
            return self.paired(lambda i, _: self.mc_op(i)[0], first=1)
        setup = [time_until_ready(["setup-mc", wl.scenario, str(mc_seed(self.seed, 0))])
                 for _ in range(wl.setup_runs)]
        self.mc_op(0)  # the cold replication: kernel tables and workspace
        times, quality = [], []
        start = time.perf_counter()
        op = 1
        while op <= max(wl.quality_reps, 1) or time.perf_counter() - start < self.seconds:
            elapsed, result = self.mc_op(op)
            if result is not None:
                times.append(elapsed)
                if op <= wl.quality_reps:
                    quality.append(result)
            op += 1
        if not quality:
            raise RuntimeError("no replication produced a band")
        self.details["quality_reps"] = wl.quality_reps
        return self.end_to_end(
            setup, times,
            rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            mean_width=statistics.fmean(width for width, _ in quality),
            coverage=1.0 - statistics.fmean(rejection for _, rejection in quality),
        )

    # -- CLI ----------------------------------------------------------------

    def cli_sample(self) -> Path:
        from berkson_bands import design, simulation

        path = self.dir / "sample.csv"
        sample = simulation.generate_sample(
            simulation.SCENARIOS[CLI_SCENARIO], np.random.SeedSequence((self.seed, 0, 0))
        )
        design.save_sample(sample, path)
        return path

    def cli_request(self, sample: Path, i: int, traced: bool):
        """Request i (``--seed i``) as a fresh process; (seconds, band summary).

        A band that fails its checks still counts; a request that produced
        no readable band gives (nan, None)."""
        from berkson_bands import bands, simulation

        out = self.dir / f"band{i}{'_traced' if traced else ''}.csv"
        args = ["--json", "band", "--input", str(sample), *CLI_BAND_ARGS, "--seed", str(i), "--out", str(out)]
        spans = self.dir / f"spans{i}.json"
        cmd = ([sys.executable, str(HERE / "child.py"), "cli", str(spans)] if traced
               else [sys.executable, "-m", "berkson_bands"]) + args
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                                  timeout=150)
            elapsed = time.perf_counter() - start
            n = simulation.SCENARIOS[CLI_SCENARIO].n
            a_n = simulation.SCENARIOS[CLI_SCENARIO].a_n

            def grid_for(h):
                return bands.make_eval_grid(CLI_INTERVAL, n, a_n, h).points

            problems, output = cli_problems(proc.returncode, proc.stdout, out,
                                            out.with_suffix(".json"), grid_for)
        except subprocess.TimeoutExpired:
            self.tally.record(["timed out"], f"request --seed {i}")
            return float("nan"), None
        if proc.returncode != 0:
            problems.append(proc.stderr[-2000:])
        self.tally.record(problems, f"request --seed {i}")
        if output is None:
            return float("nan"), None
        g = simulation.SIGNALS[simulation.SCENARIOS[CLI_SCENARIO].signal](output.x)
        width = output.upper - output.lower
        band = {
            "covered_share": float(np.mean((g >= output.lower) & (g <= output.upper))),
            "width_per_nu": float(np.mean(width / output.nuhat)),
            "width": float(np.mean(width)),
        }
        if traced == self.trace:
            self.quantiles.append(output.quantile)
        if traced:
            self.tracer.absorb(spans)
        return elapsed, band

    def run_cli(self) -> dict:
        wl = self.workload
        sample = self.cli_sample()
        if self.trace:
            return self.paired(lambda i, traced: self.cli_request(sample, i, traced)[0], first=0)
        setup = [time_until_ready(["setup-cli"]) for _ in range(wl.setup_runs)]
        times, results = [], []
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < self.seconds:
            elapsed, band = self.cli_request(sample, i, traced=False)
            if band is not None:
                times.append(elapsed)
                results.append(band)
            i += 1
        if not times:
            raise RuntimeError("no request produced a band")
        self.record_quantiles()
        # mean_width below is 2q / (sqrt(n a_n) h^(1/2+beta)) at every point, blind to
        # nuhat; the raw width is kept here so a widening through estimate_nu shows.
        self.details["raw_mean_width"] = statistics.median(r["width"] for r in results)
        return self.end_to_end(
            setup, times,
            rss_kb=resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
            mean_width=statistics.median(r["width_per_nu"] for r in results),
            coverage=statistics.fmean(r["covered_share"] for r in results),
        )

    def record_quantiles(self) -> int:
        """Record per-request quantiles; count neighbours that are equal,
        which shows draw streams that overlap between consecutive seeds."""
        qs = self.quantiles
        repeated = sum(a == b for a, b in zip(qs, qs[1:]))
        self.details.update(request_quantiles=qs, repeated_quantiles=repeated)
        return repeated

    # -- metrics ------------------------------------------------------------

    def end_to_end(self, setup, times, rss_kb, mean_width, coverage) -> dict:
        value, pct = tail(times)
        self.details.update(setup_samples=setup, ops=len(times), tail_percentile=pct,
                            request_s_p50=statistics.median(times), op_seconds=times)
        values = {
            "setup_s": statistics.median(setup),
            "reps_per_s": len(times) / sum(times),
            "request_s_tail": value,
            "peak_rss_mb": rss_kb / 1024.0,
            "mean_width": mean_width,
            "coverage": coverage,
        }
        return {name: (v, END_TO_END[name]) for name, v in values.items()}

    def paired(self, op, first: int) -> dict:
        """Per-layer metrics of a traced run.

        Operations first .. first + trace_ops - 1 each run once traced and
        once untraced, alternating which goes first; ``op(i, traced)``
        returns its seconds (nan when it failed).  The difference between
        the traced and untraced sums is the tracing overhead.
        """
        runs = {True: [], False: []}
        for k in range(self.workload.trace_ops):
            for traced in (True, False) if k % 2 == 0 else (False, True):
                self.tracer.enabled = traced
                runs[traced].append(op(first + k, traced))
        self.tracer.uninstall()
        self.tracer.dump(self.dir / "spans.json")
        pairs = [(a, b) for a, b in zip(runs[True], runs[False]) if not math.isnan(a + b)]
        with_trace = sum(a for a, _ in pairs)
        without = sum(b for _, b in pairs)
        return layer_metrics(
            self.tracer,
            ops=len(runs[True]),
            overhead_s=with_trace - without,
            overhead_frac=(with_trace - without) / without if without else 0.0,
            request_s_p50=statistics.median(b for _, b in pairs) if pairs else 0.0,
            failed_frac=self.tally.failed_frac,
            repeated_quantiles=self.record_quantiles(),
        )


# Inclusive seconds (".s") and call counts (".calls") named by the layer table
# in perfbench/README.md; every traced layer also reports its self time.
LAYER_S = (
    "deconv_kernel.kernel_table", "deconv_kernel.KernelTable", "bands._workspace",
    "bands.build_band",
    "bands._band_variance_field", "bands._sup_batch", "bands.quantile",
    "bands.build_band_extension", "bands.write_band", "variance_estimation.estimate_nu",
    "variance_estimation.VarianceCurve", "bandwidth.lepski_select", "bandwidth._estimate_on",
    "estimator.estimate_g", "design.load_sample", "cli._load_input", "cli.main",
    "simulation.run_scenario", "simulation.generate_sample",
)
LAYER_CALLS = (
    "deconv_kernel.kernel_table", "bands.build_band", "bandwidth._estimate_on",
    "estimator.estimate_g",
)


def layer_metrics(tracer, ops, overhead_s, overhead_frac, request_s_p50, failed_frac,
                  repeated_quantiles) -> dict:
    """{name: (value, unit)} for every per-layer metric; absent layers read 0."""
    spans = tracer.spans
    selfs = self_times(spans)
    build = durations(spans, "bands.build_band")
    out = {f"{n}.s": (sum(durations(spans, n)), "s") for n in LAYER_S}
    out.update({f"{n}.calls": (len(durations(spans, n)), "count") for n in LAYER_CALLS})
    out.update({n: (tracer.counts.get(n, 0), unit) for n, unit in COUNTERS.items()})
    out.update({f"{n}.self_s": (selfs.get(n, 0.0), "s") for n in LAYER_NAMES})
    out.update({
        "bands.build_band.s_p50": (statistics.median(build) if build else 0.0, "s"),
        "bands.build_band.s_tail": (tail(build)[0] if build else 0.0, "s"),
        "cli.import_s": (tracer.counts.get("cli.import_s", 0.0), "s"),
        "trace.ops": (ops, "count"),
        "trace.spans": (len(spans), "count"),
        "trace.absent_layers": (len(tracer.absent), "count"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.overhead_frac": (overhead_frac, "fraction"),
        "bench.request_s_p50": (request_s_p50, "s"),
        "bench.failed_frac": (failed_frac, "fraction"),
        "cli.repeated_quantiles": (repeated_quantiles, "count"),
    })
    return out


def blas_threads_in_effect():
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_commit():
    """Commit of the checkout from .git, or None where there is none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": BLAS_THREADS,
        "blas_threads": blas_threads_in_effect(),
        "commit": git_commit(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package():
    """Import berkson_bands from the checkout's src, never from elsewhere."""
    if not (SRC / "berkson_bands" / "__init__.py").is_file():
        raise SystemExit(f"berkson_bands sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import berkson_bands

    if Path(berkson_bands.__file__).resolve().parent != SRC / "berkson_bands":
        raise SystemExit(f"imported berkson_bands from {berkson_bands.__file__}, not {SRC}")
    warnings.simplefilter("ignore", UserWarning)  # the regime warning fires on every scenario


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = run.run_mc() if run.workload.kind == "mc" else run.run_cli()
    tally = run.tally
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }
    run.details.update(failed_frac=tally.failed_frac, failures=tally.reasons,
                       absent_layers=run.tracer.absent)
    record = {"environment": environment(), "details": run.details, "result": result}
    (run.dir / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    print("environment", json.dumps(record["environment"]))
    print("details", json.dumps({k: v for k, v in run.details.items() if k != "op_seconds"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
