"""Command-line interface: estimate, band, simulate, kernel-dump, selftest.

Exit codes: 0 success, 2 configuration error (message names the
offending flag), 1 runtime error.  --json switches the stdout summary
to machine-readable JSON.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from .bands import (
    BandRequest,
    _sup_batch,
    build_band,
    build_band_extension,
    default_taper,
    make_eval_grid,
    write_band,
)
from .bandwidth import default_lepski_config, lepski_select, undersmooth
from .deconv_kernel import TaperSpec, kernel_eval, kernel_table
from .design import build_regular, load_sample
from .estimator import estimate_g
from .noise_models import Laplace, LaplaceMixture, make_noise
from .simulation import (
    SCENARIOS,
    export_report,
    run_scenario,
    scenario_from_file,
)

__all__ = ["main", "parse_and_dispatch", "ConfigError"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="berkson-bands",
        description="Deconvolution estimates and uniform confidence bands "
        "for regression with Berkson-type covariate errors.",
    )
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="emit a JSON summary on stdout")
    p.add_argument("--threads", type=int, default=None,
                   help="worker cap (fallback: env BB_THREADS, default 1)")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_noise_flags(sp):
        sp.add_argument("--density", choices=["laplace", "mixture", "none"],
                        required=True)
        sp.add_argument("--sigma-delta", type=float, dest="sigma_delta")
        sp.add_argument("--lam", type=float, default=0.2)
        sp.add_argument("--mu", type=float, default=0.3)

    def add_taper_flags(sp):
        sp.add_argument("--taper", choices=["damped_cutoff", "smooth_poly"])
        sp.add_argument("--cutoff", type=float)
        sp.add_argument("--flat-radius", type=float, default=0.5,
                        dest="flat_radius")

    def add_estimation_flags(sp):
        sp.add_argument("--input", required=True,
                        help="CSV with header w,Y")
        sp.add_argument("--a-n", type=float, default=2.0 / 3.0, dest="a_n")
        sp.add_argument("--h", type=float)
        sp.add_argument("--bandwidth",
                        help="fixed:<value> | preset:<scenario> | lepski")
        sp.add_argument("--undersmooth", action="store_true")
        sp.add_argument("--interval", type=float, nargs=2,
                        default=(-0.7, 0.6), metavar=("A", "B"))
        sp.add_argument("--seed", type=int, default=0)
        add_noise_flags(sp)
        add_taper_flags(sp)

    sp = sub.add_parser("estimate", help="write the deconvolution estimate")
    add_estimation_flags(sp)
    sp.add_argument("--out", default="estimate.csv")

    sp = sub.add_parser("band", help="write a uniform confidence band")
    add_estimation_flags(sp)
    sp.add_argument("--alpha", type=float, default=0.05)
    sp.add_argument("--M", type=int, default=250)
    sp.add_argument("--d-n", type=int, dest="d_n")
    sp.add_argument("--b-n", type=float, dest="b_n")
    sp.add_argument("--split", action="store_true")
    sp.add_argument("--out", default="band.csv")

    sp = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    sp.add_argument("--scenario", required=True,
                    help=f"name ({', '.join(sorted(SCENARIOS))}) or JSON file")
    sp.add_argument("--reps", type=int, dest="R")
    sp.add_argument("--bootstrap", type=int, dest="M", default=None)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("kernel-dump", help="tabulate the deconvolution kernel")
    sp.add_argument("--h", type=float, required=True)
    add_noise_flags(sp)
    add_taper_flags(sp)
    sp.add_argument("--a-n", type=float, default=2.0 / 3.0, dest="a_n")
    sp.add_argument("--grid-len", type=int, default=1 << 14, dest="grid_len")
    sp.add_argument("--span", type=float)
    sp.add_argument("--out", default="kernel.csv")

    sub.add_parser("selftest", help="run the internal agreement checks")
    return p


def _threads(args) -> int:
    if getattr(args, "threads", None) is not None:
        return max(1, args.threads)
    env = os.environ.get("BB_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"BB_THREADS must be an integer, got {env!r}") from exc
    return 1


def _noise_from(args: argparse.Namespace):
    if args.density == "none":
        return make_noise("none")
    if args.sigma_delta is None or args.sigma_delta <= 0:
        raise ConfigError(
            f"--sigma-delta must be a positive real for --density "
            f"{args.density}, got {args.sigma_delta}"
        )
    try:
        return make_noise(args.density, sigma_delta=args.sigma_delta,
                          lam=args.lam, mu=args.mu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _taper_from(args: argparse.Namespace, noise):
    if args.taper is None:
        if args.cutoff is not None:
            raise ConfigError("--cutoff requires --taper")
        return default_taper(noise)
    try:
        return TaperSpec(
            kind=args.taper,
            cutoff=args.cutoff if args.cutoff is not None else 1.0,
            flat_radius=args.flat_radius,
        )
    except ValueError as exc:
        raise ConfigError(f"--taper/--cutoff/--flat-radius: {exc}") from exc


def _load_input(args: argparse.Namespace):
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"--input file not found: {path}")
    try:
        raw = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except Exception as exc:
        raise ConfigError(f"--input {path}: cannot parse CSV ({exc})") from exc
    rows = raw.shape[0]
    if rows % 2 == 0 or rows < 3:
        raise ConfigError(
            f"--input {path}: expected an odd number of design rows "
            f"(2n+1), got {rows}"
        )
    n = (rows - 1) // 2
    design = build_regular(n, args.a_n)
    try:
        return load_sample(path, design)
    except ValueError as exc:
        raise ConfigError(f"--input {path}: {exc}") from exc


def _resolve_h(args: argparse.Namespace, sample, noise, taper) -> float:
    if args.h is not None and args.bandwidth is not None:
        raise ConfigError("--h and --bandwidth are mutually exclusive")
    if args.h is not None:
        h = args.h
    elif args.bandwidth is None:
        raise ConfigError("one of --h or --bandwidth is required")
    elif args.bandwidth.startswith("fixed:"):
        try:
            h = float(args.bandwidth.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"--bandwidth {args.bandwidth!r}: bad fixed value") from exc
    elif args.bandwidth.startswith("preset:"):
        name = args.bandwidth.split(":", 1)[1]
        if name not in SCENARIOS:
            raise ConfigError(
                f"--bandwidth preset {name!r} unknown; "
                f"known: {', '.join(sorted(SCENARIOS))}"
            )
        h = SCENARIOS[name].h
    elif args.bandwidth == "lepski":
        config = default_lepski_config(sample.design.n, noise.beta, args.a_n)
        h = lepski_select(sample, config, noise, taper, tuple(args.interval)).h
    else:
        raise ConfigError(
            f"--bandwidth must be fixed:<value>, preset:<scenario>, or "
            f"lepski; got {args.bandwidth!r}"
        )
    if args.undersmooth:
        h = undersmooth(h, sample.design.n)
    if not (math.isfinite(h) and h > 0):
        raise ConfigError(f"--h must be positive and finite, got {h}")
    return h


def _emit(payload: dict, json_out: bool) -> None:
    if json_out:
        print(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _cmd_estimate(args: argparse.Namespace) -> int:
    noise = _noise_from(args)
    taper = _taper_from(args, noise)
    sample = _load_input(args)
    h = _resolve_h(args, sample, noise, taper)
    design = sample.design
    grid = make_eval_grid(tuple(args.interval), design.n, design.a_n, h).points
    table = kernel_table(h, noise, taper, span=design.kernel_span(h))
    curve = estimate_g(sample, h, grid, table)
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("x,ghat\n")
        for x, v in zip(curve.grid, curve.values):
            fh.write(f"{x:.10g},{v:.10g}\n")
    _emit(
        {"op": "estimate", "out": str(out), "h": h,
         "points": len(curve.grid)},
        args.json_out,
    )
    return 0


def _cmd_band(args: argparse.Namespace) -> int:
    noise = _noise_from(args)
    taper = _taper_from(args, noise)
    sample = _load_input(args)
    h = _resolve_h(args, sample, noise, taper)
    try:
        request = BandRequest(
            interval=tuple(args.interval), h=h, alpha=args.alpha,
            draws=args.M, seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"--interval/--h/--alpha/--M/--seed: {exc}") from exc
    if args.split or args.d_n is not None or args.b_n is not None:
        if noise.smoothness_class != "W":
            raise ConfigError(
                "--split/--d-n/--b-n need an oscillating error law "
                "(--density mixture)"
            )
        band = build_band_extension(
            sample, request, noise, taper=taper, d_n=args.d_n, b_n=args.b_n,
        )
    else:
        band = build_band(sample, request, noise, taper=taper)
    out = Path(args.out)
    write_band(band, out)
    _emit(
        {
            "op": "band",
            "out": str(out),
            "sidecar": str(out.with_suffix(".json")),
            "quantile": band.quantile,
            "h": band.h,
            "alpha": band.alpha,
            "M": band.draws,
            "seed": band.seed,
            "spacing": band.spacing,
            "mean_width": band.mean_width,
        },
        args.json_out,
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    name = args.scenario
    if name in SCENARIOS:
        scenario = SCENARIOS[name]
    elif Path(name).exists():
        try:
            scenario = scenario_from_file(name)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--scenario file {name}: {exc}") from exc
    else:
        raise ConfigError(
            f"--scenario {name!r} is neither a preset "
            f"({', '.join(sorted(SCENARIOS))}) nor a file"
        )
    updates = {}
    if args.R is not None:
        updates["reps"] = args.R
    if args.M is not None:
        updates["draws"] = args.M
    if args.seed is not None:
        updates["seed"] = args.seed
    if updates:
        try:
            scenario = dataclasses.replace(scenario, **updates)
        except ValueError as exc:
            raise ConfigError(f"--reps/--bootstrap/--seed: {exc}") from exc
    report = run_scenario(scenario, workers=args.threads)
    export_report(report, args.out)
    _emit(
        {
            "op": "simulate",
            "out": str(args.out),
            "rejection_rate": report.rejection_rate,
            "mean_width": report.mean_width,
            "completed_reps": len(report.records),
            "interrupted": report.interrupted,
            "runtime": round(report.runtime, 3),
        },
        args.json_out,
    )
    return 1 if report.interrupted else 0


def _cmd_kernel_dump(args: argparse.Namespace) -> int:
    noise = _noise_from(args)
    taper = _taper_from(args, noise)
    if not args.h > 0:
        raise ConfigError(f"--h must be a positive real, got {args.h}")
    try:
        table = kernel_table(
            args.h, noise, taper, grid_len=args.grid_len, span=args.span,
            a_n=args.a_n,
        )
    except ValueError as exc:
        raise ConfigError(f"--grid-len/--span: {exc}") from exc
    out = Path(args.out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("u,K\n")
        for u, v in zip(table.grid, table.values):
            fh.write(f"{u:.10g},{v:.10g}\n")
    _emit(
        {"op": "kernel-dump", "out": str(out), "h": args.h,
         "span": table.span, "points": len(table.grid)},
        args.json_out,
    )
    return 0


def _selftest_checks() -> list[dict]:
    checks: list[dict] = []

    def record(name: str, err: float, tol: float) -> None:
        checks.append(
            {"name": name, "error": err, "tol": tol, "pass": err <= tol}
        )

    cases = [
        ("laplace", Laplace(a=math.sqrt(2.0) / 0.1), 0.25,
         TaperSpec(kind="damped_cutoff", cutoff=5.5)),
        ("mixture", LaplaceMixture(a=math.sqrt(2.0) / 0.05, lam=0.2, mu=0.3),
         0.59, TaperSpec(kind="damped_cutoff", cutoff=16.0)),
    ]
    for label, noise, h, spec in cases:
        table = kernel_table(h, noise, spec, span=6.0)
        us = np.linspace(-5.5, 5.5, 9)
        err = max(
            abs(kernel_eval(float(u), h, noise, spec) - float(table(u)))
            for u in us
        )
        record(f"kernel quadrature vs table ({label})", err, 1e-6)

    for label, noise, _, _ in cases:
        reach = 40.0 / noise.a + (noise.mu if hasattr(noise, "mu") else 0.0)
        xs = np.linspace(-reach, reach, 40001)
        dens = noise.density(xs)
        err = max(
            abs(np.trapezoid(dens * np.cos(t * xs), xs) - noise.charfn(t))
            for t in (0.5, 3.0, 10.0)
        )
        record(f"characteristic function vs density ({label})", err, 1e-6)

    n, a_n, h = 200, 2.0 / 3.0, 0.25
    noise = Laplace(a=math.sqrt(2.0) / 0.1)
    spec = TaperSpec(kind="damped_cutoff", cutoff=5.5)
    design = build_regular(n, a_n)
    table = kernel_table(h, noise, spec, span=design.kernel_span(h))
    coef = h**noise.beta / math.sqrt(n * a_n * h)
    worst = 0.0
    for x0 in (-0.5, 0.0, 0.5):
        kvec = table((design.points - x0) / h)
        target = coef**2 * float(kvec @ kvec)
        # the band's draw engine at one point with nu = 1: sup = |process|
        sups = _sup_batch(kvec[:, None], np.ones(1), coef, 8000, 7)
        worst = max(worst, abs(float(np.mean(sups**2)) / target - 1.0))
    record("multiplier process variance", worst, 0.05)
    return checks


def _cmd_selftest(args: argparse.Namespace) -> int:
    checks = _selftest_checks()
    ok = all(c["pass"] for c in checks)
    if args.json_out:
        print(json.dumps({"op": "selftest", "ok": ok, "checks": checks},
                         indent=2))
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            status = "pass" if c["pass"] else "FAIL"
            print(f"{c['name']:<{width}}  {status}  "
                  f"(error {c['error']:.3g}, tol {c['tol']:.3g})")
        print("selftest:", "all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


_DISPATCH = {
    "estimate": _cmd_estimate,
    "band": _cmd_band,
    "simulate": _cmd_simulate,
    "kernel-dump": _cmd_kernel_dump,
    "selftest": _cmd_selftest,
}


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        args.threads = _threads(args)
        return _DISPATCH[args.subcommand](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
