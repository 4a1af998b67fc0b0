"""Command-line interface: estimate, band, simulate, kernel-dump.

Exit codes: 0 success, 2 configuration error (message names the
offending flag), 1 runtime error.  --json switches the stdout summary
to machine-readable JSON.
"""
from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import sys
import warnings
from pathlib import Path

from .bands import (
    BandRequest,
    _sidecar,
    build_band,
    build_band_extension,
    default_taper,
    make_eval_grid,
    write_band,
)
from .bandwidth import lepski_select, undersmooth
from .deconv_kernel import _GRID_LEN, kernel_table, spectral_kernels
from .design import _A_N, load_sample, write_columns
from .estimator import estimate_g
from .noise_models import _KINDS, _LAM, _MU, make_noise
from .simulation import (
    SCENARIOS,
    Scenario,
    export_report,
    run_scenario,
    scenario_from_file,
)

__all__ = ["main", "parse_and_dispatch", "ConfigError"]


class ConfigError(ValueError):
    """Invalid run configuration; the message names the offending field."""


def positive_real(text: str) -> float:
    """Flag type for a positive finite real; argparse names the flag."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def positive_int(text: str) -> int:
    """Flag type for a positive integer; argparse names the flag."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="berkson-bands",
        description="Deconvolution estimates and uniform confidence bands "
        "for regression with Berkson-type covariate errors.",
    )
    p.add_argument("--json", action="store_true", dest="json_out",
                   help="emit a JSON summary on stdout")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_noise_flags(sp):
        sp.add_argument("--density", choices=_KINDS, required=True)
        sp.add_argument("--sigma-delta", type=float, dest="sigma_delta")
        sp.add_argument("--lam", type=float, default=_LAM)
        sp.add_argument("--mu", type=float, default=_MU)

    def add_taper_flags(sp):
        sp.add_argument("--taper", choices=["damped_cutoff", "smooth_poly"])
        sp.add_argument("--cutoff", type=float)

    def add_estimation_flags(sp):
        sp.add_argument("--input", required=True,
                        help="CSV with header w,Y")
        sp.add_argument("--a-n", type=positive_real, default=_A_N, dest="a_n")
        sp.add_argument("--h", type=positive_real)
        sp.add_argument("--bandwidth", help="preset:<scenario> | lepski")
        sp.add_argument("--undersmooth", action="store_true")
        sp.add_argument("--interval", type=float, nargs=2,
                        default=Scenario.interval, metavar=("A", "B"))
        add_noise_flags(sp)
        add_taper_flags(sp)

    sp = sub.add_parser("estimate", help="write the deconvolution estimate")
    add_estimation_flags(sp)
    sp.add_argument("--out", default="estimate.csv")

    sp = sub.add_parser("band", help="write a uniform confidence band")
    add_estimation_flags(sp)
    sp.add_argument("--alpha", type=float, default=BandRequest.alpha)
    sp.add_argument("--M", type=int, default=BandRequest.draws)
    sp.add_argument("--seed", type=int, default=BandRequest.seed)
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
    sp.add_argument("--threads", type=positive_int, default=1,
                    help="worker processes (default 1)")
    sp.add_argument("--out", required=True, help="output directory")

    sp = sub.add_parser("kernel-dump", help="tabulate the deconvolution kernel")
    sp.add_argument("--h", type=positive_real, required=True)
    add_noise_flags(sp)
    add_taper_flags(sp)
    sp.add_argument("--grid-len", type=int, default=_GRID_LEN, dest="grid_len")
    sp.add_argument("--span", type=float)
    sp.add_argument("--out", default="kernel.csv")

    return p


@contextlib.contextmanager
def _flags(names: str, *errors):
    """Turn a ValueError, or one of ``errors``, raised in the block into a
    ConfigError whose message names ``names``, the flags that set it."""
    try:
        yield
    except (ValueError, *errors) as exc:
        raise ConfigError(f"{names}: {exc}") from exc


def _noise_from(args: argparse.Namespace):
    with _flags("--sigma-delta/--lam/--mu"):
        return make_noise(args.density, sigma_delta=args.sigma_delta,
                          lam=args.lam, mu=args.mu)


def _replaced(config, flags: str, **fields):
    """``config`` with the fields whose flag was given replaced; ``flags``
    names those flags in the error message."""
    with _flags(flags):
        return dataclasses.replace(
            config, **{k: v for k, v in fields.items() if v is not None})


def _taper_from(args: argparse.Namespace, noise):
    """The error law's preset taper, with --taper and --cutoff each
    replacing one of its fields."""
    return _replaced(default_taper(noise), "--taper/--cutoff",
                     kind=args.taper, cutoff=args.cutoff)


def _load_input(args: argparse.Namespace):
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"--input file not found: {path}")
    with _flags(f"--input {path}"):
        return load_sample(path, args.a_n)


def _resolve_h(args: argparse.Namespace, sample, noise, taper,
               interval: tuple[float, float]) -> float:
    if args.h is not None and args.bandwidth is not None:
        raise ConfigError("--h and --bandwidth are mutually exclusive")
    if args.h is not None:
        h = args.h
    elif args.bandwidth is None:
        raise ConfigError("one of --h or --bandwidth is required")
    elif args.bandwidth.startswith("preset:"):
        name = args.bandwidth.split(":", 1)[1]
        if name not in SCENARIOS:
            raise ConfigError(
                f"--bandwidth preset {name!r} unknown; "
                f"known: {', '.join(sorted(SCENARIOS))}"
            )
        h = SCENARIOS[name].h
    elif args.bandwidth == "lepski":
        with _flags("--bandwidth lepski/--interval"):
            h = lepski_select(sample, noise, taper, interval).h
    else:
        raise ConfigError(f"--bandwidth must be preset:<scenario> or lepski; "
                          f"got {args.bandwidth!r}")
    if args.undersmooth:
        with _flags("--undersmooth"):
            h = undersmooth(h, sample.design.n)
    return h


def _emit(payload: dict, json_out: bool) -> None:
    if json_out:
        print(json.dumps(payload, indent=2))
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def _prepare(args: argparse.Namespace):
    """Interval, error law, taper, sample, bandwidth and grid of a request.

    Every input of ``estimate`` and ``band`` is read and checked here.
    """
    interval = tuple(args.interval)
    noise = _noise_from(args)
    taper = _taper_from(args, noise)
    sample = _load_input(args)
    h = _resolve_h(args, sample, noise, taper, interval)
    with _flags("--interval/--h"):
        grid = make_eval_grid(interval, sample.design.n, sample.design.a_n, h)
    return interval, noise, taper, sample, h, grid.points


def _cmd_estimate(args: argparse.Namespace) -> int:
    interval, noise, taper, sample, h, grid = _prepare(args)
    reach = sample.design.reach(interval)
    (values,) = estimate_g(sample, grid, spectral_kernels([h], noise, taper, reach))
    out = Path(args.out)
    write_columns(out, "x,ghat", grid, values)
    _emit(
        {"op": "estimate", "out": str(out), "h": h, "points": len(grid)},
        args.json_out,
    )
    return 0


def _cmd_band(args: argparse.Namespace) -> int:
    out = Path(args.out)
    with _flags("--out"):
        sidecar = _sidecar(out)
    interval, noise, taper, sample, h, _ = _prepare(args)
    with _flags("--alpha/--M/--seed"):
        request = BandRequest(
            interval=interval, h=h, alpha=args.alpha, draws=args.M,
            seed=args.seed,
        )
    split = args.split or args.d_n is not None or args.b_n is not None
    try:
        band = (build_band_extension(sample, request, noise, taper=taper,
                                     d_n=args.d_n, b_n=args.b_n)
                if split else build_band(sample, request, noise, taper=taper))
    except ValueError as exc:
        # the checks on user-set values name what they reject
        for key, flag in (("oscillating", "--split/--d-n/--b-n"),
                          ("d_n", "--d-n"), ("b_n", "--b-n"),
                          ("too short", "--interval"), ("too large", "--h")):
            if key in str(exc):
                raise ConfigError(f"{flag}: {exc}") from exc
        raise
    summary = write_band(band, out)
    _emit({"op": "band", "out": str(out), "sidecar": str(sidecar), **summary,
           "mean_width": band.mean_width}, args.json_out)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    name = args.scenario
    if name in SCENARIOS:
        scenario = SCENARIOS[name]
    elif Path(name).exists():
        with _flags(f"--scenario file {name}", KeyError, TypeError):
            scenario = scenario_from_file(name)
    else:
        raise ConfigError(
            f"--scenario {name!r} is neither a preset "
            f"({', '.join(sorted(SCENARIOS))}) nor a file"
        )
    scenario = _replaced(scenario, "--reps/--bootstrap/--seed",
                         reps=args.R, draws=args.M, seed=args.seed)
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
    with _flags("--grid-len/--span"):
        table = kernel_table(args.h, noise, taper, grid_len=args.grid_len,
                             span=args.span)
    out = Path(args.out)
    write_columns(out, "u,K", table.grid, table.values)
    _emit(
        {"op": "kernel-dump", "out": str(out), "h": args.h,
         "span": table.span, "points": len(table.grid)},
        args.json_out,
    )
    return 0


_DISPATCH = {
    "estimate": _cmd_estimate,
    "band": _cmd_band,
    "simulate": _cmd_simulate,
    "kernel-dump": _cmd_kernel_dump,
}


def parse_and_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
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


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the message alone: a warning would point at runpy's or the script's line
    with warnings.catch_warnings():
        warnings.showwarning = _print_warning
        return parse_and_dispatch(argv)


if __name__ == "__main__":
    sys.exit(main())
