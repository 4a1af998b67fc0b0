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
import sys
from pathlib import Path

import numpy as np

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
from .deconv_kernel import (_GRID_LEN, fourier_sums, kernel_table, phi_k,
                            spectral_kernels)
from .design import (_A_N, RegressionSample, build_regular, load_sample,
                     write_columns)
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

    sub.add_parser("selftest", help="run the internal agreement checks")
    return p


def _noise_from(args: argparse.Namespace):
    try:
        return make_noise(args.density, sigma_delta=args.sigma_delta,
                          lam=args.lam, mu=args.mu)
    except ValueError as exc:
        raise ConfigError(f"--sigma-delta/--lam/--mu: {exc}") from exc


def _replaced(config, flags: str, **fields):
    """``config`` with the fields whose flag was given replaced; ``flags``
    names those flags in the error message."""
    try:
        return dataclasses.replace(
            config, **{k: v for k, v in fields.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"{flags}: {exc}") from exc


def _taper_from(args: argparse.Namespace, noise):
    """The error law's preset taper, with --taper and --cutoff each
    replacing one of its fields."""
    return _replaced(default_taper(noise), "--taper/--cutoff",
                     kind=args.taper, cutoff=args.cutoff)


def _load_input(args: argparse.Namespace):
    path = Path(args.input)
    if not path.exists():
        raise ConfigError(f"--input file not found: {path}")
    try:
        return load_sample(path, args.a_n)
    except ValueError as exc:
        raise ConfigError(f"--input {path}: {exc}") from exc


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
        try:
            h = lepski_select(sample, noise, taper, interval).h
        except ValueError as exc:
            raise ConfigError(f"--bandwidth lepski/--interval: {exc}") from exc
    else:
        raise ConfigError(f"--bandwidth must be preset:<scenario> or lepski; "
                          f"got {args.bandwidth!r}")
    if args.undersmooth:
        try:
            h = undersmooth(h, sample.design.n)
        except ValueError as exc:
            raise ConfigError(f"--undersmooth: {exc}") from exc
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
    a, b = args.interval
    if not b >= a:
        raise ConfigError(f"--interval A B needs A <= B, got {a} {b}")
    noise = _noise_from(args)
    taper = _taper_from(args, noise)
    sample = _load_input(args)
    h = _resolve_h(args, sample, noise, taper, (a, b))
    try:
        grid = make_eval_grid((a, b), sample.design.n, sample.design.a_n, h)
    except ValueError as exc:
        raise ConfigError(f"--interval/--h: {exc}") from exc
    return (a, b), noise, taper, sample, h, grid.points


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
    try:
        sidecar = _sidecar(out)
    except ValueError as exc:
        raise ConfigError(f"--out: {exc}") from exc
    interval, noise, taper, sample, h, _ = _prepare(args)
    try:
        request = BandRequest(
            interval=interval, h=h, alpha=args.alpha, draws=args.M,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(f"--alpha/--M/--seed: {exc}") from exc
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
        try:
            scenario = scenario_from_file(name)
        except (ValueError, KeyError, TypeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"--scenario file {name}: {exc}") from exc
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
    try:
        table = kernel_table(args.h, noise, taper, grid_len=args.grid_len,
                             span=args.span)
    except ValueError as exc:
        raise ConfigError(f"--grid-len/--span: {exc}") from exc
    out = Path(args.out)
    write_columns(out, "u,K", table.grid, table.values)
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
            {"name": name, "error": err, "tol": tol, "pass": bool(err <= tol)}
        )

    def gap(got, want) -> float:
        """Largest gap between ``got`` and ``want``, relative to ``want``."""
        return float(np.max(np.abs(np.subtract(got, want))) / np.max(np.abs(want)))

    cases = [(label, SCENARIOS[name].noise(), SCENARIOS[name].h)
             for label, name in (("laplace", "ga_n100_s10"),
                                 ("mixture", "mix_ga_n100"))]
    for label, noise, h in cases:
        spec = default_taper(noise)
        (op,) = spectral_kernels([h], noise, spec, 6.0 * h)
        us = np.linspace(-5.5, 5.5, 9)
        # K(u) = sum_r factor_r cos(omega_r h u), as kernel_table reads it
        vals = fourier_sums(h * us, op.omega, op.factor[:, None])[:, 0]
        err = float(np.max(np.abs(_simpson_kernel(us, h, noise, spec) - vals)))
        record(f"kernel quadrature vs operator ({label})", err, 1e-10)

    for label, noise, _ in cases:
        reach = 40.0 / noise.a + (noise.mu if hasattr(noise, "mu") else 0.0)
        xs = np.linspace(-reach, reach, 40001)
        dens = noise.density(xs)
        err = max(
            abs(np.trapezoid(dens * np.cos(t * xs), xs) - noise.charfn(t))
            for t in (0.5, 3.0, 10.0)
        )
        record(f"characteristic function vs density ({label})", err, 1e-6)

    sc = dataclasses.replace(SCENARIOS["ga_n100_s10"], n=200)
    n, a_n, h, noise = sc.n, sc.a_n, sc.h, sc.noise()
    spec = default_taper(noise)
    design = build_regular(n, a_n)
    w = design.points
    # every evaluation point lies in the design span
    (kernel,) = spectral_kernels([h], noise, spec, float(w[-1] - w[0]))

    grid = make_eval_grid(sc.interval, n, a_n, h).points
    sample = RegressionSample(
        design=design,
        responses=np.random.default_rng(7).standard_normal(design.size),
    )
    (summed,) = estimate_g(sample, grid, [kernel])
    direct = kernel.exact_matrix(grid, w) @ (design.weights * sample.responses) / h
    record("Fourier sums vs direct node sum", gap(summed, direct), 1e-12)

    # factors takes its phases in row blocks of the uniform grids
    basis, lefts = kernel.factors(w, grid, w)
    err = max(gap(left @ basis.T, kernel.exact_matrix(x, w))
              for left, x in zip(lefts, (grid, w)))
    record("uniform factors vs direct cos/sin", err, 1e-12)

    def band(c: float):
        scaled = RegressionSample(design=design, responses=c * sample.responses)
        return build_band(scaled, sc.request(3), noise, taper=spec)

    # the band's low-rank factors against the estimate's Fourier sums
    base = band(1.0)
    (est,) = estimate_g(sample, base.grid, spectral_kernels(
        [h], noise, spec, design.reach(sc.interval)))
    record("band estimate vs estimate_g", gap(base.ghat, est), 1e-10)

    err = 0.0
    for c in (-2.0, 3.0):
        res = band(c)
        err = max(err, gap(res.quantile, base.quantile), gap(res.ghat, c * base.ghat),
                  gap(res.half_width, abs(c) * base.half_width))
    record("band scale equivariance", err, 1e-10)
    return checks


def _simpson_kernel(us, h, noise, spec, intervals=2000) -> np.ndarray:
    """K(u;h) = (1/pi) int_0^cutoff phi_k(t) cos(t u) / charfn(-t/h) dt at
    each of ``us``, by composite Simpson on the taper's two smooth panels
    [0, knot cutoff] and [knot cutoff, cutoff]: a reference that shares no
    node rule with the spectral operator it checks."""
    simpson = np.ones(intervals + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    total = np.zeros(np.size(us))
    for lo, hi in ((0.0, spec.knot), (spec.knot, 1.0)):
        t = np.linspace(lo * spec.cutoff, hi * spec.cutoff, intervals + 1)
        step = (hi - lo) * spec.cutoff / intervals  # not t[1] - t[0], rounded
        f = simpson * phi_k(t, spec) / noise.charfn(-t / h) * (step / 3.0)
        total += np.cos(np.outer(us, t)) @ f
    return total / math.pi


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
