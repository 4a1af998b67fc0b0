"""Fresh-interpreter entry points the benchmark spawns.

    child.py setup-mc <scenario> <scenario_seed>   first replication, then "ready"
    child.py setup-cli                             import the CLI, then "ready"
    child.py cli <spans.json> <cli args...>        traced ``berkson-bands`` request

The parent times each setup child from spawn to the "ready" line.  The
traced request installs the wrappers, runs ``berkson_bands.cli.main`` and
writes its spans to ``spans.json`` on exit.  The package is found through
PYTHONPATH, which the parent points at the checkout's ``src``.
"""
from __future__ import annotations

import sys
import time
import warnings


def _ready() -> None:
    print("ready", flush=True)


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "setup-mc":
        import dataclasses

        from berkson_bands.simulation import SCENARIOS, run_scenario

        warnings.simplefilter("ignore", UserWarning)
        name, seed = rest
        run_scenario(dataclasses.replace(SCENARIOS[name], reps=1, seed=int(seed)), workers=1)
        _ready()
        return 0
    if mode == "setup-cli":
        import berkson_bands.cli  # noqa: F401

        _ready()
        return 0
    if mode == "cli":
        spans_path, cli_args = rest[0], rest[1:]
        t0 = time.perf_counter()
        import berkson_bands.cli as cli

        import_s = time.perf_counter() - t0
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            return cli.main(cli_args)
        finally:
            tracer.uninstall()
            tracer.counts["cli.import_s"] = import_s
            tracer.dump(spans_path)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
