"""Check that two source trees produce byte-identical outputs.

    python tools/same_outputs.py OLD_TREE NEW_TREE

Each tree (a checkout holding ``src/berkson_bands``) runs in its own child
process, one after the other, and writes:

- plain bands on the ten presets at seeds 1-3 (quantile, ghat, nuhat,
  lower, upper), the sample of seed s being replication s of the preset;
- split bands on both mixture presets at seeds 1-3, at the default b_n
  and at b_n = 0.5;
- the Lepski rule's h, k and every deviation record on the ten presets
  at seeds 1-3;
- build_split's arrays at every preset's n, for the default d_n and a
  few others;
- through the CLI, each in a fresh process: the Lepski + undersmoothing
  + split ``band --json`` request at ``--seed`` 0-5 (CSV, sidecar and
  stdout), a plain Lepski band, ``estimate`` at a fixed h and with
  ``--bandwidth lepski``, ``kernel-dump``, and 2-replication
  ``simulate`` runs (their ``summary.json`` without ``runtime``).

It prints every output that differs or exists in one tree only, then
how many outputs differ and how many array outputs differ by more than
1e-10 relative, the bound for a change meant to be exact.  It exits 1
if any output differs, 0 if all agree and 2 if a tree fails to run.
Outputs go to a temporary directory, removed afterwards.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SEEDS = (1, 2, 3)
CLI_SEEDS = range(6)
# The CLI runs on one sample of each error-law kind.
MIX_ARGS = ["--density", "mixture", "--sigma-delta", "0.05"]
LAP_ARGS = ["--density", "laplace", "--sigma-delta", "0.1"]


def _save(out: Path, name: str, value) -> None:
    np.save(out / f"{name}.npy", np.asarray(value), allow_pickle=False)


def _dump_json(path: Path, value) -> None:
    path.write_text(json.dumps(value, indent=1) + "\n", encoding="utf-8")


def _write_library(out: Path) -> None:
    """Outputs of direct calls into the package."""
    import warnings

    from berkson_bands import (SCENARIOS, build_band, build_band_extension,
                               build_regular, build_split, default_taper,
                               generate_sample, lepski_select)

    warnings.simplefilter("ignore")  # an older tree's warnings are no output
    for name, sc in SCENARIOS.items():
        noise = sc.noise()
        for s in SEEDS:
            sample = generate_sample(sc, np.random.SeedSequence((sc.seed, s, 0)))
            request = sc.request(s)
            bands = {"plain": build_band(sample, request, noise)}
            if name.startswith("mix_"):
                bands["split"] = build_band_extension(sample, request, noise)
                bands["split_b0.5"] = build_band_extension(sample, request, noise,
                                                           b_n=0.5)
            for kind, band in bands.items():
                for field in ("quantile", "ghat", "nuhat", "lower", "upper"):
                    _save(out, f"{kind}.{name}.seed{s}.{field}", getattr(band, field))
            res = lepski_select(sample, noise, default_taper(noise), sc.interval)
            _dump_json(out / f"lepski.{name}.seed{s}.json",
                       {"h": res.h, "k": res.k,
                        "deviations": [list(d) for d in res.deviations]})
    for n in sorted({sc.n for sc in SCENARIOS.values()}):
        design = build_regular(n)
        for d_n in (None, 2, 3, 7, 2 * n):
            sd = build_split(design, d_n)
            for field in ("kept", "removed", "gap_weights"):
                _save(out, f"split_design.n{n}.d{d_n}.{field}", getattr(sd, field))
            _dump_json(out / f"split_design.n{n}.d{d_n}.json", {"d_n": sd.d_n})


def _write_cli(out: Path) -> None:
    """Outputs of CLI requests, each in a fresh process run in ``out``."""
    from berkson_bands import SCENARIOS, generate_sample, save_sample

    for name in ("mix_ga_n750", "ga_n100_s10"):
        sc = SCENARIOS[name]
        save_sample(generate_sample(sc, np.random.SeedSequence((sc.seed, 0, 0))),
                    out / f"{name}.csv")
    mix = ["--input", "mix_ga_n750.csv", *MIX_ARGS]
    lap = ["--input", "ga_n100_s10.csv", *LAP_ARGS]
    runs = {
        f"cli_cold.seed{s}": ["band", *mix, "--bandwidth", "lepski", "--undersmooth",
                              "--split", "--M", "250", "--seed", str(s),
                              "--out", f"cli_cold.seed{s}.csv"]
        for s in CLI_SEEDS
    }
    runs["band_lepski"] = ["band", *lap, "--bandwidth", "lepski", "--undersmooth",
                           "--out", "band_lepski.csv"]
    for label, args in (("mix", mix), ("lap", lap)):
        runs[f"estimate_h.{label}"] = ["estimate", *args, "--h", "0.3",
                                       "--out", f"estimate_h.{label}.csv"]
        runs[f"estimate_lepski.{label}"] = ["estimate", *args, "--bandwidth", "lepski",
                                            "--out", f"estimate_lepski.{label}.csv"]
    runs["kernel_dump"] = ["kernel-dump", *LAP_ARGS, "--h", "0.25",
                           "--out", "kernel_dump.csv"]
    for name in ("ga_n100_s10", "mix_ga_n100"):
        runs[f"simulate.{name}"] = ["simulate", "--scenario", name, "--reps", "2",
                                    "--out", f"simulate.{name}"]
    for label, args in runs.items():
        proc = subprocess.run([sys.executable, "-m", "berkson_bands", "--json", *args],
                              cwd=out, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            raise RuntimeError(f"{label} exited {proc.returncode}: {proc.stderr}")
        stdout = json.loads(proc.stdout)
        stdout.pop("runtime", None)
        _dump_json(out / f"{label}.stdout.json", stdout)
    for name in ("ga_n100_s10", "mix_ga_n100"):
        path = out / f"simulate.{name}" / "summary.json"
        summary = json.loads(path.read_text(encoding="utf-8"))
        summary.pop("runtime")
        _dump_json(path, summary)


def write_outputs(tree: Path, out: Path) -> None:
    import berkson_bands

    where = Path(berkson_bands.__file__).resolve()
    if tree.resolve() not in where.parents:
        raise RuntimeError(f"imported {where}, not the package of {tree}")
    _write_library(out)
    _write_cli(out)


def _run_tree(tree: Path, out: Path) -> subprocess.CompletedProcess:
    # absolute, since the CLI children run in ``out``
    tree = tree.resolve()
    out.mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(tree / "src"),
                                                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, __file__, "--write", str(tree), str(out)],
                          env=env, stderr=subprocess.PIPE, text=True)


# How far a change meant to be exact may move an array output, relative
# to its largest magnitude
EXACT = 1e-10


def _describe(old: Path, new: Path) -> tuple[str, bool]:
    """How two differing output files differ, for arrays, and whether
    they are arrays that differ by more than EXACT relative or in shape."""
    if old.suffix != ".npy":
        return "bytes differ", False
    a, b = np.load(old), np.load(new)
    if a.shape != b.shape or a.dtype != b.dtype:
        return f"{a.dtype}{a.shape} against {b.dtype}{b.shape}", True
    gap = np.max(np.abs(a - b), initial=0.0)
    scale = np.max(np.abs(a), initial=0.0)
    relative = gap / scale if scale else gap
    return f"max difference {gap:.3g} ({relative:.3g} relative)", relative > EXACT


def compare(old: Path, new: Path) -> tuple[list[str], int]:
    """One line per output that differs between the two output trees, and
    how many array outputs differ by more than EXACT relative (an array
    in one tree only counts)."""
    files = {p.relative_to(root) for root in (old, new)
             for p in root.rglob("*") if p.is_file()}
    lines, inexact = [], 0
    for rel in sorted(files):
        a, b = old / rel, new / rel
        if not (a.exists() and b.exists()):
            lines.append(f"{rel}: only in {'old' if a.exists() else 'new'}")
            inexact += rel.suffix == ".npy"
        elif a.read_bytes() != b.read_bytes():
            text, far = _describe(a, b)
            lines.append(f"{rel}: {text}")
            inexact += far
    return lines, inexact


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old", type=Path)
    p.add_argument("new", type=Path)
    args = p.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as work:
        outs = [Path(work) / "old", Path(work) / "new"]
        trees = (args.old, args.new)
        failed = False
        for tree, out in zip(trees, outs):
            proc = _run_tree(tree, out)
            if proc.returncode != 0:
                print(f"{tree} failed:\n{proc.stderr}", file=sys.stderr)
                failed = True
        if failed:
            return 2
        lines, inexact = compare(*outs)
        count = sum(1 for p in outs[0].rglob("*") if p.is_file())
        arrays = sum(1 for p in outs[0].rglob("*.npy"))
    for line in lines:
        print(line)
    print(f"{len(lines)} of {count} outputs differ")
    print(f"{inexact} of {arrays} array outputs differ by more than {EXACT:g} relative")
    return 1 if lines else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--write"]:
        write_outputs(Path(sys.argv[2]), Path(sys.argv[3]))
    else:
        sys.exit(main())
