"""Golden outputs: bands, split bands and Lepski picks on fixed seeds.

    python tests/golden.py                  rewrite tests/golden.json
    python tests/golden.py --arrays OUT.npz write every output array

The outputs are the ten preset bands (the sample of replication 1,
drawn with seed 1), the split bands of both mixture presets at the
default b_n and at b_n = 0.5, one band per error law on the symmetric
interval (-0.6, 0.6), and the Lepski rule's (h, k) on two presets.
golden.json keeps a summary of each band: the quantile, and ghat, lower
and upper at five fixed grid indices plus their sums.  Tier-1 builds the
arrays in fresh interpreters at one and at two BLAS threads, checks that
they agree, and checks their summaries against golden.json.  A change
that moves outputs on purpose reruns this script and commits the diff.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from berkson_bands import (SCENARIOS, BandRequest, build_band, build_band_extension,
                           default_taper, generate_sample, lepski_select, make_noise)

GOLDEN = Path(__file__).with_name("golden.json")
SEED = 1
SYMMETRIC = (-0.6, 0.6)
# error law -> the preset whose sample its band takes
LAWS = {"laplace": "ga_n100_s10", "mixture": "mix_ga_n100", "none": "ga_n100_s10"}
LEPSKI = ("ga_n100_s10", "mix_ga_n750")
FIELDS = ("ghat", "lower", "upper")


def outputs() -> dict[str, np.ndarray]:
    """Every golden array, keyed ``<case>.<field>``; the Lepski picks are
    ``lepski.<preset>`` = [h, k]."""
    def sample(name):
        sc = SCENARIOS[name]
        return generate_sample(sc, np.random.SeedSequence((sc.seed, SEED, 0)))

    bands = {}
    for name, sc in SCENARIOS.items():
        bands[f"plain.{name}"] = build_band(sample(name), sc.request(SEED), sc.noise())
        if name.startswith("mix_"):
            for label, b_n in (("default", None), ("0.5", 0.5)):
                bands[f"split_b{label}.{name}"] = build_band_extension(
                    sample(name), sc.request(SEED), sc.noise(), b_n=b_n)
    for law, name in LAWS.items():
        sc = SCENARIOS[name]
        noise = make_noise("none") if law == "none" else sc.noise()
        request = BandRequest(interval=SYMMETRIC, h=sc.h, draws=sc.draws, seed=SEED)
        bands[f"law.{law}"] = build_band(sample(name), request, noise)
    out = {}
    for case, band in bands.items():
        out[f"{case}.quantile"] = np.array(band.quantile)
        for field in FIELDS:
            out[f"{case}.{field}"] = getattr(band, field)
    for name in LEPSKI:
        sc = SCENARIOS[name]
        noise = sc.noise()
        res = lepski_select(sample(name), noise, default_taper(noise), sc.interval)
        out[f"lepski.{name}"] = np.array([res.h, res.k], dtype=float)
    return out


def summary(arrays) -> dict[str, float | list[float]]:
    """The quantile and Lepski picks as they are, and each band field as its
    values at five evenly spaced grid indices plus its sum."""
    out = {}
    for key, value in arrays.items():
        value = np.asarray(value, dtype=float)
        if key.endswith(FIELDS):
            at = np.linspace(0, value.size - 1, 5).round().astype(int)
            out[key] = [*map(float, value[at]), float(value.sum())]
        else:
            out[key] = value.tolist()
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--arrays", type=Path, help="write the arrays here instead")
    args = p.parse_args(argv)
    arrays = outputs()
    if args.arrays is not None:
        np.savez(args.arrays, **arrays)
    else:
        # one line per output, so a diff names what moved
        lines = [f" {json.dumps(key)}: {json.dumps(value)}"
                 for key, value in summary(arrays).items()]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
