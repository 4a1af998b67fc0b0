#!/usr/bin/env bash
# Every subcommand of the installed berkson-bands script, once, in a fresh
# temporary directory: the selftest, a plain band, a Lepski + split band,
# a preset split band, two estimates, a simulation with one and with two
# workers, and a kernel dump.  Run it with the package installed.
set -euxo pipefail
cd "$(mktemp -d)"
berkson-bands selftest
python -c "import numpy as np, berkson_bands as bb; bb.save_sample(bb.generate_sample(bb.SCENARIOS['mix_ga_n100'], np.random.SeedSequence(1)), 'sample.csv')"
law=(--input sample.csv --density mixture --sigma-delta 0.05)
berkson-bands band "${law[@]}" --h 0.5 --out plain.csv
berkson-bands band "${law[@]}" --bandwidth lepski --split --out split.csv
berkson-bands band "${law[@]}" --bandwidth preset:mix_ga_n100 --split --out preset.csv
berkson-bands estimate "${law[@]}" --h 0.5 --out est.csv
berkson-bands estimate "${law[@]}" --bandwidth lepski --out est-lepski.csv
berkson-bands simulate --scenario ga_n100_s10 --reps 2 --bootstrap 100 --out sim
berkson-bands simulate --scenario ga_n100_s10 --reps 2 --bootstrap 100 --threads 2 --out sim2
berkson-bands kernel-dump --h 0.25 --density laplace --sigma-delta 0.1 --grid-len 64 --out kernel.csv
