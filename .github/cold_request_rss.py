"""Peak RSS of three cold band requests must each stay under 70 MB.

Writes the cli_cold sample and a gb_n750_s05 sample, then runs each
request on one of them as one fresh process and reads that process's own
peak RSS: the benchmark's Lepski + split request and a plain band at the
preset bandwidth on the cli_cold sample, and a plain band at the preset
bandwidth on the gb_n750_s05 sample (the mc_large workload's preset, with
Laplace errors).  Run it with the package installed and BLAS at one
thread, as the benchmark runs its request.  This process imports no
numpy: a child counts its parent's peak RSS in its own.
"""
import os
import sys

BOUND_MB = 70
SAMPLES = {"cold.csv": "mix_ga_n750", "cold-gb.csv": "gb_n750_s05"}
SAMPLE = ("import numpy as np, berkson_bands as bb\n"
          f"for path, name in {SAMPLES!r}.items():\n"
          "    bb.save_sample(bb.generate_sample(bb.SCENARIOS[name], "
          "np.random.SeedSequence((1, 0, 0))), path)")


def band(sample, density, *flags):
    """A `band --json` request on ``sample``, the errors of ``density`` at
    sigma_delta = 0.05."""
    return ["-m", "berkson_bands", "--json", "band", "--input", sample,
            "--density", density, "--sigma-delta", "0.05", "--M", "250",
            "--seed", "0", "--out", f"band-{sample}", *flags]


REQUESTS = {
    "cold Lepski + split request": band("cold.csv", "mixture", "--bandwidth", "lepski",
                                        "--undersmooth", "--split"),
    "cold plain band": band("cold.csv", "mixture", "--bandwidth", "preset:mix_ga_n750"),
    "cold plain gb_n750_s05 band": band("cold-gb.csv", "laplace",
                                        "--bandwidth", "preset:gb_n750_s05"),
}


def peak_mb(args):
    """Run python with ``args``; its peak RSS in MB."""
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"python {' '.join(args[:2])} failed")
    return usage.ru_maxrss / 1024  # KiB on Linux


peak_mb(["-c", SAMPLE])
peaks = {name: peak_mb(request) for name, request in REQUESTS.items()}
for name, peak in peaks.items():
    print(f"{name}: peak RSS {peak:.0f} MB")
over = [name for name, peak in peaks.items() if peak >= BOUND_MB]
if over:
    sys.exit(f"{', '.join(over)} over the {BOUND_MB} MB bound")
