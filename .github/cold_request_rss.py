"""Peak RSS of two cold band requests must each stay under 70 MB.

Writes the cli_cold sample, then runs each request on it as one fresh
process and reads that process's own peak RSS: the benchmark's Lepski +
split request, and a plain band at the sample's preset bandwidth.  Run it
with the package installed and BLAS at one thread, as the benchmark runs
its request.  This process imports no numpy: a child counts its parent's
peak RSS in its own.
"""
import os
import sys

BOUND_MB = 70
SAMPLE = ("import numpy as np, berkson_bands as bb; bb.save_sample(bb.generate_sample("
          "bb.SCENARIOS['mix_ga_n750'], np.random.SeedSequence((1, 0, 0))), 'cold.csv')")
BAND = ["-m", "berkson_bands", "--json", "band",
        "--input", "cold.csv", "--density", "mixture", "--sigma-delta", "0.05",
        "--M", "250", "--seed", "0", "--out", "cold-band.csv"]
REQUESTS = {
    "cold Lepski + split request": BAND + ["--bandwidth", "lepski", "--undersmooth",
                                           "--split"],
    "cold plain band": BAND + ["--bandwidth", "preset:mix_ga_n750"],
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
