"""Peak RSS of the benchmark's cold Lepski + split request must stay under 70 MB.

Writes the cli_cold sample, then runs the request as one fresh process and
reads that process's own peak RSS.  Run it with the package installed and
BLAS at one thread, as the benchmark runs the request.  This process
imports no numpy: a child counts its parent's peak RSS in its own.
"""
import os
import sys

BOUND_MB = 70
SAMPLE = ("import numpy as np, berkson_bands as bb; bb.save_sample(bb.generate_sample("
          "bb.SCENARIOS['mix_ga_n750'], np.random.SeedSequence((1, 0, 0))), 'cold.csv')")
REQUEST = ["-m", "berkson_bands", "--json", "band",
           "--input", "cold.csv", "--density", "mixture", "--sigma-delta", "0.05",
           "--bandwidth", "lepski", "--undersmooth", "--split", "--M", "250",
           "--seed", "0", "--out", "cold-band.csv"]


def peak_mb(args):
    """Run python with ``args``; its peak RSS in MB."""
    pid = os.posix_spawn(sys.executable, [sys.executable, *args], os.environ)
    _, status, usage = os.wait4(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        sys.exit(f"python {' '.join(args[:2])} failed")
    return usage.ru_maxrss / 1024  # KiB on Linux


peak_mb(["-c", SAMPLE])
peak = peak_mb(REQUEST)
print(f"cold request: peak RSS {peak:.0f} MB")
if peak >= BOUND_MB:
    sys.exit(f"peak RSS {peak:.0f} MB, bound {BOUND_MB} MB")
