"""Set-up cost of one workload in a fresh interpreter.

Times ``import frustgraph`` plus generating the workload's documents, with
a host-speed probe before and after, and prints the three seconds.
``run.py`` starts it several times per run and reports the median of the
set-up times scaled to reference seconds as ``setup_s``.

    PYTHONPATH=src:perfbench python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

import hostspeed

before = hostspeed.probe()
start = time.perf_counter()
import frustgraph  # noqa: E402,F401  (the import is what is timed)
import workloads  # noqa: E402

workloads.make_jobs(sys.argv[1], int(sys.argv[2]))
elapsed = time.perf_counter() - start
print(f"{elapsed:.9f} {before:.9f} {hostspeed.probe():.9f}")
