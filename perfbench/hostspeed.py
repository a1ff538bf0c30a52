"""How fast the host is running this process right now.

On a shared virtual machine the same code can run up to 1.8x slower for
seconds to minutes at a time, and every job of a run shifts together.
``probe`` times a fixed pure-Python loop.  ``scale`` turns seconds
measured between a probe before and a probe after into reference
seconds: the time the work would take at the speed at which the loop
takes ``REF_S``.  The host's slow and fast periods then cancel, while a
change in the measured program still shows in full, because the loop
does not run any of the program's code.
"""

import time

LOOP = 150_000
REF_S = 0.012  # the loop's time on the 2-vCPU Xeon KVM guest the bounds were set on


def probe() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    acc = 0
    for i in range(LOOP):
        acc += i * i % 7
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between two probes, in reference seconds."""
    return seconds * 2 * REF_S / (before + after)
