"""The reference probe: the unit the benchmark's timings are reported in.

On the shared 2-core x86_64 machine this was written on, speed swings by
up to 1.6x within seconds and 30-second means drift by about 15% (a fixed
pure-Python loop timed back to back), so raw seconds of two runs of the
same code differ by more than any useful regression bound.  Every timed operation is therefore divided by the time
of this fixed pure-Python workload, run in the same process just before
and just after the operation.  The ratio is in "ref" units: 1 ref is the
probe's duration, 1.5-3 ms on that machine with Python 3.11.
The benchmark's readable lines give the same figures in seconds.

The probe exercises what qdomains spends its time on (tuple keys, dict
updates, complex arithmetic, a sort) and does not import qdomains.  The
collector is paused while it runs, so the program's garbage-collector
state does not leak into the unit.
"""

from __future__ import annotations

import gc
import time


def _workload() -> int:
    table: dict = {}
    z = 0.5 + 0.25j
    for i in range(4000):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0j) + z * (i % 5)
        z = z * (0.999 + 0.001j)
    return len(sorted(table.items(), key=lambda kv: abs(kv[1])))


def reference_seconds() -> float:
    """Duration of one probe run, now, in this process."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
