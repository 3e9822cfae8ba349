"""Calibration kernel: how fast this machine runs the benchmark's kind of
code right now.

The benchmark runs on a shared host. Other tenants' load changes the speed
of the same code by up to a third within a minute, and CPU time moves with
wall time (the vCPUs are not descheduled; they run slower), so neither can
be compared across runs as it stands. A fixed kernel of interpreted Python
and small numpy operations, like radialma's own mix, is timed next to the
measured work; dividing a wall time by the kernel's current time, relative
to ``NOMINAL_S``, gives the time the work takes at one reference speed.
The kernel touches no radialma code, so a change to radialma cannot change
it.
"""

from __future__ import annotations

import statistics
import time

# The kernel's time on an idle 2.1 GHz x86-64 vCPU, single-threaded. It only
# fixes the scale of calibrated seconds.
NOMINAL_S = 0.002
WINDOW = 4  # calibrate a sample by the kernel times of its 2 * WINDOW + 1 neighbours

_x = None


def kernel_s() -> float:
    """Wall time of one run of the kernel."""
    global _x
    import numpy as np  # not at import time: thread settings come first
    if _x is None:
        _x = np.linspace(0.0, 1.0, 4001)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    table = {i: str(i) for i in range(2000)}
    acc += len(table)
    for _ in range(40):
        y = np.exp(-_x) * _x
        y[1:] += np.diff(y)
        acc += float(np.max(np.abs(y)))
    return time.perf_counter() - t0


def calibrated(walls: list[float], kernels: list[float]) -> list[float]:
    """Each wall time at the reference speed, using the median kernel time
    of the samples around it."""
    out = []
    for j, wall in enumerate(walls):
        near = kernels[max(0, j - WINDOW): j + WINDOW + 1]
        out.append(wall * NOMINAL_S / statistics.median(near))
    return out
