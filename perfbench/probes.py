"""Fresh-interpreter probes, timed from outside the probed process.

``setup_seconds`` times a fresh interpreter from spawn until it has imported
radialma and built a workload's models and RHS families, which is what the
first experiment of a run waits for. ``import_layer`` times a bare
``import radialma`` against a bare interpreter start and counts the modules
the import loads.

Run as a script, this file is the set-up probe's child:

    python3 perfbench/probes.py <workload> <seed> <scratch dir>

It prints the monotonic clock reading at which set-up finished; the
monotonic clock is system-wide on Linux, so the parent can subtract its own
spawn time from it.
"""

from __future__ import annotations

import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

IMPORT_CHILD = ("import sys; before = len(sys.modules); import radialma; "
                "print(len(sys.modules) - before, "
                "sum(1 for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")


def _spawn(argv: list[str], env: dict) -> tuple[float, str]:
    """Run a child to completion; return its wall time and stdout."""
    t0 = time.monotonic()
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=120, check=False)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[1:]} exited {proc.returncode}: {proc.stderr[-400:]}")
    return wall, proc.stdout


def setup_seconds(workload: str, seed: int, repeats: int, scratch: Path,
                  env: dict) -> tuple[list[float], list[float]]:
    """Set-up times of ``repeats`` fresh processes, after one discarded probe
    that lets the file cache and bytecode cache fill: as measured, and
    calibrated by the kernel timed just before and just after each probe."""
    argv = [sys.executable, str(Path(__file__).resolve()), workload, str(seed), str(scratch)]
    times, kernels = [], []
    for i in range(repeats + 1):
        before = calibrate.kernel_s()
        t0 = time.monotonic()
        _, out = _spawn(argv, env)
        if i:
            times.append(float(out.split()[-1]) - t0)
            kernels.append((before + calibrate.kernel_s()) / 2)
    shutil.rmtree(scratch, ignore_errors=True)
    return times, [t * calibrate.NOMINAL_S / k for t, k in zip(times, kernels)]


def import_layer(repeats: int, env: dict) -> dict[str, float]:
    """Import wall time net of a bare interpreter start, and module counts."""
    bare, full = [], []
    counts = ""
    _spawn([sys.executable, "-c", IMPORT_CHILD], env)  # fills the caches
    for _ in range(repeats):
        bare.append(_spawn([sys.executable, "-c", "pass"], env)[0])
        wall, counts = _spawn([sys.executable, "-c", IMPORT_CHILD], env)
        full.append(wall)
    modules, scipy_modules = (int(x) for x in counts.split())
    return {
        "import.wall_s": statistics.median(full) - statistics.median(bare),
        "import.modules": float(modules),
        "import.scipy_modules": float(scipy_modules),
    }


def _child(workload_name: str, seed: int, scratch: Path) -> None:
    import workloads
    workload = workloads.WORKLOADS[workload_name]
    cases = workload.generate(random.Random(seed))
    workloads.prepare(workload, cases, Path(__file__).resolve().parent.parent, scratch)
    print(time.monotonic())


if __name__ == "__main__":
    _child(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
