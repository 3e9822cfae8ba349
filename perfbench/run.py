"""Run one radialma benchmark workload and print its metrics.

From the repository root:

    python3 perfbench/run.py --workload t_continuation --seed 1 --seconds 30 --trace 0

The seed generates the workload's case list, which is printed first. Set-up
time comes from fresh-interpreter probes. After one discarded warm-up
experiment per stratum, the case list is run round and round, one
experiment at a time (closed loop, one client, BLAS and OpenMP threads set
to 1), for ``--seconds`` and at least one whole pass. Every experiment's
outputs are checked after it is timed.

``--trace 0`` prints the end-to-end metrics. Times are calibrated to one
reference machine speed (see ``calibrate.py``); the uncalibrated figures are
printed beside them. Latencies are taken over the cases: each case's
median over its repetitions, then the median and 90th percentile of those.

``--trace 1`` alternates untraced and traced passes and prints the
per-layer metrics read from spans around the calls into radialma's layers,
the tracing overhead, and how many of the known defects (inputs the
workloads leave out because the program fails on them) still fail.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import calibrate
import probes
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

# A failed experiment misses every latency limit. Its latency sample is this
# limit plus its own wall time, so it ranks above every success (no
# experiment here comes near a minute) and turning a failure into a success
# can never make a latency figure worse.
LATENCY_LIMIT_S = 60.0
SETUP_PROBES = 5
IMPORT_PROBES = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Sample:
    case: int
    wall_s: float
    failures: list
    kernel_s: float = 0.0  # the calibration kernel's time right after


def case_latencies(samples: list[Sample], walls: list[float]) -> list[float]:
    """Each case's median latency over its repetitions in the run, from the
    samples' wall times ``walls``. Taking the median per case first keeps a
    burst of noise on the shared host from moving the figures, and every
    case counts once however often it was repeated."""
    by_case: dict[int, list[float]] = {}
    for s, wall in zip(samples, walls):
        latency = wall + (LATENCY_LIMIT_S if s.failures else 0.0)
        by_case.setdefault(s.case, []).append(latency)
    return [statistics.median(v) for _, v in sorted(by_case.items())]


class Runner:
    """Times experiments one at a time and checks each one's outputs."""

    def __init__(self, workload, cases, prep, tracer=None, calibrate_each=False):
        self.workload, self.cases, self.prep, self.tracer = workload, cases, prep, tracer
        self.calibrate_each = calibrate_each
        self.samples: list[Sample] = []
        self.reasons: dict[int, list] = {}
        self.bytes_written = 0
        self.child_rss_kb = 0

    def one(self, fn, case, traced: bool = False) -> Sample:
        t0 = time.perf_counter()
        try:
            if traced:
                out = self.tracer.experiment(case.index, fn, case, self.prep)
            else:
                out = fn(case, self.prep)
        except Exception:  # an experiment that raises has failed; keep measuring
            wall = time.perf_counter() - t0
            last = traceback.format_exc().strip().splitlines()[-1]
            failures = [workloads.Failure(f"raised {last}")]
            kernel = calibrate.kernel_s() if self.calibrate_each else 0.0
        else:
            wall = time.perf_counter() - t0
            kernel = calibrate.kernel_s() if self.calibrate_each else 0.0
            if traced and isinstance(out, workloads.CliOutcome):
                self.bytes_written += workloads.cli_bytes_written(out)
            self.child_rss_kb = max(self.child_rss_kb, getattr(out, "maxrss_kb", 0))
            failures = self.workload.check(case, out, self.prep)
        if failures:
            self.reasons.setdefault(case.index, failures)
        sample = Sample(case.index, wall, failures, kernel)
        self.samples.append(sample)
        return sample

    def cycle(self, fn, seconds: float) -> None:
        """Run the cases in list order, round and round, for ``seconds`` and
        at least one whole pass."""
        start = time.perf_counter()
        i = 0
        while i < len(self.cases) or time.perf_counter() - start < seconds:
            self.one(fn, self.cases[i % len(self.cases)])
            i += 1

    def alternate(self, fn, seconds: float) -> tuple[int, list, list]:
        """Alternate an untraced and a traced whole pass over the case list
        until the next pair would end more than half a pair past
        ``seconds``; whole passes keep per-pass counts exact. Returns the
        number of pairs and the untraced and traced samples."""
        start = time.perf_counter()
        plain: list[Sample] = []
        with_spans: list[Sample] = []
        pairs = 0
        while True:
            plain += [self.one(fn, case) for case in self.cases]
            with_spans += [self.one(fn, case, traced=True) for case in self.cases]
            pairs += 1
            elapsed = time.perf_counter() - start
            if elapsed + 0.5 * elapsed / pairs >= seconds:
                return pairs, plain, with_spans

    def warm_up(self, fn) -> None:
        """One discarded experiment per stratum; just one for requests that
        start a fresh interpreter, which no earlier request can warm."""
        cold = fn is self.workload.run and self.workload.run_warm is not None
        seen = set()
        for case in self.cases:
            if case.stratum not in seen and not (cold and seen):
                seen.add(case.stratum)
                self.one(fn, case)
        self.samples.clear()
        self.reasons.clear()
        self.child_rss_kb = 0

    def report_failures(self) -> None:
        for index, failures in sorted(self.reasons.items()):
            print(f"FAILED {self.cases[index].describe()}")
            for f in failures:
                print(f"    {'WRONG ' if f.wrong else ''}{f.reason}")

    def result(self, metrics: dict) -> dict:
        return {
            "correct": not any(f.wrong for s in self.samples for f in s.failures),
            "attempted": len(self.samples),
            "failed": sum(1 for s in self.samples if s.failures),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }


def untraced(args, workload, cases, prep, env) -> dict:
    setups_raw, setups = probes.setup_seconds(args.workload, args.seed, SETUP_PROBES,
                                              OUT / f"probe-{os.getpid()}", env)
    runner = Runner(workload, cases, prep, calibrate_each=True)
    runner.warm_up(workload.run)
    runner.cycle(workload.run, args.seconds)

    walls = [s.wall_s for s in runner.samples]
    per_case = case_latencies(runner.samples, calibrate.calibrated(
        walls, [s.kernel_s for s in runner.samples]))
    p50 = statistics.median(per_case)
    p90 = statistics.quantiles(per_case, n=10, method="inclusive")[-1]
    raw = case_latencies(runner.samples, walls)
    kernel = statistics.median(s.kernel_s for s in runner.samples)
    # the worker is this process; for cold CLI requests, each child process
    rss_mb = (runner.child_rss_kb if workload.run_warm is not None
              else workloads.peak_rss_kb()) / 1024.0
    failed = sum(1 for s in runner.samples if s.failures)
    runner.report_failures()
    n = len(runner.samples)
    print(f"{n} experiments, {n / len(cases):.2f} passes over {len(cases)} cases")
    print(f"calibration kernel median {kernel * 1e3:.4f} ms against "
          f"{calibrate.NOMINAL_S * 1e3:g} ms nominal; times below are calibrated, "
          f"uncalibrated in brackets")
    print(f"  setup_s         {statistics.median(setups):.6f} s   median of "
          f"{len(setups)} fresh processes {[round(x, 4) for x in setups]} "
          f"[{statistics.median(setups_raw):.6f} s]")
    print(f"  latency_p50_s   {p50:.6f} s   median over cases of each case's median "
          f"[{statistics.median(raw):.6f} s]{unmet(p50)}")
    print(f"  latency_p90_s   {p90:.6f} s   90th percentile of the cases' medians "
          f"[{statistics.quantiles(raw, n=10, method='inclusive')[-1]:.6f} s]{unmet(p90)}")
    print(f"  failed_fraction {failed / n:.6f}     {failed} of {n} experiments failed")
    print(f"  peak_rss_mb     {rss_mb:.3f} MB")
    return runner.result({
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (p50, "s"),
        "latency_p90_s": (p90, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    })


def unmet(value: float) -> str:
    if value < LATENCY_LIMIT_S:
        return ""
    return (f"   (a failed experiment: limit {LATENCY_LIMIT_S:g} s + "
            f"{value - LATENCY_LIMIT_S:.6f} s wall)")


def traced(args, workload, cases, prep, env) -> dict:
    layer = probes.import_layer(IMPORT_PROBES, env)
    tracer = spans.Tracer()
    fn = workload.run_warm or workload.run
    runner = Runner(workload, cases, prep, tracer)
    tracer.install()
    try:
        runner.warm_up(fn)
        rounds, plain, with_spans = runner.alternate(fn, args.seconds)
    finally:
        tracer.uninstall()
    path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.write(path)
    defects = workloads.probe_known_defects(ROOT, OUT / f"defects-{os.getpid()}")

    layer.update(spans.layer_metrics(tracer.spans, rounds))
    layer["cli.bytes_written"] = runner.bytes_written / rounds
    overhead = (statistics.median(s.wall_s for s in with_spans)
                - statistics.median(s.wall_s for s in plain))
    layer["trace.overhead_s"] = overhead
    layer["defects.open"] = float(sum(1 for _, failures in defects if failures))
    runner.report_failures()
    for what, failures in defects:
        print(f"KNOWN DEFECT {'still fails' if failures else 'fixed'}: {what}")
        for f in failures:
            print(f"    {f.reason}")
    print(f"{rounds} traced passes, {len(tracer.spans)} spans written to "
          f"{path.relative_to(ROOT)}")
    print(f"tracing overhead {overhead:.6f} s per experiment "
          f"(median traced minus median untraced wall time)")
    for name, value in layer.items():
        print(f"  {name:34s} {value:.9g} {layer_unit(name)}")
    return runner.result({name: (value, layer_unit(name)) for name, value in layer.items()})


def layer_unit(name: str) -> str:
    for suffix, unit in (("_s", "s"), ("_ratio", "ratio"), ("_per_node_iter", "ns"),
                         ("bytes_written", "bytes")):
        if name.endswith(suffix):
            return unit
    return "count"


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var in THREAD_VARS:  # before numpy is first imported, here and in children
        os.environ[var] = "1"
    if not (ROOT / "src" / "radialma" / "__init__.py").is_file():
        print(f"radialma sources not found under {ROOT / 'src'}; run from the root "
              "of a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = workloads.WORKLOADS[args.workload]
    cases = workload.generate(random.Random(args.seed))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print(f"environment {json.dumps(environment())}")
    print(f"cases ({len(cases)}):")
    for case in cases:
        print(f"  {case.describe()}")
    scratch = OUT / f"run-{os.getpid()}"
    try:
        prep = workloads.prepare(workload, cases, ROOT, scratch)
        res = (traced if args.trace else untraced)(args, workload, cases, prep,
                                                   workloads.child_env(ROOT))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
