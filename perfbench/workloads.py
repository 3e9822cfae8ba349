"""Seeded radialma workloads: case lists, experiments and output checks.

A workload is a list of cases generated from the seed. Cases fall into
strata, the discrete settings the solver's behaviour depends on (dimension,
equation family, side of the stalk threshold, CLI subcommand). Inside a
stratum the continuous parameters are drawn by stratified sampling, one draw
from each of k equal bins, so every seed gives nearly the same mix of fast
and slow cases and seeds differ only inside each bin. The list interleaves the strata, so any
prefix of it covers them evenly.

An experiment is the unit one latency sample measures: one CLI invocation on
``cli_cold`` and one group of library calls on the other workloads.
``run`` performs it and returns the raw outputs; ``check`` inspects them
afterwards, outside the timed region, and returns the reasons it failed.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import resource
import shutil
import subprocess
import sys
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

EPS_DECADES = (1e-1, 1e-2, 1e-3, 1e-4)
S_MIN, S_MAX = -40.0, 40.0

# Tolerances of the output checks. They are set from the accuracy the
# discretisation reaches, not from byte equality, so a change that only
# moves rounding is never counted as a failure: reduced mass is exact to
# ~1e-12 for n <= 2 and to ~2e-6 for n = 3, where the stencils do not
# telescope; the neutral pole reading at eps <= 1e-3 is within 0.017 of
# gamma over the workloads' ranges (worst at n = 1, gamma = d/4), while at
# larger eps the slope has not yet formed above the layer.
MASS_RTOL = 1e-5
SLOPE_ATOL = 1e-6
NEUTRAL_SLOPE_TOL = 0.025
NEUTRAL_SLOPE_MAX_EPS = 1e-3
ORACLE_GAP_TOL = 1e-6


@dataclass(frozen=True)
class Case:
    """One experiment's inputs; fields a workload does not use keep defaults."""

    index: int
    stratum: str
    n: int
    points: int
    gamma: float
    t_target: float
    kind: str = "magnifying"
    epsilon: float = 1e-3
    command: str = ""
    slope_n: int = 5

    @property
    def degree(self) -> float:
        return float(self.n + 1)

    def describe(self) -> str:
        text = (f"#{self.index:<3d} {self.stratum:<22s} n={self.n} d={self.degree:g} "
                f"N={self.points} gamma={self.gamma:.6f} t={self.t_target:.6f}")
        if self.command == "slope":
            text += f" slope_n={self.slope_n}"
        return text


@dataclass(frozen=True)
class Failure:
    """Why an experiment failed. ``wrong`` marks a result that was returned
    but breaks an invariant, as opposed to no result at all."""

    reason: str
    wrong: bool = False


@dataclass
class Prepared:
    """What set-up builds before the first experiment: models, RHS families
    and, for the CLI workload, the config files."""

    root: Path
    scratch: Path
    models: dict = field(default_factory=dict)
    rhs: dict = field(default_factory=dict)
    configs: dict = field(default_factory=dict)
    diagnosed: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    generate: Callable[[random.Random], list[Case]]
    run: Callable[[Case, Prepared], Any]
    check: Callable[[Case, Any, Prepared], list[Failure]]
    # in-process form of a request that ``run`` serves in a fresh process;
    # the traced run times this form, since spans cannot cross processes
    run_warm: Callable[[Case, Prepared], Any] | None = None
    builds_rhs: bool = True
    write_inputs: Callable[[list[Case], Prepared], None] | None = None


def _stratified(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k draws from [lo, hi], one from each of k equal bins, in random order."""
    width = (hi - lo) / k
    values = [lo + (i + rng.random()) * width for i in range(k)]
    rng.shuffle(values)
    return values


def _interleave(rng: random.Random, strata, k: int, make) -> list[Case]:
    """k cases per stratum; ``make(stratum, gamma_u, t_u)`` gets unit draws."""
    draws = {s: (_stratified(rng, 0.0, 1.0, k), _stratified(rng, 0.0, 1.0, k))
             for s in strata}
    cases = []
    for i in range(k):
        for s in strata:
            gu, tu = draws[s][0][i], draws[s][1][i]
            cases.append(make(len(cases), s, gu, tu))
    return cases


def _lerp(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# Set-up


def prepare(workload: Workload, cases: list[Case], root: Path, scratch: Path) -> Prepared:
    """Import radialma and build every model and RHS family the cases use."""
    warnings.simplefilter("ignore")  # the point-mass families warn on every call
    prep = Prepared(root=root, scratch=scratch)
    _build(prep, cases, workload.builds_rhs)
    if workload.write_inputs is not None:
        scratch.mkdir(parents=True, exist_ok=True)
        workload.write_inputs(cases, prep)
    return prep


def _build(prep: Prepared, cases: list[Case], rhs: bool) -> None:
    import radialma as rm
    from radialma.grid import SGrid
    for c in cases:
        key = (c.n, c.points)
        if key not in prep.models:
            prep.models[key] = rm.KahlerModel(c.n, c.degree, SGrid(S_MIN, S_MAX, c.points))
        if rhs:
            prep.rhs[c.index] = rm.build_dirac_rhs(c.gamma, c.epsilon, prep.models[key])


# ---------------------------------------------------------------------------
# Shared checks


def _check_solution(res, model, label: str) -> list[Failure]:
    """Invariants of every converged solve: mass d^n, 0 <= slope <= d, Kahler."""
    out = []
    d, n = model.degree, model.n
    mass = res.diagnostics.mass
    if not abs(mass - d**n) <= MASS_RTOL * d**n:
        out.append(Failure(f"{label}: mass {mass:.12g} != d^n = {d**n:g}", True))
    nu = res.diagnostics.lelong.value
    if not (-SLOPE_ATOL <= nu <= d + SLOPE_ATOL):
        out.append(Failure(f"{label}: slope {nu:.12g} outside [0, d={d:g}]", True))
    if not res.u.is_kahler():
        idx, which = res.u.kahler_violation()
        out.append(Failure(f"{label}: {which} fails positivity at node {idx}", True))
    return out


def _check_neutral_slope(nu: float, gamma: float, eps: float, label: str) -> list[Failure]:
    if eps <= NEUTRAL_SLOPE_MAX_EPS and not abs(nu - gamma) <= NEUTRAL_SLOPE_TOL:
        return [Failure(f"{label}: neutral slope {nu:.6f} != gamma {gamma:.6f}", True)]
    return []


def _check_continuation(trace, res, model, gamma: float, eps: float,
                        label: str) -> list[Failure]:
    """A continuation must reach its target (a solution exists for every
    t < 1 at eps > 0 in all three families) and return a valid solve."""
    base = trace.entries[0]
    if not base.converged:
        return [Failure(f"{label}: neutral base failed, residual {base.residual_norm:.3g}")]
    out = _check_neutral_slope(base.diagnostics.lelong.value, gamma, eps, f"{label} base")
    if trace.verdict == "barrier" or res is None or not res.converged:
        last = trace.entries[-1]
        return out + [Failure(f"{label}: barrier at t = {trace.t_star:.4f}, "
                              f"residual {last.residual_norm:.3g}")]
    return out + _check_solution(res, model, label)


# ---------------------------------------------------------------------------
# t_continuation


def _t_continuation_cases(rng: random.Random) -> list[Case]:
    # n = 3 is left to KNOWN_DEFECTS: at seed its continuations stop short
    strata = [(n, kind) for n in (1, 2) for kind in ("magnifying", "reducing")]

    def make(i, s, gu, tu):
        n, kind = s
        d = n + 1.0
        return Case(i, f"n={n} {kind}", n, 4001, _lerp(0.25 * d, 0.75 * d, gu),
                    _lerp(0.15, 0.9, tu), kind=kind)
    return _interleave(rng, strata, 32, make)


def _t_continuation_run(case: Case, prep: Prepared):
    from radialma import solver
    model = prep.models[(case.n, case.points)]
    return solver.continuity_in_t(model, prep.rhs[case.index],
                                  solver.EquationKind(case.kind, case.t_target),
                                  case.t_target)


def _t_continuation_check(case: Case, out, prep: Prepared) -> list[Failure]:
    trace, res = out
    return _check_continuation(trace, res, prep.models[(case.n, case.points)],
                               case.gamma, case.epsilon, case.kind)


# ---------------------------------------------------------------------------
# eps_family


def _eps_family_cases(rng: random.Random) -> list[Case]:
    # n = 1, half below and half above the stalk threshold tau * d = n.
    # Above it, whether a member takes the slow continuation fallback
    # changes abruptly with tau (0.08 s to 0.9 s per experiment for tau
    # 0.0025 apart), so that half is sampled in twelve bins per stratum
    # to keep the mix, and the 90th percentile that lands in it, steady
    # from seed to seed. n = 2 is left to KNOWN_DEFECTS: at seed its bases
    # at eps >= 1e-2 fail.
    strata = [(1, 0.15, 0.3), (1, 0.3, 0.45), (1, 0.55, 0.725), (1, 0.725, 0.9)]
    def make(i, s, gu, tu):
        n, lo, hi = s
        return Case(i, f"n={n} tau in [{lo},{hi}]", n, 4001, 0.9 * (n + 1),
                    _lerp(lo, hi, tu))
    return _interleave(rng, strata, 12, make)


def _eps_family_run(case: Case, prep: Prepared):
    """The library calls behind the CLI ``magnify`` and ``multiplier``."""
    from radialma import comparison, multiplier, rhs, solver
    model = prep.models[(case.n, case.points)]
    tau, gamma = case.t_target, case.gamma
    report = comparison.magnification_experiment(model, gamma, tau, EPS_DECADES)
    trace, results = solver.sweep_epsilon(model, gamma, solver.magnifying(tau), tau,
                                          EPS_DECADES)
    entries = tuple((r.phi, tau, rhs.build_dirac_rhs(gamma, eps, model))
                    for eps, r in zip(EPS_DECADES, results)
                    if r is not None and r.converged)
    stalk = multiplier.stalk_from_sequence(
        multiplier.PotentialSequence(model, entries)) if entries else None
    eta = rhs.check_lower_bound(rhs.build_dirac_rhs(gamma, EPS_DECADES[0], model)).eta
    lemma = multiplier.trivial_lemma_report(stalk, eta) if stalk is not None else None
    return report, trace, results, stalk, lemma


def _neutral_base_reason(case: Case, eps: float, prep: Prepared) -> str:
    """Why the neutral base at this eps fails; solved once, outside timing."""
    key = (case.index, eps)
    if key not in prep.diagnosed:
        from radialma import solver
        from radialma.rhs import build_dirac_rhs
        model = prep.models[(case.n, case.points)]
        res = solver.newton_solve(model, build_dirac_rhs(case.gamma, eps, model),
                                  solver.neutral())
        prep.diagnosed[key] = (f"neutral base {res.message or 'converged'}, "
                               f"residual {res.residual_norm:.3g}")
    return prep.diagnosed[key]


def _eps_family_check(case: Case, out, prep: Prepared) -> list[Failure]:
    report, _, results, stalk, _ = out
    model = prep.models[(case.n, case.points)]
    d, n = model.degree, model.n
    fails: list[Failure] = []
    for row in report.rows:
        label = f"magnify eps={row.eps:g}"
        fails += _check_neutral_slope(row.nu_neutral, case.gamma, row.eps, f"{label} control")
        if not row.converged:
            fails.append(Failure(f"{label}: no result ({_neutral_base_reason(case, row.eps, prep)})"))
        elif not row.nu_measured <= d + SLOPE_ATOL:
            fails.append(Failure(f"{label}: nu_measured {row.nu_measured:.12g} > d", True))
    for eps, res in zip(EPS_DECADES, results):
        label = f"sweep eps={eps:g}"
        if res is None or not res.converged:
            fails.append(Failure(f"{label}: no converged member "
                                 f"({_neutral_base_reason(case, eps, prep)})"))
        else:
            fails += _check_solution(res, model, label)
    if stalk is None:
        fails.append(Failure("multiplier: no converged members"))
    elif (stalk.k_min >= 1) != (stalk.tau_nu_product > n):
        fails.append(Failure(f"multiplier: k_min {stalk.k_min} disagrees with "
                             f"tau*nu = {stalk.tau_nu_product:.6f} against n = {n}", True))
    return fails


# ---------------------------------------------------------------------------
# fine grids (known defects only)


def _fine_grid_run(case: Case, prep: Prepared):
    from radialma import solver
    model = prep.models[(case.n, case.points)]
    rhs = prep.rhs[case.index]
    base = solver.newton_solve(model, rhs, solver.neutral())
    oracle = solver.neutral_oracle(model, rhs) if case.n <= 2 else None
    trace, res = solver.continuity_in_t(model, rhs, solver.magnifying(case.t_target),
                                        case.t_target)
    return base, oracle, trace, res


def _fine_grid_check(case: Case, out, prep: Prepared) -> list[Failure]:
    import numpy as np
    base, oracle, trace, res = out
    model = prep.models[(case.n, case.points)]
    if not base.converged:
        fails = [Failure(f"neutral: {base.message}, residual {base.residual_norm:.3g}")]
    else:
        fails = _check_solution(base, model, "neutral")
        fails += _check_neutral_slope(base.diagnostics.lelong.value, case.gamma,
                                      case.epsilon, "neutral")
        if oracle is not None:
            gap = float(np.max(np.abs(base.u.values - oracle.values)))
            if not gap <= ORACLE_GAP_TOL:
                fails.append(Failure(f"neutral: Newton/oracle gap {gap:.3g}", True))
    return fails + _check_continuation(trace, res, model, case.gamma, case.epsilon,
                                       "magnifying")


# ---------------------------------------------------------------------------
# cli_cold

CLI_COMMANDS = ("solve", "continuity", "sweep", "magnify", "multiplier", "verify", "slope")


def _cli_cold_cases(rng: random.Random) -> list[Case]:
    # one request per subcommand, so each is repeated often within a run;
    # t stays below the stalk threshold tau = n/d = 0.5, where no family
    # member takes the slow continuation fallback: the request stays
    # import-bound
    gammas = _stratified(rng, 1.0, 1.9, len(CLI_COMMANDS))
    ts = _stratified(rng, 0.15, 0.45, len(CLI_COMMANDS))
    return [Case(i, f"cli {cmd}", 1, 4001, gammas[i], ts[i],
                 kind="neutral" if cmd == "solve" else "magnifying",
                 command=cmd, slope_n=rng.randint(2, 9))
            for i, cmd in enumerate(CLI_COMMANDS)]


def _write_cli_configs(cases: list[Case], prep: Prepared) -> None:
    for c in cases:
        path = prep.scratch / f"case{c.index}.ini"
        path.write_text(_cli_config(c))
        prep.configs[c.index] = path


def _cli_config(case: Case) -> str:
    return "\n".join([
        "[model]", f"n = {case.n}", f"degree = {case.degree!r}", f"s_min = {S_MIN!r}",
        f"s_max = {S_MAX!r}", f"points = {case.points}",
        "[equation]", f"kind = {case.kind}", f"t = {case.t_target!r}",
        f"t_target = {case.t_target!r}",
        "[rhs]", "kind = dirac", f"gamma = {case.gamma!r}", f"epsilon = {case.epsilon!r}",
        "epsilon_list = " + ",".join(repr(e) for e in EPS_DECADES),
        "[solver]", "newton_tol = 1e-10", "max_iters = 50",
        "[run]", f"experiment = case{case.index}", f"slope_n = {case.slope_n}", "",
    ])


@dataclass(frozen=True)
class CliOutcome:
    status: int
    outdir: Path
    stdout: str
    maxrss_kb: int = 0


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _cli_cold_run(case: Case, prep: Prepared) -> CliOutcome:
    """One cold request: a fresh interpreter running the CLI."""
    outdir = prep.scratch / f"out{case.index}"
    outdir.mkdir(exist_ok=True)
    with open(outdir / "stderr.txt", "wb") as err:
        proc = subprocess.Popen(
            [sys.executable, "-m", "radialma.cli", case.command,
             "--config", str(prep.configs[case.index]), "--out", str(outdir)],
            stdout=subprocess.PIPE, stderr=err, env=child_env(prep.root))
        with proc.stdout:
            stdout = proc.stdout.read()
        # wait4 rather than wait: it also returns the child's own peak RSS
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CliOutcome(proc.returncode, outdir, stdout.decode(errors="replace"),
                      usage.ru_maxrss)


def _cli_inprocess_run(case: Case, prep: Prepared) -> CliOutcome:
    """The same request served warm by ``radialma.cli.main`` in this process."""
    from radialma import cli
    outdir = prep.scratch / f"warm{case.index}"
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main([case.command, "--config", str(prep.configs[case.index]),
                           "--out", str(outdir)])
    return CliOutcome(status, outdir, buf.getvalue())


def cli_bytes_written(out: CliOutcome) -> int:
    files = sum(p.stat().st_size for p in out.outdir.iterdir()) if out.outdir.is_dir() else 0
    return files + len(out.stdout.encode())


def _summary(out: CliOutcome, case: Case) -> dict:
    path = out.outdir / f"case{case.index}_summary.txt"
    fields = {}
    for line in path.read_text().splitlines():
        if not line.startswith("#") and " = " in line:
            key, value = line.split(" = ", 1)
            fields[key] = value
    return fields


def _csv_rows(path: Path) -> list[dict]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    return [dict(zip(names, line.split(","))) for line in lines[1:]]


def _cli_cold_check(case: Case, out: CliOutcome, prep: Prepared) -> list[Failure]:
    try:
        return _cli_checks(case, out)
    finally:
        shutil.rmtree(out.outdir, ignore_errors=True)


def _cli_checks(case: Case, out: CliOutcome) -> list[Failure]:
    cmd, d, n = case.command, case.degree, case.n
    if out.status != 0:
        err = out.outdir / "stderr.txt"
        text = err.read_text(errors="replace") if err.is_file() else out.stdout
        last = text.strip().splitlines()[-1:] or [""]
        return [Failure(f"{cmd}: exit status {out.status} {last[0][:120]}")]
    fields = _summary(out, case)
    fails: list[Failure] = []

    def rows_ok(rows, label):
        for r in rows:
            if r["converged"] != "true":
                fails.append(Failure(f"{label} step {r['step']}: not converged"))
                continue
            mass, nu = float(r["mass"]), float(r["lelong"])
            if not abs(mass - d**n) <= MASS_RTOL * d**n:
                fails.append(Failure(f"{label} step {r['step']}: mass {mass:.12g}", True))
            if not (-SLOPE_ATOL <= nu <= d + SLOPE_ATOL):
                fails.append(Failure(f"{label} step {r['step']}: slope {nu:.12g}", True))

    if cmd == "solve":
        rows = _csv_rows(out.outdir / f"case{case.index}_diagnostics.csv")
        rows_ok(rows, cmd)
        if rows and rows[0]["converged"] == "true":
            fails += _check_neutral_slope(float(rows[0]["lelong"]), case.gamma,
                                          case.epsilon, cmd)
    elif cmd in ("continuity", "sweep"):
        if fields.get("verdict") == "barrier":
            fails.append(Failure(f"{cmd}: barrier verdict"))
        rows_ok(_csv_rows(out.outdir / f"case{case.index}_diagnostics.csv"), cmd)
    elif cmd == "magnify":
        for r in _csv_rows(out.outdir / f"case{case.index}_magnification.csv"):
            if not float(r["nu_measured"]) <= d + SLOPE_ATOL:
                fails.append(Failure(f"magnify step {r['step']}: nu_measured "
                                     f"{r['nu_measured']} > d", True))
    elif cmd == "multiplier":
        k_min, product = int(fields["k_min"]), float(fields["tau_nu_product"])
        if (k_min >= 1) != (product > n):
            fails.append(Failure(f"multiplier: k_min {k_min} vs tau*nu {product:.6f}", True))
    elif cmd == "verify":
        lines = [line for line in out.stdout.splitlines() if line.strip()]
        bad = [line for line in lines if not line.startswith("PASS ")]
        if bad or not lines:
            fails.append(Failure(f"verify: {bad[0] if bad else 'no check lines'}", True))
    elif cmd == "slope":
        want = {"ambient_slope": str(Fraction(case.slope_n + 1, case.slope_n)),
                "sub_slope": "2", "destabilizes": "true"}
        got = dict(line.split(" = ", 1) for line in out.stdout.splitlines() if " = " in line)
        for key, value in want.items():
            if got.get(key) != value:
                fails.append(Failure(f"slope: {key} = {got.get(key)}, expected {value}", True))
    return fails


WORKLOADS = {w.name: w for w in (
    Workload("cli_cold", _cli_cold_cases, _cli_cold_run, _cli_cold_check,
             run_warm=_cli_inprocess_run, builds_rhs=False,
             write_inputs=_write_cli_configs),
    Workload("t_continuation", _t_continuation_cases, _t_continuation_run,
             _t_continuation_check),
    Workload("eps_family", _eps_family_cases, _eps_family_run, _eps_family_check,
             builds_rhs=False),
)}


# Inputs on which the program fails at the commit the baseline was taken
# from, although the mathematics guarantees a solution. The timed workloads
# leave them out, so that every run attempts the same work and none of it
# fails; the traced run solves each of them once, untimed, and reports how
# many still fail. Each entry: what fails, how it is run and checked, input.
KNOWN_DEFECTS = (
    ("n=3 magnifying continuation stops short of its target at a residual "
     "just above newton_tol 1e-10", _t_continuation_run, _t_continuation_check,
     Case(0, "defect", 3, 4001, 2.0, 0.5)),
    ("n=3 reducing neutral base at gamma = 0.7 d misses newton_tol 1e-10",
     _t_continuation_run, _t_continuation_check,
     Case(1, "defect", 3, 4001, 2.8, 0.8, kind="reducing")),
    ("n=2 eps-family bases at eps in {1e-1, 1e-2} fail u'' positivity",
     _eps_family_run, _eps_family_check, Case(2, "defect", 2, 4001, 2.7, 0.8)),
    ("n=1 neutral base at N = 16001 ends with damping exhausted",
     _fine_grid_run, _fine_grid_check, Case(3, "defect", 1, 16001, 1.0, 0.5)),
    ("n=2 neutral base at N = 64001 ends with damping exhausted",
     _fine_grid_run, _fine_grid_check, Case(4, "defect", 2, 64001, 1.5, 0.5)),
)


def peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def probe_known_defects(root: Path, scratch: Path) -> list[tuple[str, list[Failure]]]:
    """Solve each KNOWN_DEFECTS input once; return what it is and why it
    still fails (an empty list once it is fixed)."""
    prep = Prepared(root=root, scratch=scratch)
    _build(prep, [case for *_, case in KNOWN_DEFECTS], rhs=True)
    out = []
    for what, run, check, case in KNOWN_DEFECTS:
        try:
            failures = check(case, run(case, prep), prep)
        except Exception as exc:  # a probe that raises still fails
            failures = [Failure(f"raised {type(exc).__name__}: {exc}")]
        out.append((what, failures))
    return out
