"""Command-line driver for the lab experiments.

Configs are INI-style ``key = value`` files with bracketed sections; every
run echoes its canonicalised config into the summary header so a run can be
reproduced byte-for-byte from its own output. Numeric output is serialised
with 17 significant digits. Exit status: 0 success, 1 solver barrier or
non-convergence (outputs still written), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from .comparison import magnification_experiment
from .errors import ConfigurationError, ConstraintViolationError
from .geometry import KahlerModel
from .grid import SGrid
from .multiplier import PotentialSequence, stalk_from_sequence, trivial_lemma_report
from .rhs import (
    build_dirac_rhs,
    build_divisor_rhs,
    check_lower_bound,
    constant_rhs,
    dirac_density,
)
from .slopes import destabilizes, line_tangent, normalized_slope, tangent_on_line
from .solver import (
    ContinuityTrace,
    EquationKind,
    SolveConfig,
    continuity_in_t,
    newton_solve,
    sweep_epsilon,
)

OUTPUT_ENV = "RADIALMA_OUT"

DIAG_COLUMNS = ("step", "param", "sup_phi", "inf_phi", "avg_phi", "lelong",
                "lelong_sensitivity", "mass", "newton_iters", "converged")
MAGNIFY_COLUMNS = DIAG_COLUMNS + ("nu_measured", "nu_bootstrap")

_SECTION_ORDER = ("model", "equation", "rhs", "solver", "run")


def fmt(x) -> str:
    """Serialise a number with 17 significant digits (lossless doubles)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _floats(text) -> list[float]:
    """A comma-separated list of numbers; empty entries are skipped."""
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


_EXPECTED = {int: "an integer", float: "a number",
             _floats: "a comma-separated list of numbers"}


class RunConfig:
    """Validated run parameters; raises ConfigurationError with the
    section.key location on any bad field."""

    def __init__(self, parser: configparser.ConfigParser):
        self._p = parser
        g, conv = self._get, self._convert
        self.n = conv("model", "n", 1, int)
        self.degree = conv("model", "degree", 2.0, float)
        self.s_min = conv("model", "s_min", -40.0, float)
        self.s_max = conv("model", "s_max", 40.0, float)
        self.points = conv("model", "points", 4001, int)
        self.kind = str(g("equation", "kind", "magnifying")).strip()
        t_key = "t_target" if parser.has_option("equation", "t_target") else "t"
        self.t_target = conv("equation", t_key, 0.0, float)
        self.rhs_kind = str(g("rhs", "kind", "constant")).strip()
        self.gamma = conv("rhs", "gamma", 0.0, float)
        self.epsilon = conv("rhs", "epsilon", 1e-3, float)
        self.delta_prime = conv("rhs", "delta_prime", 0.0, float)
        self.epsilon_list = conv("rhs", "epsilon_list", "", _floats)
        self.newton_tol = conv("solver", "newton_tol", 1e-10, float)
        self.max_iters = conv("solver", "max_iters", 50, int)
        self.experiment = str(g("run", "experiment", "run")).strip()
        self.output_dir = str(g("run", "output_dir", "")).strip()
        self.slope_n = conv("run", "slope_n", 5, int)

    def _convert(self, section, key, default, kind):
        """The option converted by ``kind`` (int, float or _floats); a value
        it cannot read raises ConfigurationError naming section and key."""
        raw = self._get(section, key, default)
        try:
            return kind(raw)
        except ValueError:
            raise ConfigurationError(
                f"[{section}] {key}: expected {_EXPECTED[kind]}, got {raw!r}") from None

    def _get(self, section, key, default):
        try:
            if self._p.has_option(section, key):
                return self._p.get(section, key)
        except configparser.Error as exc:
            raise ConfigurationError(f"[{section}] {key}: {exc}") from exc
        return default

    def validate_model(self):
        try:
            grid = SGrid(self.s_min, self.s_max, self.points)
            return KahlerModel(self.n, self.degree, grid)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[model]: {exc}") from exc

    def build_rhs(self, model, epsilon=None):
        eps = self.epsilon if epsilon is None else epsilon
        try:
            if self.rhs_kind == "constant":
                return constant_rhs(model)
            if self.rhs_kind == "dirac":
                return build_dirac_rhs(self.gamma, eps, model)
            if self.rhs_kind == "divisor":
                return build_divisor_rhs(self.delta_prime, eps, model)
        except (ConfigurationError, ConstraintViolationError) as exc:
            raise ConfigurationError(f"[rhs]: {exc}") from exc
        raise ConfigurationError(f"[rhs] kind: unknown family {self.rhs_kind!r}")

    def equation(self) -> EquationKind:
        """The equation at ``t_target``, the one time of every subcommand."""
        try:
            return EquationKind(self.kind, self.t_target)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[equation]: {exc}") from exc

    def solve_config(self) -> SolveConfig:
        try:
            return SolveConfig(newton_tol=self.newton_tol, max_iters=self.max_iters)
        except ConfigurationError as exc:
            raise ConfigurationError(f"[solver]: {exc}") from exc

    def canonical_lines(self) -> list[str]:
        lines = []
        for section in _SECTION_ORDER:
            if not self._p.has_section(section):
                continue
            lines.append(f"[{section}]")
            for key, value in self._p.items(section):
                lines.append(f"{key} = {value}")
        return lines


def load_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigurationError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"{path}: {exc}") from exc
    return RunConfig(parser)


def _outdir(cfg: RunConfig, override: str | None) -> Path:
    root = override or cfg.output_dir or os.environ.get(OUTPUT_ENV, ".")
    path = Path(root)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n")


def _summary_header(cfg: RunConfig, subcommand: str) -> list[str]:
    lines = [f"# radialma {subcommand}", "# config:"]
    lines += [f"#   {line}" for line in cfg.canonical_lines()]
    return lines


def _diag_row(step, param, diag, iters, converged, extra=()) -> str:
    cells = [str(step), fmt(param), fmt(diag.sup_phi), fmt(diag.inf_phi),
             fmt(diag.avg_phi), fmt(diag.lelong.value), fmt(diag.lelong.sensitivity),
             fmt(diag.mass), str(iters), "true" if converged else "false"]
    cells += [fmt(x) for x in extra]
    return ",".join(cells)


def _write_curve(path: Path, s: np.ndarray, values: np.ndarray) -> None:
    _write(path, [f"{fmt(a)} {fmt(b)}" for a, b in zip(s, values)])


def cmd_solve(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.validate_model()
    rhs = cfg.build_rhs(model)
    kind = cfg.equation()
    res = newton_solve(model, rhs, kind, cfg.solve_config())
    d = res.diagnostics
    summary = _summary_header(cfg, "solve")
    summary += [
        f"converged = {fmt(res.converged)}",
        f"iterations = {res.iterations}",
        f"residual_norm = {fmt(res.residual_norm)}",
        f"sup_phi = {fmt(d.sup_phi)}",
        f"inf_phi = {fmt(d.inf_phi)}",
        f"avg_phi = {fmt(d.avg_phi)}",
        f"lelong = {fmt(d.lelong.value)}",
        f"lelong_sensitivity = {fmt(d.lelong.sensitivity)}",
        f"mass = {fmt(d.mass)}",
    ]
    if res.message:
        summary.append(f"message = {res.message}")
    _write(outdir / f"{cfg.experiment}_summary.txt", summary)
    csv = [",".join(DIAG_COLUMNS), _diag_row(0, kind.t, d, res.iterations, res.converged)]
    _write(outdir / f"{cfg.experiment}_diagnostics.csv", csv)
    _write_curve(outdir / f"{cfg.experiment}_potential.dat", model.grid.nodes, res.phi)
    return 0 if res.converged else 1


def _trace_outputs(cfg: RunConfig, outdir: Path, subcommand: str,
                   trace: ContinuityTrace) -> int:
    summary = _summary_header(cfg, subcommand)
    summary += [f"verdict = {trace.verdict}"]
    if trace.t_star is not None:
        summary.append(f"t_star = {fmt(trace.t_star)}")
    if trace.barrier_param is not None:
        summary.append(f"barrier_param = {fmt(trace.barrier_param)}")
    _write(outdir / f"{cfg.experiment}_summary.txt", summary)
    csv = [",".join(DIAG_COLUMNS)]
    for i, rec in enumerate(trace.entries):
        csv.append(_diag_row(i, rec.param, rec.diagnostics, rec.iterations,
                             rec.converged))
    _write(outdir / f"{cfg.experiment}_diagnostics.csv", csv)
    return 1 if trace.verdict == "barrier" else 0


def cmd_continuity(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.validate_model()
    rhs = cfg.build_rhs(model)
    if cfg.kind == "neutral":
        raise ConfigurationError("[equation] kind: continuity needs a time-dependent family")
    trace, res = continuity_in_t(model, rhs, cfg.equation(), cfg.t_target,
                                 cfg.solve_config())
    status = _trace_outputs(cfg, outdir, "continuity", trace)
    _write_curve(outdir / f"{cfg.experiment}_potential.dat", model.grid.nodes, res.phi)
    return status


def cmd_sweep(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.validate_model()
    if not cfg.epsilon_list:
        raise ConfigurationError("[rhs] epsilon_list: sweep needs a decreasing list")
    trace, _ = sweep_epsilon(model, cfg.gamma, cfg.equation(), cfg.t_target,
                             cfg.epsilon_list, cfg.solve_config(),
                             rhs_builder=lambda eps: cfg.build_rhs(model, epsilon=eps))
    return _trace_outputs(cfg, outdir, "sweep", trace)


def cmd_magnify(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.validate_model()
    if not cfg.epsilon_list:
        raise ConfigurationError("[rhs] epsilon_list: magnify needs a decreasing list")
    if cfg.kind != "magnifying":
        raise ConfigurationError("[equation] kind: magnify solves the magnifying family")
    if cfg.rhs_kind != "dirac":
        raise ConfigurationError("[rhs] kind: magnify solves the dirac family")
    report = magnification_experiment(model, cfg.gamma, cfg.t_target, cfg.epsilon_list,
                                      cfg.solve_config())
    summary = _summary_header(cfg, "magnify")
    summary += [f"verdict = {report.verdict}", f"eta = {fmt(report.eta)}"]
    if report.eta_warning:
        summary.append(f"warning = {report.eta_warning}")
    _write(outdir / f"{cfg.experiment}_summary.txt", summary)
    csv = [",".join(MAGNIFY_COLUMNS)]
    for i, r in enumerate(report.rows):
        csv.append(_diag_row(i, r.eps, r.diagnostics, r.iterations, r.converged,
                             extra=(r.nu_measured, r.nu_bootstrap)))
    _write(outdir / f"{cfg.experiment}_magnification.csv", csv)
    return 0 if report.verdict != "barrier" else 1


def cmd_multiplier(cfg: RunConfig, outdir: Path) -> int:
    model = cfg.validate_model()
    if not cfg.epsilon_list:
        raise ConfigurationError("[rhs] epsilon_list: multiplier needs a decreasing list")
    tau0 = cfg.t_target
    if not (0.0 < tau0 < 1.0):
        raise ConfigurationError("[equation] t_target: multiplier needs 0 < t < 1")
    kind = cfg.equation()
    # each member's RHS is built once, for the solve, the stalk and eta
    build = functools.cache(lambda eps: cfg.build_rhs(model, epsilon=eps))
    trace, results = sweep_epsilon(model, cfg.gamma, kind, tau0, cfg.epsilon_list,
                                   cfg.solve_config(), rhs_builder=build)
    entries = [(res.phi, tau0, build(eps))
               for eps, res in zip(cfg.epsilon_list, results) if res.converged]
    if not entries:
        _write(outdir / f"{cfg.experiment}_summary.txt",
               _summary_header(cfg, "multiplier") + ["verdict = barrier",
                                                     "error = no converged members"])
        return 1
    stalk = stalk_from_sequence(PotentialSequence(model, tuple(entries)))
    eta = check_lower_bound(build(cfg.epsilon_list[0])).eta
    report = trivial_lemma_report(stalk, eta)
    summary = _summary_header(cfg, "multiplier")
    summary += [
        f"verdict = {trace.verdict}",
        f"k_min = {stalk.k_min}",
        f"nontrivial = {fmt(stalk.nontrivial)}",
        f"equals_maximal_ideal = {fmt(stalk.equals_maximal_ideal)}",
        f"tau_nu_product = {fmt(stalk.tau_nu_product)}",
        f"eta = {fmt(eta)}",
        f"hypothesis_nontrivial = {fmt(report.nontrivial_ok)}",
        f"hypothesis_curvature_bound = {fmt(report.curvature_bound_ok)}",
        f"hypothesis_not_maximal_ideal = {fmt(report.not_maximal_ideal_ok)}",
        f"conclusion = {report.conclusion}",
    ]
    summary += [f"note = {note}" for note in report.notes]
    _write(outdir / f"{cfg.experiment}_summary.txt", summary)
    return 1 if trace.verdict == "barrier" else 0


def cmd_slope(cfg: RunConfig, outdir: Path) -> int:
    n = cfg.slope_n
    ambient = tangent_on_line(n)
    summary = _summary_header(cfg, "slope")
    lines = [f"n = {n}",
             f"ambient_slope = {normalized_slope(ambient)}",
             f"sub_slope = {normalized_slope(line_tangent())}"]
    if n >= 2:
        lines.append(f"destabilizes = {fmt(destabilizes(line_tangent(), ambient))}")
    else:
        lines.append("destabilizes = undefined (no proper subbundle)")
    _write(outdir / f"{cfg.experiment}_summary.txt", summary + lines)
    for line in lines:
        print(line)
    return 0


def cmd_verify(cfg: RunConfig, outdir: Path) -> int:
    """Fast built-in cross-checks; one pass/fail line per check."""
    checks: list[tuple[str, bool, str]] = []
    model = cfg.validate_model()

    rhs1 = constant_rhs(model)
    res = newton_solve(model, rhs1, EquationKind("magnifying", 0.5), cfg.solve_config())
    sup = float(np.max(np.abs(res.phi)))
    checks.append(("fixed_point_magnifying", res.converged and sup <= 1e-9,
                   f"sup|phi| = {fmt(sup)}"))

    # composite Simpson in x = log r over [log a - 40, log 50]; the cut-off
    # below carries mass ~ e^{-80}
    panels = 4000
    simpson = np.ones(panels + 1)
    simpson[1:-1:2], simpson[2:-1:2] = 4.0, 2.0
    ok = True
    worst = 0.0
    for a in (1.0, 0.1, 0.01):
        x = np.linspace(np.log(a) - 40.0, np.log(50.0), panels + 1)
        r2 = np.exp(2.0 * x)
        val = (x[1] - x[0]) / 3.0 * float(simpson @ (dirac_density(a, r2) * 2 * np.pi * r2))
        tail = a * a / (50.0**2 + a * a)
        worst = max(worst, abs(val + tail - 1.0))
        ok = ok and abs(val + tail - 1.0) <= 1e-6
    checks.append(("dirac_unit_mass", ok, f"max deviation = {fmt(worst)}"))

    eta = check_lower_bound(constant_rhs(KahlerModel(model.n, model.n + 1.0,
                                                     model.grid))).eta
    checks.append(("anticanonical_margin", abs(eta - (model.n + 1)) <= 1e-6,
                   f"eta = {fmt(eta)}"))

    gam = min(1.0, model.degree)
    rhs = build_dirac_rhs(gam, 1e-3, model)
    neutral = newton_solve(model, rhs, EquationKind("neutral"), cfg.solve_config())
    checks.append(("neutral_residual", neutral.converged,
                   f"sup residual = {fmt(neutral.residual_norm)}"))

    ok = destabilizes(line_tangent(), tangent_on_line(5))
    checks.append(("slope_example", ok and normalized_slope(tangent_on_line(5)) ==
                   Fraction(6, 5), "2 > 6/5"))

    lines = _summary_header(cfg, "verify")
    failed = 0
    for name, passed, detail in checks:
        status = "PASS" if passed else "FAIL"
        failed += 0 if passed else 1
        line = f"{status} {name}: {detail}"
        lines.append(line)
        print(line)
    _write(outdir / f"{cfg.experiment}_summary.txt", lines)
    return 0 if failed == 0 else 1


_COMMANDS = {
    "solve": cmd_solve,
    "continuity": cmd_continuity,
    "sweep": cmd_sweep,
    "magnify": cmd_magnify,
    "multiplier": cmd_multiplier,
    "verify": cmd_verify,
    "slope": cmd_slope,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="radialma",
        description="Radial Monge-Ampere lab: solves, sweeps, amplification and "
                    "multiplier experiments")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="INI-style run configuration")
    parser.add_argument("--out", default=None,
                        help=f"output directory (default: [run] output_dir, then ${OUTPUT_ENV})")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = _outdir(cfg, args.out)
        return _COMMANDS[args.subcommand](cfg, outdir)
    except (ConfigurationError, ConstraintViolationError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
