"""Command-line driver for the lab experiments.

Configs are INI-style ``key = value`` files with bracketed sections; an
unknown section or key is an invalid configuration, so a misspelt key
cannot fall back to its default unnoticed. A known key that a subcommand
does not read, such as ``[rhs] epsilon_list`` on ``solve``, is accepted,
so one config serves every subcommand. Every run echoes
its canonicalised config into the summary header so a run can be
reproduced byte-for-byte from its own output. Numeric output is serialised
with 17 significant digits. Exit status: 0 success, 1 solver barrier or
non-convergence (outputs still written), 2 invalid configuration.

Output takes one path. A subcommand ``cmd_*`` only computes: it takes the
validated config and returns ``(status, summary, files)``, that is its exit
status, its ``key = value`` summary lines and its other output files as
lines by suffix. ``main`` writes them all: ``<experiment>_summary.txt`` (the
config-echo header, then the summary lines), each ``<experiment>_<suffix>``
and, for ``slope`` and ``verify``, the summary lines to stdout. A subcommand
that raises writes nothing, not even the output directory; an output that
cannot be written exits 2 and leaves no file or directory it made. ``main``
records every warning a subcommand raises (each ``UserWarning``, whatever
the filters) and appends each distinct message once, in order, as a
``warning = `` summary line: the summary is its one report.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import numbers
import shutil
import sys
import warnings
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import ConfigurationError, require_open_unit

# each subcommand imports what it runs, so a cold request loads no module it
# does not need and ``slope`` loads no numpy
if TYPE_CHECKING:
    import numpy as np

    from .grid import KahlerModel
    from .solver import EquationKind, SolveConfig

DIAG_COLUMNS = ("step", "param", "sup_phi", "inf_phi", "avg_phi", "lelong",
                "lelong_sensitivity", "mass", "newton_iters", "converged")
MAGNIFY_COLUMNS = DIAG_COLUMNS + ("nu_measured", "nu_bootstrap")

# the keys RunConfig reads, by section, in the order the summary echoes
# them; [equation] t and t_target name one time, equal when both are given
_KEYS = {"model": ("n", "degree", "s_min", "s_max", "points"),
         "equation": ("kind", "t", "t_target"),
         "rhs": ("kind", "gamma", "epsilon", "delta_prime", "epsilon_list"),
         "solver": ("newton_tol", "max_iters"),
         "run": ("experiment", "output_dir", "slope_n")}

# what a subcommand returns: exit status, summary lines, other files by suffix
_Result = tuple[int, list[str], dict[str, list[str]]]


def fmt(x) -> str:
    """Serialise a number with 17 significant digits (lossless doubles)."""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, numbers.Integral):
        return str(int(x))
    return f"{float(x):.17g}"


def _floats(text) -> list[float]:
    """A comma-separated list of numbers; empty entries are skipped."""
    return [float(tok) for tok in str(text).split(",") if tok.strip()]


_EXPECTED = {int: "an integer", float: "a number",
             _floats: "a comma-separated list of numbers"}


def _in_section(where, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ConfigurationError it raises is
    re-raised naming ``where``, a ``[section]`` or ``[section] key``."""
    try:
        return build(*args, **kwargs)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{where}: {exc}") from exc


class RunConfig:
    """Validated run parameters; raises ConfigurationError with the
    section.key location on any bad field, and on any section or key it
    does not read."""

    def __init__(self, parser: configparser.ConfigParser):
        if parser.defaults():
            raise ConfigurationError(f"[{parser.default_section}]: unknown section")
        for section in parser.sections():
            if section not in _KEYS:
                raise ConfigurationError(f"[{section}]: unknown section")
            for key in parser.options(section):
                if key not in _KEYS[section]:
                    raise ConfigurationError(f"[{section}] {key}: unknown key")
        self._p = parser
        g, conv = self._get, self._convert
        self.n = conv("model", "n", 1, int)
        self.degree = conv("model", "degree", 2.0, float)
        self.s_min = conv("model", "s_min", -40.0, float)
        self.s_max = conv("model", "s_max", 40.0, float)
        self.points = conv("model", "points", 4001, int)
        self.kind = str(g("equation", "kind", "magnifying")).strip()
        t = conv("equation", "t", 0.0, float)
        self.t_target = conv("equation", "t_target", t, float)
        if parser.has_option("equation", "t") and parser.has_option("equation", "t_target") \
                and t != self.t_target:
            raise ConfigurationError(
                f"[equation] t: {t!r} differs from [equation] t_target = {self.t_target!r}")
        self.rhs_kind = str(g("rhs", "kind", "constant")).strip()
        self.gamma = conv("rhs", "gamma", 0.0, float)
        self.epsilon = conv("rhs", "epsilon", 1e-3, float)
        self.delta_prime = conv("rhs", "delta_prime", 0.0, float)
        self.epsilon_list = conv("rhs", "epsilon_list", "", _floats)
        self.newton_tol = conv("solver", "newton_tol", 1e-10, float)
        self.max_iters = conv("solver", "max_iters", 50, int)
        # the experiment names files inside the output directory
        name = self.experiment = str(g("run", "experiment", "run")).strip()
        if not name or "\0" in name or Path(name).name != name:
            raise ConfigurationError(f"[run] experiment: expected a file name, got {name!r}")
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
        from .grid import KahlerModel, SGrid
        grid = _in_section("[model]", SGrid, self.s_min, self.s_max, self.points)
        return _in_section("[model]", KahlerModel, self.n, self.degree, grid)

    def build_rhs(self, model, epsilon=None):
        from .rhs import build_dirac_rhs, build_divisor_rhs, constant_rhs
        eps = self.epsilon if epsilon is None else epsilon
        if self.rhs_kind == "constant":
            return _in_section("[rhs]", constant_rhs, model)
        if self.rhs_kind == "dirac":
            return _in_section("[rhs]", build_dirac_rhs, self.gamma, eps, model)
        if self.rhs_kind == "divisor":
            return _in_section("[rhs]", build_divisor_rhs, self.delta_prime, eps, model)
        raise ConfigurationError(f"[rhs] kind: unknown family {self.rhs_kind!r}")

    def equation(self) -> EquationKind:
        """The equation at ``t_target``, the one time of every subcommand."""
        from .solver import EquationKind
        return _in_section("[equation]", EquationKind, self.kind, self.t_target)

    def solve_config(self) -> SolveConfig:
        from .solver import SolveConfig
        return _in_section("[solver]", SolveConfig, newton_tol=self.newton_tol,
                           max_iters=self.max_iters)

    def eps_list(self) -> list[float]:
        """``epsilon_list`` as a mollifier list (``solver._eps_values``)."""
        from .solver import _eps_values
        return _in_section("[rhs] epsilon_list", _eps_values, self.epsilon_list)

    def open_time(self) -> float:
        """``t_target``, required in (0, 1) (``require_open_unit``)."""
        _in_section("[equation]", require_open_unit, t_target=self.t_target)
        return self.t_target

    def canonical_lines(self) -> list[str]:
        lines = []
        for section in _KEYS:
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


def _summary_header(cfg: RunConfig, subcommand: str) -> list[str]:
    lines = [f"# radialma {subcommand}", "# config:"]
    lines += [f"#   {line}" for line in cfg.canonical_lines()]
    return lines


def _fields(**values) -> list[str]:
    """``key = value`` summary lines: a string as it is, a number through
    ``fmt``; a None value writes no line."""
    return [f"{key} = {v if isinstance(v, str) else fmt(v)}"
            for key, v in values.items() if v is not None]


def _table(columns, records, *extra_columns) -> list[str]:
    """A diagnostics CSV: the header, then one row per record, followed by
    its cell of each of ``extra_columns``."""
    lines = [",".join(columns)]
    for step, (rec, *extra) in enumerate(zip(records, *extra_columns)):
        d = rec.diagnostics
        lines.append(",".join(map(fmt, (step, rec.param, d.sup_phi, d.inf_phi, d.avg_phi,
                                        d.lelong.value, d.lelong.sensitivity, d.mass,
                                        rec.iterations, rec.converged, *extra))))
    return lines


def _curve(s: np.ndarray, values: np.ndarray) -> list[str]:
    """Two columns written as ``fmt`` writes a float, one line per node."""
    return list(map("%.17g %.17g".__mod__, zip(s.tolist(), values.tolist())))


def cmd_solve(cfg: RunConfig) -> _Result:
    from .solver import StepRecord, newton_solve
    model = cfg.validate_model()
    rhs = cfg.build_rhs(model)
    kind = cfg.equation()
    res = newton_solve(model, rhs, kind, cfg.solve_config())
    d = res.diagnostics
    summary = _fields(converged=res.converged, iterations=res.iterations,
                      residual_norm=res.residual_norm, sup_phi=d.sup_phi,
                      inf_phi=d.inf_phi, avg_phi=d.avg_phi, lelong=d.lelong.value,
                      lelong_sensitivity=d.lelong.sensitivity, mass=d.mass,
                      message=res.message or None)
    files = {"diagnostics.csv": _table(DIAG_COLUMNS, [StepRecord.of(kind.t, res)]),
             "potential.dat": _curve(model.grid.nodes, res.phi)}
    return (0 if res.converged else 1), summary, files


def _trace_result(trace, barrier_key: str) -> _Result:
    """The verdict, ``t_star`` written as ``barrier_key`` and the records."""
    summary = _fields(verdict=trace.verdict, **{barrier_key: trace.t_star})
    status = 1 if trace.verdict == "barrier" else 0
    return status, summary, {"diagnostics.csv": _table(DIAG_COLUMNS, trace.entries)}


def cmd_continuity(cfg: RunConfig) -> _Result:
    from .solver import continuity_in_t
    model = cfg.validate_model()
    rhs = cfg.build_rhs(model)
    t_target = cfg.open_time()
    kind, config = cfg.equation(), cfg.solve_config()
    trace, res = _in_section("[equation]", continuity_in_t, model, rhs, kind, t_target, config)
    status, summary, files = _trace_result(trace, "t_star")
    files["potential.dat"] = _curve(model.grid.nodes, res.phi)
    return status, summary, files


def cmd_sweep(cfg: RunConfig) -> _Result:
    from .solver import sweep_epsilon
    model = cfg.validate_model()
    eps_list = cfg.eps_list()
    trace, _ = sweep_epsilon(model, cfg.gamma, cfg.equation(), cfg.t_target,
                             eps_list, cfg.solve_config(),
                             rhs_builder=lambda eps: cfg.build_rhs(model, epsilon=eps))
    return _trace_result(trace, "barrier_param")


def cmd_magnify(cfg: RunConfig) -> _Result:
    from .comparison import magnification_experiment
    model = cfg.validate_model()
    eps_list = cfg.eps_list()
    if cfg.kind != "magnifying":
        raise ConfigurationError("[equation] kind: magnify solves the magnifying family")
    if cfg.rhs_kind != "dirac":
        raise ConfigurationError("[rhs] kind: magnify solves the dirac family")
    tau0, config = cfg.open_time(), cfg.solve_config()
    # past the gates above, the one error left is a member build's
    report = _in_section("[rhs]", magnification_experiment, model, cfg.gamma, tau0,
                         eps_list, config)
    summary = _fields(verdict=report.verdict, eta=report.eta)
    rows = report.rows
    table = _table(MAGNIFY_COLUMNS, [r.record for r in rows],
                   [r.nu_measured for r in rows], [r.nu_bootstrap for r in rows])
    status = 0 if report.verdict != "barrier" else 1
    return status, summary, {"magnification.csv": table}


def cmd_multiplier(cfg: RunConfig) -> _Result:
    from .multiplier import (PotentialSequence, _require_pole_side, stalk_from_sequence,
                             trivial_lemma_report)
    from .rhs import check_lower_bound
    from .solver import sweep_epsilon
    model = cfg.validate_model()
    _in_section("[model]", _require_pole_side, model.grid)
    eps_list = cfg.eps_list()
    tau0 = cfg.open_time()
    trace, results = sweep_epsilon(
        model, cfg.gamma, cfg.equation(), tau0, eps_list, cfg.solve_config(),
        rhs_builder=lambda eps: cfg.build_rhs(model, epsilon=eps))
    entries = [(res.phi, tau0, res.rhs) for res in results if res.converged]
    if not entries:
        return 1, _fields(verdict="barrier", error="no converged members"), {}
    stalk = stalk_from_sequence(PotentialSequence(model, tuple(entries)))
    eta = check_lower_bound(results[0].rhs).eta
    report = trivial_lemma_report(stalk, eta)
    summary = _fields(
        verdict=trace.verdict, k_min=stalk.k_min, nontrivial=stalk.nontrivial,
        equals_maximal_ideal=stalk.equals_maximal_ideal,
        tau_nu_product=stalk.tau_nu_product, eta=eta,
        hypothesis_nontrivial=report.nontrivial_ok,
        hypothesis_curvature_bound=report.curvature_bound_ok,
        hypothesis_not_maximal_ideal=report.not_maximal_ideal_ok,
        conclusion=report.conclusion)
    summary += [f"note = {note}" for note in report.notes]
    return (1 if trace.verdict == "barrier" else 0), summary, {}


def cmd_slope(cfg: RunConfig) -> _Result:
    from .slopes import destabilizes, line_tangent, normalized_slope, tangent_on_line
    n = cfg.slope_n
    ambient = _in_section("[run] slope_n", tangent_on_line, n)
    summary = _fields(n=n, ambient_slope=str(normalized_slope(ambient)),
                      sub_slope=str(normalized_slope(line_tangent())),
                      destabilizes=destabilizes(line_tangent(), ambient) if n >= 2
                      else "undefined (no proper subbundle)")
    return 0, summary, {}


def cmd_verify(cfg: RunConfig) -> _Result:
    """Fast built-in cross-checks; one pass/fail line per check. Every
    check is built from ``[model]``, so an error one raises names it."""
    model = cfg.validate_model()
    checks = _in_section("[model]", _verify_checks, model, cfg.solve_config())
    lines = [f"{'PASS' if passed else 'FAIL'} {name}: {detail}"
             for name, passed, detail in checks]
    return (0 if all(passed for _, passed, _ in checks) else 1), lines, {}


def _verify_checks(model: KahlerModel, solve: SolveConfig) -> list[tuple[str, bool, str]]:
    """``verify``'s checks on ``model``: (name, passed, detail) each."""
    from fractions import Fraction

    import numpy as np

    from .grid import rounding_floor
    from .rhs import build_dirac_rhs, check_lower_bound, constant_rhs
    from .slopes import destabilizes, line_tangent, normalized_slope, tangent_on_line
    from .solver import EquationKind, map_rounding, newton_solve
    checks: list[tuple[str, bool, str]] = []
    rhs1 = constant_rhs(model)
    res = newton_solve(model, rhs1, EquationKind("magnifying", 0.5), solve)
    sup = float(np.max(np.abs(res.phi)))
    # phi = 0 is the fixed point, read to the rounding of the map's image
    checks.append(("fixed_point_magnifying",
                   res.converged and sup <= max(1e-9, map_rounding(model)),
                   f"sup|phi| = {fmt(sup)}"))

    # F = 1 has log-curvature (n + 1) (sigma, sigma (1 - sigma)) for every d
    eta = check_lower_bound(rhs1).eta
    checks.append(("anticanonical_margin", abs(eta - (model.n + 1)) <= 1e-6,
                   f"eta = {fmt(eta)}"))

    gam = min(1.0, model.degree)
    rhs = build_dirac_rhs(gam, 1e-3, model)
    neutral = newton_solve(model, rhs, EquationKind("neutral"), solve)
    # the rows' rounding: slope powers up to W^n (W psi's last slope), phi's times W^(n-1)
    W, h, n = float(model.psi_slopes[-1]), model.grid.h, model.n
    limit = max(solve.newton_tol, 16.0 * np.finfo(float).eps * W**n / h
                + rounding_floor(neutral.phi, h) * max(1.0, W ** (n - 1)))
    checks.append(("neutral_residual", neutral.converged and neutral.residual_norm <= limit,
                   f"sup residual = {fmt(neutral.residual_norm)}"))

    ok = destabilizes(line_tangent(), tangent_on_line(5))
    checks.append(("slope_example", ok and normalized_slope(tangent_on_line(5)) ==
                   Fraction(6, 5), "2 > 6/5"))
    return checks


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
                        help="output directory (default: [run] output_dir, then .)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        outdir = Path(args.out or cfg.output_dir or ".")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", UserWarning)
            status, summary, files = _COMMANDS[args.subcommand](cfg)
        summary += [f"warning = {note}"
                    for note in dict.fromkeys(str(w.message) for w in caught)]
        files = {"summary.txt": _summary_header(cfg, args.subcommand) + summary, **files}
        _write(outdir, cfg.experiment, files)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.subcommand in ("slope", "verify"):
        print("\n".join(summary))
    return status


def _write(outdir: Path, experiment: str, files: dict[str, list[str]]) -> None:
    """Write each file as ``<experiment>_<suffix>`` in ``outdir``; an OSError
    removes what this call made and raises ConfigurationError."""
    made = [p for p in (outdir, *outdir.parents) if not p.exists()]
    written: list[Path] = []
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        for suffix, lines in files.items():
            written.append(outdir / f"{experiment}_{suffix}")
            written[-1].write_text("\n".join(lines) + "\n")
    except OSError as exc:
        for path in written:
            with contextlib.suppress(OSError):
                path.unlink()
        if made:
            shutil.rmtree(made[-1], ignore_errors=True)
        raise ConfigurationError(
            f"cannot write {exc.filename or outdir}: {exc.strerror or exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
