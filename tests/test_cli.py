"""CLI subcommands, config validation, deterministic output, the README examples."""

import ast
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import radialma.solver
from radialma import DEFAULT_GRID, CurvatureMarginWarning, SolveConfig, cli
from radialma.cli import load_config, main

README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = ["solve", "continuity", "sweep", "magnify", "multiplier", "verify", "slope"]


BASE = """\
[model]
n = 1
degree = 2.0
s_min = -40.0
s_max = 40.0
points = 2001

[equation]
kind = {kind}
t = {t}
t_target = {t_target}

[rhs]
kind = {rhs_kind}
gamma = {gamma}
epsilon = 1e-3
epsilon_list = {eps_list}

[solver]
newton_tol = 1e-10
max_iters = 50

[run]
experiment = {name}
"""


def write_config(tmp_path, extra="", **kw):
    """BASE with its fields replaced by ``kw`` and ``extra`` lines appended
    to its ``[run]`` section; ``t`` follows ``t_target`` unless given."""
    defaults = dict(kind="magnifying", t_target="0.5", rhs_kind="constant",
                    gamma="0.0", eps_list="", name="t")
    defaults.update(kw)
    defaults.setdefault("t", defaults["t_target"])
    path = tmp_path / "run.ini"
    path.write_text(BASE.format(**defaults) + extra)
    return str(path)


class TestSolve:
    def test_unit_rhs_fixed_point(self, tmp_path):
        cfg = write_config(tmp_path, name="fp")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "fp_summary.txt").read_text()
        sup = float([l for l in summary.splitlines() if l.startswith("sup_phi")][0]
                    .split("=")[1])
        assert abs(sup) <= 1e-9
        csv = (tmp_path / "fp_diagnostics.csv").read_text().splitlines()
        assert csv[0] == ("step,param,sup_phi,inf_phi,avg_phi,lelong,"
                          "lelong_sensitivity,mass,newton_iters,converged")
        assert (tmp_path / "fp_potential.dat").exists()

    def test_t_target_alone_sets_the_time(self, tmp_path):
        # the README's config names only t_target; solve must not fall back
        # to the t = 0 quadrature
        path = Path(write_config(tmp_path, rhs_kind="dirac", gamma="1.8",
                                 t_target="0.2", name="tt"))
        path.write_text("\n".join(line for line in path.read_text().splitlines()
                                  if not line.startswith("t = ")) + "\n")
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
        row = (tmp_path / "tt_diagnostics.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 0.2
        assert int(row[8]) >= 1

    @pytest.mark.parametrize("t,message", [
        ("0.9", "[equation] t: 0.9 differs from [equation] t_target = 0.2"),
        ("banana", "[equation] t: expected a number, got 'banana'"),
    ])
    def test_t_must_agree_with_t_target(self, tmp_path, capsys, t, message):
        # both keys name the one time: a second value is not silently dropped
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t=t,
                           t_target="0.2", name="tt")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        assert not (tmp_path / "tt_summary.txt").exists()

    def test_equal_t_and_t_target_solve_there(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t="0.20",
                           t_target="0.2", name="tt")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        row = (tmp_path / "tt_diagnostics.csv").read_text().splitlines()[1].split(",")
        assert float(row[1]) == 0.2

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t="1.5", t_target="1.5")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[equation]" in err

    @pytest.mark.parametrize("old,new,where", [
        ("max_iters = 50", "max_iters = 2.5", "[solver] max_iters"),
        ("n = 1", "n = two", "[model] n"),
        ("newton_tol = 1e-10", "newton_tol = inf", "newton_tol"),
        ("epsilon_list = ", "epsilon_list = 1e-1,x", "[rhs] epsilon_list"),
        # a nan or an infinite parameter passes every sign check of a builder
        ("gamma = 1.0", "gamma = nan", "[rhs]: gamma must be finite"),
        ("epsilon = 1e-3", "epsilon = inf", "[rhs]: eps must be finite"),
        ("degree = 2.0", "degree = inf", "[model]: degree must be finite, got inf"),
        ("kind = dirac", "kind = foo", "[rhs] kind: unknown family 'foo'"),
        ("gamma = 1.0", "gamma = 5%", "[rhs] gamma: "),
        # a file configparser cannot read is named by its path
        ("n = 1\n", "n = 1\nmagnify\n", "run.ini: "),
        ("[run]\n", "[model]\nn = 2\n\n[run]\n", "run.ini: "),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, old, new, where):
        # a malformed value is an invalid configuration (exit 2), not a
        # traceback (exit 1, reserved for a barrier); newton_tol = inf
        # reported converged = true with residual 185.66
        path = Path(write_config(tmp_path, rhs_kind="dirac", gamma="1.0", name="bad"))
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and where in err
        assert not (tmp_path / "bad_summary.txt").exists()

    def test_overflowing_level_is_a_failed_solve(self, tmp_path, capsys):
        # t = 5e-324 is a valid time: the solve fails (exit 1) and writes its
        # outputs, instead of reporting a configuration error (exit 2)
        cfg = write_config(tmp_path, t="5e-324", t_target="5e-324", rhs_kind="dirac",
                           gamma="1.8", name="tiny")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 1
        assert "configuration error" not in capsys.readouterr().err
        summary = (tmp_path / "tiny_summary.txt").read_text()
        assert "converged = false" in summary
        assert "message = fixed-point map produced non-finite values" in summary
        assert (tmp_path / "tiny_diagnostics.csv").exists()
        assert (tmp_path / "tiny_potential.dat").exists()

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2

    def test_neutral_time_outside_the_unit_interval_exits_2(self, tmp_path, capsys):
        # the neutral factor reads no t, but its t lies in [0, 1) as every
        # kind's does; t = 7 was solved and written as param 7
        cfg = write_config(tmp_path, kind="neutral", t_target="7", name="nt")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [equation]: t must lie in [0, 1), got 7.0\n")
        assert not (tmp_path / "nt_summary.txt").exists()

    def test_volume_average_holds_at_the_largest_degrees(self, tmp_path):
        # phi's rounding grows with d; the average's weights carry no d^n, so
        # it stays finite and between phi's extrema below the mass overflow
        path = Path(write_config(tmp_path, kind="neutral", t_target="0", name="big"))
        path.write_text(path.read_text().replace("degree = 2.0", "degree = 1e200"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path)]) == 0
        fields = dict(line.split(" = ", 1) for line in summary_body(tmp_path / "big_summary.txt"))
        sup, inf, avg = (float(fields[k]) for k in ("sup_phi", "inf_phi", "avg_phi"))
        assert math.isfinite(avg) and inf <= avg <= sup


class TestSweep:
    def test_magnifying_sweep_rows_and_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t="0.2",
                           t_target="0.2", eps_list="1e-1,1e-2,1e-3,1e-4",
                           name="sw")
        status = main(["sweep", "--config", cfg, "--out", str(tmp_path)])
        lines = (tmp_path / "sw_diagnostics.csv").read_text().splitlines()
        assert len(lines) == 5
        avg = [float(l.split(",")[4]) for l in lines[1:]]
        assert all(b > a for a, b in zip(avg, avg[1:]))
        assert status in (0, 1)

    def test_sweep_without_list_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_time_zero_members_are_quadratures(self, tmp_path):
        # the default t_target = 0: every member is the rate-0 quadrature
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t="0.0",
                           t_target="0.0", eps_list="1e-1,1e-2,1e-3", name="s0")
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "s0_diagnostics.csv").read_text().splitlines()[1:]
        assert [row.split(",")[-2:] for row in rows] == [["0", "true"]] * 3


class TestMagnify:
    def test_table_written(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.5", t="0.2",
                           t_target="0.2", eps_list="1e-2,1e-3", name="mag")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning escapes main
            status = main(["magnify", "--config", cfg, "--out", str(tmp_path)])
        assert status in (0, 1)
        # the curvature-margin warning is reported in the summary alone
        warning = [line for line in summary_body(tmp_path / "mag_summary.txt")
                   if line.startswith("warning = ")]
        assert warning == ["warning = tau0 = 0.2 is not below the curvature margin "
                           "eta = 0; proceeding as an experimental probe"]
        lines = (tmp_path / "mag_magnification.csv").read_text().splitlines()
        assert lines[0] == ("step,param,sup_phi,inf_phi,avg_phi,lelong,"
                            "lelong_sensitivity,mass,newton_iters,converged,"
                            "nu_measured,nu_bootstrap")
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            # measured pole slope at least the secant reading and the bound
            assert float(cells[10]) >= float(cells[11]) * 0.98

    def test_every_warning_is_one_summary_line(self, tmp_path, capsys):
        # gamma = d warns in every build: the up-front build and each
        # member's. Each distinct message is one trailing summary line, the
        # curvature-margin warning among them, and none escapes main
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="2.0", t="0.2",
                           t_target="0.2", eps_list="1e-1,1e-2", name="mag")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["magnify", "--config", cfg, "--out", str(tmp_path)])
        assert capsys.readouterr().err == ""
        warning = [line for line in summary_body(tmp_path / "mag_summary.txt")
                   if line.startswith("warning = ")]
        assert warning == [
            "warning = pole mass equals the model mass; the smooth part of F degenerates",
            "warning = tau0 = 0.2 is not below the curvature margin eta = 0.02; "
            "proceeding as an experimental probe"]

    def test_reducing_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path, kind="reducing", rhs_kind="dirac", gamma="1.8",
                           t="0.3", t_target="0.3", eps_list="1e-1,1e-2", name="mag")
        assert main(["magnify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "mag_magnification.csv").exists()

    def test_divisor_rhs_rejected(self, tmp_path):
        # magnify builds the dirac family from gamma; any other [rhs] kind
        # would be silently replaced
        cfg = write_config(tmp_path, rhs_kind="divisor", t="0.2", t_target="0.2",
                           eps_list="1e-1,1e-2", name="mag")
        assert main(["magnify", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "mag_magnification.csv").exists()


class TestContinuity:
    def test_trace_written(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", t="0.3",
                           t_target="0.3", name="ct")
        assert main(["continuity", "--config", cfg, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "ct_summary.txt").read_text()
        assert "verdict = reached_target" in summary
        lines = (tmp_path / "ct_diagnostics.csv").read_text().splitlines()
        params = [float(l.split(",")[1]) for l in lines[1:]]
        assert params[0] == 0.0 and params[-1] == pytest.approx(0.3)
        assert params == sorted(params)

    def test_neutral_kind_rejected(self, tmp_path):
        cfg = write_config(tmp_path, kind="neutral", t="0.0", t_target="0.0")
        assert main(["continuity", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestMultiplier:
    def test_stalk_report(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t="0.6",
                           t_target="0.6", eps_list="1e-2,1e-3", name="mu")
        status = main(["multiplier", "--config", cfg, "--out", str(tmp_path)])
        assert status == 0
        summary = (tmp_path / "mu_summary.txt").read_text()
        # a recorded blow-up verdict still exits 0
        assert "verdict = average_blowup" in summary
        # pole slope saturates at the model mass 2, so tau*nu -> 1.2 > n = 1:
        # a nontrivial stalk at the maximal-ideal caveat, curvature bound
        # honestly failed for the point-mass family
        assert "k_min = 1" in summary
        assert "equals_maximal_ideal = true" in summary
        assert "hypothesis_curvature_bound = false" in summary
        assert "conclusion = deferred" in summary

    def test_one_pole_reading_for_magnify_and_multiplier(self, tmp_path):
        # the magnify table and the stalk read one secant: nu_measured is the
        # lelong column, and tau_nu_product is t_target times its largest
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.8", t_target="0.2",
                           eps_list="1e-1,1e-2,1e-3", name="one")
        assert main(["magnify", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert main(["multiplier", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, *rows = (tmp_path / "one_magnification.csv").read_text().splitlines()
        columns = header.split(",")
        cells = [dict(zip(columns, row.split(","))) for row in rows]
        assert len(cells) == 3 and all(c["converged"] == "true" for c in cells)
        assert [c["nu_measured"] for c in cells] == [c["lelong"] for c in cells]
        product = [line for line in summary_body(tmp_path / "one_summary.txt")
                   if line.startswith("tau_nu_product = ")]
        assert product == [f"tau_nu_product = "
                           f"{0.2 * max(float(c['nu_measured']) for c in cells):.17g}"]

    def test_stalk_past_order_24(self, tmp_path, capsys):
        # neutral members of the README family at d = 40: tau nu is about
        # 0.9 * 36 = 32.8, so the least integrable order is 32, with no cap
        cfg = Path(readme_config(tmp_path, degree="40", t_target="0.9", gamma="36"))
        kind_line = "kind = magnifying          ; reducing | neutral | magnifying"
        assert cfg.read_text().count(kind_line) == 1
        cfg.write_text(cfg.read_text().replace(kind_line, "kind = neutral"))
        out = tmp_path / "out"
        assert main(["multiplier", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        body = summary_body(out / "demo_summary.txt")
        product = float(next(l for l in body if l.startswith("tau_nu_product = "))
                        .split("=")[1])
        assert "k_min = 32" in body and 32 < product < 33

    def test_eta_agrees_with_magnify(self, tmp_path):
        # at gamma = 0 both read the margin of the first member, the constant
        # family, which is n + 1 only up to rounding at n = 2
        cfg = Path(write_config(tmp_path, rhs_kind="dirac", gamma="0.0", t="0.3",
                                t_target="0.3", eps_list="1e-1,1e-2", name="eta"))
        cfg.write_text(cfg.read_text().replace("n = 1\ndegree = 2.0", "n = 2\ndegree = 3.0"))
        eta = []
        for subcommand in ("magnify", "multiplier"):
            out = tmp_path / subcommand
            assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 0
            eta += [line for line in summary_body(out / "eta_summary.txt")
                    if line.startswith("eta = ")]
        assert len(eta) == 2 and eta[0] == eta[1]


class TestSlope:
    def test_example_row(self, tmp_path, capsys):
        cfg = write_config(tmp_path, name="sl") + ""
        with open(cfg, "a") as fh:
            fh.write("slope_n = 5\n")
        assert main(["slope", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "ambient_slope = 6/5" in out
        assert "sub_slope = 2" in out
        assert "destabilizes = true" in out

    @pytest.mark.parametrize("n", [10**4, 10**12])
    def test_time_does_not_grow_with_n(self, tmp_path, capsys, n):
        # the ambient bundle holds at most two summands, not n: at n = 1e4
        # the output is that of the n-summand build, which at n = 1e12 would
        # need terabytes of summands
        cfg = write_config(tmp_path, name="sl", extra=f"slope_n = {n}\n")
        assert main(["slope", "--config", cfg, "--out", str(tmp_path)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"n = {n}", f"ambient_slope = {n + 1}/{n}", "sub_slope = 2", "destabilizes = true"]


class TestVerify:
    def test_builtin_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, name="vf")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 4

    def test_builtin_checks_pass_at_n3(self, tmp_path, capsys):
        # the flux-form neutral solve is exact for every n, so the neutral
        # residual check holds where the central stencils did not telescope
        for points in (401, 4001):
            cfg = Path(write_config(tmp_path, name="vf3", rhs_kind="dirac", gamma="1.8"))
            cfg.write_text(cfg.read_text().replace("n = 1\ndegree = 2.0", "n = 3\ndegree = 4.0")
                           .replace("points = 2001", f"points = {points}"))
            assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0, points
            out = capsys.readouterr().out
            assert "PASS neutral_residual" in out, points
            assert "FAIL" not in out, points

    def test_wide_grid_passes(self, tmp_path, capsys):
        # beyond |s| ~ 709 the reference curvature underflows to 0; the
        # margin reads the nodes where it does not
        cfg = Path(write_config(tmp_path, name="wide"))
        cfg.write_text(cfg.read_text().replace("s_min = -40.0", "s_min = -800")
                       .replace("points = 2001", "points = 8001"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS anticanonical_margin: eta = 2\n" in out
        assert out.count("PASS") == 4 and "warning" not in out

    def test_neutral_rows_above_their_rounding_fail(self, tmp_path, capsys, monkeypatch):
        # the neutral quadrature always converges, so its check reads the
        # rows: a residual above newton_tol and the rounding floor fails it
        solve = radialma.solver.newton_solve

        def off_by_a_row(model, rhs, kind, config=None):
            res = solve(model, rhs, kind, config)
            return replace(res, residual_norm=1e-6) if kind.kind == "neutral" else res

        monkeypatch.setattr(radialma.solver, "newton_solve", off_by_a_row)
        cfg = readme_config(tmp_path)
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL neutral_residual: sup residual = 9.9999999999999995e-07" in out
        assert out.count("PASS") == 3

    @staticmethod
    def model_config(tmp_path, n, degree) -> str:
        path = tmp_path / "model.ini"
        path.write_text(f"[model]\nn = {n}\ndegree = {degree}\n")
        return str(path)

    def test_neutral_residual_holds_at_a_large_degree(self, tmp_path, capsys):
        # the rows difference slope powers up to d^n = 1e8: an exact
        # quadrature leaves 9.3e-07, within their rounding
        cfg = self.model_config(tmp_path, 2, "1e4")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS neutral_residual: sup residual = 9.3006383394822478e-07" in out
        assert out.count("PASS") == 4

    def test_neutral_residual_holds_at_degree_1e8(self, tmp_path, capsys):
        # fixed_point_magnifying still fails here: the absolute newton_tol
        # stop rule ends the magnifying solve away from phi = 0
        cfg = self.model_config(tmp_path, 1, "1e8")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "PASS neutral_residual: sup residual = 3.7252902984619141e-07" in out
        assert "FAIL fixed_point_magnifying" in out

    def test_a_moved_node_fails_at_a_large_degree(self, tmp_path, capsys, monkeypatch):
        # the limit follows the rounding of the rows, not a fraction of d^n:
        # phi moved by 1e-6 at one interior node breaks its rows
        solve, rows = radialma.solver.newton_solve, radialma.solver.residual_from_perturbation

        def moved_node(model, rhs, kind, config=None):
            res = solve(model, rhs, kind, config)
            if kind.kind != "neutral":
                return res
            phi = res.phi.copy()
            phi[model.grid.points // 2] += 1e-6
            norm = float(np.max(np.abs(rows(phi, model, rhs, kind))))
            return replace(res, phi=phi, residual_norm=norm)

        monkeypatch.setattr(radialma.solver, "newton_solve", moved_node)
        cfg = self.model_config(tmp_path, 2, "1e4")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL neutral_residual" in out
        assert out.count("PASS") == 3

    @pytest.mark.parametrize("changes,where", [
        (dict(degree="nan"), "[model]: degree must be finite, got nan"),
        (dict(s_min="1.0"), "[model]: first slope 2.46403 must lie in [0, 2)"),
        (dict(newton_tol="0"), "[solver]: newton_tol must be positive, got 0.0"),
    ])
    def test_errors_name_their_section(self, tmp_path, capsys, changes, where):
        # every check is built from [model]; the solver settings keep theirs
        cfg = readme_config(tmp_path, **changes)
        out = tmp_path / "out"
        assert main(["verify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("configuration error: " + where)
        assert not out.exists()


class TestCoarseGrid:
    """A smooth family reads its pole secant over max(5, 4h), clamped to the
    grid, so a grid too coarse or too narrow for a window of 5 is still a
    valid configuration."""

    @pytest.mark.parametrize("kind", ["constant", "divisor"])
    @pytest.mark.parametrize("subcommand", ["solve", "continuity", "sweep", "verify"])
    def test_smooth_family_solves(self, tmp_path, capsys, subcommand, kind):
        # at points = 64 on [-40, 40], 4h = 5.079 > 5
        cfg = Path(readme_config(tmp_path, points="64"))
        rhs_line = "kind = dirac               ; constant | dirac | divisor"
        assert rhs_line in cfg.read_text()
        cfg.write_text(cfg.read_text().replace(rhs_line, f"kind = {kind}"))
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("subcommand", ["solve", "continuity"])
    def test_grid_narrower_than_the_window_solves(self, tmp_path, capsys, subcommand):
        # [-2, 2] is narrower than LELONG_WINDOW = 5: the secant spans the grid
        cfg = Path(readme_config(tmp_path, s_min="-2", s_max="2", points="401"))
        rhs_line = "kind = dirac               ; constant | dirac | divisor"
        cfg.write_text(cfg.read_text().replace(rhs_line, "kind = constant"))
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("points", [3, 4])
    @pytest.mark.parametrize("kind", ["dirac", "constant"])
    @pytest.mark.parametrize("subcommand", ["solve", "continuity", "sweep", "magnify",
                                            "multiplier", "verify"])
    def test_fewer_than_five_points_name_the_model(self, tmp_path, capsys, subcommand,
                                                   kind, points):
        # the pole secant's window of 4h takes 5 nodes
        cfg = Path(readme_config(tmp_path, points=str(points)))
        rhs_line = "kind = dirac               ; constant | dirac | divisor"
        cfg.write_text(cfg.read_text().replace(rhs_line, f"kind = {kind}"))
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"configuration error: [model]: points must be an integer >= 5, got {points}\n")
        assert not out.exists()


    def test_grid_spacing_above_log_dbl_max_names_the_model(self, tmp_path, capsys):
        # h = 1650: e^h - 1 overflows in the exact softplus steps of psi
        cfg = readme_config(tmp_path, s_min="-800.0", s_max="5800.0", points="5")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [model]: grid spacing h = 1650 must be below "
            "log(DBL_MAX) = 709.783; add points\n")
        assert not out.exists()

    def test_pole_mass_above_the_grid_names_the_rhs(self, tmp_path, capsys):
        # psi's last slope on [-5, 0.5] is 1.23, below gamma = 1.8
        cfg = readme_config(tmp_path, s_min="-5.0", s_max="0.5", points="101")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: [rhs]: first slope 1.8135 must lie in "
                              "[0, 1.23194), the last slope of psi at s_max = 0.5")
        assert "too narrow for pole mass gamma = 1.8" in err and "widen s_max" in err
        assert not out.exists()

    def test_pole_flux_at_d_names_s_min(self, tmp_path, capsys):
        # psi's last slope is below d = 2 for every s_max, so only a lower
        # s_min, below the layer at 2 log eps, can hold this first slope
        cfg = readme_config(tmp_path, s_min="1", s_max="41", points="2001", gamma="1.0",
                            epsilon="0.1")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [rhs]: first slope 2.45244 must lie in [0, 2), the last "
            "slope of psi at s_max = 41: it is at or above d = 2, which no s_max reaches; "
            "lower s_min below the pole layer at 2 log eps = -4.60517\n")
        assert not out.exists()

    def test_grid_without_pole_side_names_the_model_before_the_sweep(
            self, tmp_path, capsys, monkeypatch):
        # the stalk's germs live on s <= 0, which [1, 41] does not reach
        cfg = Path(readme_config(tmp_path, s_min="1", s_max="41", points="2001",
                                 t_target="0.3", epsilon_list="1e-1, 1e-2"))
        rhs_line = "kind = dirac               ; constant | dirac | divisor"
        cfg.write_text(cfg.read_text().replace(rhs_line, "kind = constant"))
        monkeypatch.setattr(radialma.solver, "sweep_epsilon", None)
        out = tmp_path / "out"
        assert main(["multiplier", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [model]: grid has no pole-side nodes (s <= 0)\n")
        assert not out.exists()

    @pytest.mark.parametrize("changes,message", [
        # psi' underflows to 0 on the whole grid, or is d on all of it
        (dict(s_min="-2000.0", s_max="-1000.0", points="101"),
         "psi has no finite mass at n = 1, d = 2 on the grid [-2000, -1000] of 101 points"),
        (dict(s_min="800.0", s_max="1000.0", points="101"),
         "psi has no finite mass at n = 1, d = 2 on the grid [800, 1000] of 101 points"),
        (dict(n="400", degree="401.0"),
         "model mass d^n overflows at n = 400, d = 401 on the grid [-40, 40] of 4001 points"),
    ])
    def test_model_without_finite_mass_names_the_model(self, tmp_path, capsys, changes,
                                                       message):
        cfg = readme_config(tmp_path, gamma="1.0", **changes)
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: [model]: {message}: ")
        assert err.count("\n") == 1 and err.endswith("\n")
        assert not out.exists()

    def test_every_magnify_member_names_the_rhs(self, tmp_path, capsys):
        # the first member, eps = 1e-1, fits the grid [-20, 1]; the second,
        # whose pole flux enters through the first face, does not, and is
        # named as sweep and multiplier name it
        cfg = readme_config(tmp_path, s_min="-20.0", s_max="1.0", points="2001",
                            t_target="0.3", gamma="1.9", epsilon_list="1e-1, 1e-5")
        out = tmp_path / "out"
        assert main(["magnify", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [rhs]: first slope 1.81252 must lie in [0, 1.46005), the "
            "last slope of psi at s_max = 1: the grid is too narrow for pole mass gamma = 1.9, "
            "whose flux enters through the first face; widen s_max\n")
        assert not out.exists()

    def test_overflowing_pole_mass_names_the_rhs(self, tmp_path, capsys):
        # d^n = 1e300 is finite, gamma^n = 20^300 is not
        cfg = readme_config(tmp_path, n="300", degree="10.0", gamma="20.0")
        out = tmp_path / "out"
        assert main(["solve", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "configuration error: [rhs]: pole mass gamma^n = e^898.72 exceeds the model "
            "mass 1e+300: gamma = 20 > d = 10\n")
        assert not out.exists()


class TestUnknownKeys:
    """A section or key the run does not read is an invalid configuration:
    a misspelt key would otherwise fall back to its default."""

    @pytest.mark.parametrize("subcommand", SUBCOMMANDS)
    def test_misspelt_key_exits_2(self, tmp_path, capsys, subcommand):
        # a misspelt t_target must not leave the default t = 0, where every
        # solve is the neutral quadrature and exits 0
        cfg = Path(readme_config(tmp_path, max_iters="1"))
        cfg.write_text(cfg.read_text().replace("t_target = 0.2", "t_traget = 0.6"))
        out = tmp_path / "out"
        assert main([subcommand, "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "configuration error: [equation] t_traget: unknown key\n"
        assert not out.exists()

    @pytest.mark.parametrize("section,key", [("model", "point"), ("equation", "time"),
                                             ("rhs", "gama"), ("solver", "max_iter"),
                                             ("run", "output")])
    def test_unknown_key_in_each_section(self, tmp_path, capsys, section, key):
        path = Path(write_config(tmp_path))
        path.write_text(path.read_text().replace(f"[{section}]\n", f"[{section}]\n{key} = 1\n"))
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: [{section}] {key}: unknown key\n")

    @pytest.mark.parametrize("extra,where", [("[plot]\ncolor = red\n", "[plot]"),
                                             ("[DEFAULT]\nn = 2\n", "[DEFAULT]")])
    def test_unknown_section(self, tmp_path, capsys, extra, where):
        path = Path(write_config(tmp_path))
        path.write_text(path.read_text() + extra)
        assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"configuration error: {where}: unknown section\n"


class TestDefaults:
    def test_an_empty_config_takes_the_library_defaults(self):
        # the CLI writes its defaults out, since importing SolveConfig or
        # DEFAULT_GRID would load numpy on the slope path
        cfg = load_config(os.devnull)
        solve = SolveConfig()
        assert (cfg.newton_tol, cfg.max_iters) == (solve.newton_tol, solve.max_iters)
        assert (cfg.s_min, cfg.s_max, cfg.points) == (
            DEFAULT_GRID.s_min, DEFAULT_GRID.s_max, DEFAULT_GRID.points)
        assert cfg.solve_config() == solve
        assert cfg.validate_model().grid == DEFAULT_GRID

    def test_solve_config_is_the_solver_section(self):
        # a solve's start is an argument of newton_solve, not a setting
        assert {f.name for f in fields(SolveConfig)} == set(cli._KEYS["solver"])


class TestWarnings:
    """Every UserWarning a subcommand raises is one trailing summary line,
    and no warning reaches stderr."""

    @pytest.mark.parametrize("subcommand", ["solve", "continuity", "sweep", "magnify",
                                            "multiplier", "verify"])
    def test_layer_below_the_cut_is_a_summary_line(self, tmp_path, capsys, subcommand):
        # at s_min = -3 every mollified layer of the list sits below the cut
        cfg = readme_config(tmp_path, s_min="-3.0", s_max="3.0", points="401")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        warning = [line for line in summary_body(out / "demo_summary.txt")
                   if line.startswith("warning = ")]
        assert warning[0] == ("warning = mollified pole layer sits at or below the left "
                              "truncation; solver mass accounting will not see all of it")
        assert len(set(warning)) == len(warning)
        if subcommand == "verify":
            assert captured.out.splitlines()[-1] == warning[-1]


def run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports radialma from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


# what a solve-path request leaves unloaded: the experiments it does not run
SOLVE_PATH_UNLOADED = ("radialma.comparison", "radialma.multiplier", "radialma.slopes",
                       "fractions")


class TestImportPath:
    def test_no_heavy_scipy_subpackages(self, tmp_path):
        # a fresh interpreter: importing the CLI and running verify in
        # process loads no scipy module at all; numpy is the only runtime
        # dependency
        cfg = write_config(tmp_path, name="imp")
        code = (
            "import sys\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "from radialma.cli import main\n"
            "assert not loaded(), loaded()\n"
            f"assert main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert not loaded(), loaded()\n"
        )
        proc = run_fresh(code)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("subcommand,unloaded", [
        ("slope", ("numpy", "radialma.solver")),
        ("solve", SOLVE_PATH_UNLOADED),
        ("continuity", SOLVE_PATH_UNLOADED),
        ("sweep", SOLVE_PATH_UNLOADED),
    ])
    def test_a_request_loads_only_what_it_runs(self, tmp_path, subcommand, unloaded):
        # the request runs in process, in a fresh interpreter, which then
        # prints every module it holds on its last stdout line
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", t_target="0.3",
                           eps_list="1e-1, 1e-2", name="lazy")
        proc = run_fresh(
            "import sys\n"
            "from radialma.cli import main\n"
            f"status = main([{subcommand!r}, '--config', {cfg!r}, '--out', {str(tmp_path)!r}])\n"
            "print(status, sorted(sys.modules))\n")
        assert proc.returncode == 0, proc.stderr
        status, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
        assert status == "0"
        assert not set(unloaded) & set(ast.literal_eval(loaded))


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        # a neutral solve, then every subcommand on the README's example
        # config, each twice: the same files, byte for byte, the same
        # stdout, and nothing on stderr
        neutral = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", kind="neutral",
                               t="0.0", t_target="0.0", name="det")
        readme = readme_config(tmp_path)
        cases = [("solve", neutral, "det")] + [(c, readme, "demo") for c in SUBCOMMANDS]
        for i, (subcommand, cfg, name) in enumerate(cases):
            runs = []
            for out in (tmp_path / str(i) / "a", tmp_path / str(i) / "b"):
                assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0, subcommand
                captured = capsys.readouterr()
                assert captured.err == "", subcommand
                runs.append((captured.out, {p.name: p.read_bytes() for p in out.iterdir()}))
            assert runs[0] == runs[1], subcommand
            assert f"{name}_summary.txt" in runs[0][1], subcommand

    def test_header_echo_reproduces_run(self, tmp_path):
        # the canonicalised config echoed into the summary header, written
        # back out as a config file, reproduces the outputs byte for byte
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", kind="neutral",
                           t="0.0", t_target="0.0", name="echo")
        out1 = tmp_path / "a"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        header = [l[4:] for l in (out1 / "echo_summary.txt").read_text().splitlines()
                  if l.startswith("#   ")]
        cfg2 = tmp_path / "echo.ini"
        cfg2.write_text("\n".join(header) + "\n")
        out2 = tmp_path / "b"
        assert main(["solve", "--config", str(cfg2), "--out", str(out2)]) == 0
        for name in ("echo_summary.txt", "echo_diagnostics.csv", "echo_potential.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_seventeen_digit_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", name="rt",
                           kind="neutral", t="0.0", t_target="0.0")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 0
        data = (tmp_path / "rt_potential.dat").read_text().splitlines()
        s, phi = data[1000].split()
        assert float(s) == np.float64(s)  # exact round trip


def readme_config(tmp_path, **changes):
    """The README's example config, with ``key = value`` lines replaced."""
    text = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
    for key, value in changes.items():
        text, count = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.M)
        assert count == 1, key
    path = tmp_path / "readme.ini"
    path.write_text(text)
    return str(path)


class TestReadme:
    def test_library_quick_start(self):
        # the first python block runs as written and ends on the verdict
        # its last comment names; tau0 = 0.2 is above the point-mass
        # family's margin 0, so the experiment runs as a probe
        code = re.search(r"```python\n(.*?)```", README.read_text(), re.S).group(1)
        namespace = {}
        with pytest.warns(CurvatureMarginWarning, match="experimental probe"):
            exec(code, namespace)
        assert namespace["report"].verdict == "average_blowup"


class TestPotentialWriter:
    @pytest.mark.parametrize("subcommand,solver", [("solve", "newton_solve"),
                                                   ("continuity", "continuity_in_t")])
    def test_columns_are_the_nodes_and_the_returned_phi(self, tmp_path, monkeypatch,
                                                        subcommand, solver):
        # every node, not one: both columns read back bit for bit
        original, returned = getattr(radialma.solver, solver), []

        def spy(model, *args):
            out = original(model, *args)
            returned.append((model, out if solver == "newton_solve" else out[1]))
            return out

        monkeypatch.setattr(radialma.solver, solver, spy)
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", t="0.3",
                           t_target="0.3", name="pw")
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 0
        (model, res), = returned
        s, phi = np.loadtxt(tmp_path / "pw_potential.dat").T
        assert np.array_equal(s, model.grid.nodes)
        assert np.array_equal(phi, res.phi)


def summary_body(path):
    return [l for l in path.read_text().splitlines() if not l.startswith("#")]


class TestOutputContract:
    """``main`` writes every output: the summary file, the other files, and
    the summary lines on stdout for ``slope`` and ``verify`` alone."""

    @pytest.mark.parametrize("subcommand,slope_n,last", [
        ("verify", 5, "PASS slope_example: 2 > 6/5"),
        ("slope", 5, "destabilizes = true"),
        ("slope", 1, "destabilizes = undefined (no proper subbundle)"),
    ])
    def test_stdout_is_the_summary_body(self, tmp_path, capsys, subcommand, slope_n, last):
        cfg = write_config(tmp_path, name="so")
        with open(cfg, "a") as fh:
            fh.write(f"slope_n = {slope_n}\n")
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path)]) == 0
        body = summary_body(tmp_path / "so_summary.txt")
        assert capsys.readouterr().out.splitlines() == body
        assert body[-1] == last
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ini", "so_summary.txt"]

    @pytest.mark.parametrize("subcommand,files", [
        ("solve", ["diagnostics.csv", "potential.dat", "summary.txt"]),
        ("continuity", ["diagnostics.csv", "potential.dat", "summary.txt"]),
        ("sweep", ["diagnostics.csv", "summary.txt"]),
        ("magnify", ["magnification.csv", "summary.txt"]),
        ("multiplier", ["summary.txt"]),
    ])
    def test_other_subcommands_print_nothing(self, tmp_path, capsys, subcommand, files):
        # gamma = 0 keeps the curvature margin positive, so magnify runs
        # without its experimental-probe warning
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="0.0", t="0.3",
                           t_target="0.3", eps_list="1e-1,1e-2", name="q")
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert sorted(p.name for p in out.iterdir()) == [f"q_{f}" for f in files]

    @pytest.mark.parametrize("subcommand,changes,where", [
        ("magnify", dict(kind="reducing", t="0.3", t_target="0.3", rhs_kind="dirac",
                         gamma="1.8", eps_list="1e-1,1e-2"), "[equation] kind"),
        ("solve", dict(rhs_kind="dirac", gamma="5"), "[rhs]"),
        ("continuity", dict(rhs_kind="dirac", gamma="5"), "[rhs]"),
        ("sweep", dict(rhs_kind="dirac", gamma="1.0", eps_list="1e-2,1e-1"),
         "[rhs] epsilon_list: eps list must be strictly decreasing"),
        ("magnify", dict(rhs_kind="dirac", gamma="1.0", t="0.3", t_target="0.3",
                         eps_list="inf,1e-2"),
         "[rhs] epsilon_list: eps[0] must be finite, got inf"),
        ("multiplier", dict(rhs_kind="dirac", gamma="1.0", t="0.3", t_target="0.3",
                            eps_list="1e-1,nan"),
         "[rhs] epsilon_list: eps[1] must be finite, got nan"),
        ("magnify", dict(rhs_kind="dirac", gamma="1.8", t="0.0", t_target="0.0",
                         eps_list="1e-1,1e-2"), "[equation]: t_target must lie in (0, 1), got 0.0"),
        ("slope", dict(extra="slope_n = 0\n"), "[run] slope_n: n must be an integer >= 1, got 0"),
        ("continuity", dict(rhs_kind="dirac", gamma="1.0", t="0.0", t_target="0.0"),
         "[equation]: t_target must lie in (0, 1), got 0.0"),
        ("magnify", dict(rhs_kind="dirac", gamma="nan", t="0.3", t_target="0.3",
                         eps_list="1e-1,1e-2"), "[rhs]: gamma must be finite, got nan"),
        ("magnify", dict(rhs_kind="dirac", gamma="5", t="0.3", t_target="0.3",
                         eps_list="1e-1,1e-2"), "[rhs]: pole mass gamma^n = 5 exceeds"),
        # a later nonpositive eps is rejected by the list's own check, before
        # any member is built
        *[(cmd, dict(rhs_kind="dirac", gamma="1.0", t="0.3", t_target="0.3",
                     eps_list="1e-1,-1e-2"),
          "[rhs] epsilon_list: eps[1] must be positive, got -0.01")
          for cmd in ("sweep", "magnify", "multiplier")],
        # the experiment names files inside the output directory
        ("slope", dict(name="sub/err"), "[run] experiment: expected a file name, got 'sub/err'"),
        ("solve", dict(name="sub/err"), "[run] experiment: expected a file name, got 'sub/err'"),
        ("verify", dict(name=""), "[run] experiment: expected a file name, got ''"),
        ("slope", dict(name="../err"), "[run] experiment: expected a file name, got '../err'"),
    ])
    def test_error_in_a_command_writes_nothing(self, tmp_path, capsys, subcommand,
                                               changes, where):
        cfg = write_config(tmp_path, **{"name": "err", **changes})
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("configuration error: " + where)
        assert [p.name for p in tmp_path.iterdir()] == ["run.ini"]

    @pytest.mark.parametrize("subcommand,out,name,target", [
        # the output directory is an existing file
        ("slope", "afile", "err", "afile"),
        # a file name longer than the file system takes, under a directory
        # the run makes
        ("slope", "new/sub", "x" * 300, "new/sub/" + "x" * 300 + "_summary.txt"),
        # in an existing directory: the summary's name fits, the next does not
        ("solve", ".", "x" * 240, "x" * 240 + "_diagnostics.csv"),
    ], ids=["out-is-a-file", "long-name-new-dir", "long-name-existing-dir"])
    def test_an_unwritable_output_writes_nothing(self, tmp_path, capsys, subcommand, out,
                                                 name, target):
        cfg = write_config(tmp_path, name=name)
        (tmp_path / "afile").write_text("")
        assert main([subcommand, "--config", cfg, "--out", str(tmp_path / out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"configuration error: cannot write {tmp_path / target}: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.ini"]

    def test_multiplier_without_members_writes_only_its_summary(self, tmp_path, capsys):
        # one fixed-point iteration converges no member of the README family
        cfg = readme_config(tmp_path, t_target="0.9", max_iters="1")
        out = tmp_path / "out"
        assert main(["multiplier", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().out == ""
        assert [p.name for p in out.iterdir()] == ["demo_summary.txt"]
        assert summary_body(out / "demo_summary.txt") == [
            "verdict = barrier", "error = no converged members"]


class TestBarrierOutputs:
    """One fixed-point iteration converges no time-dependent member of the
    README family: every solving subcommand exits 1 and still writes where
    it stopped."""

    @staticmethod
    def run(tmp_path, subcommand):
        cfg = readme_config(tmp_path, max_iters="1")
        out = tmp_path / "out"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        return summary_body(out / "demo_summary.txt"), out

    def test_solve(self, tmp_path):
        summary, _ = self.run(tmp_path, "solve")
        assert "converged = false" in summary

    def test_continuity_stops_at_the_neutral_base(self, tmp_path):
        summary, out = self.run(tmp_path, "continuity")
        assert summary == ["verdict = barrier", "t_star = 0"]
        rows = (out / "demo_diagnostics.csv").read_text().splitlines()
        assert rows[1].startswith("0,0,") and rows[-1].endswith(",false")

    def test_sweep_barrier_is_the_first_failed_eps(self, tmp_path):
        summary, _ = self.run(tmp_path, "sweep")
        assert summary == ["verdict = barrier", "barrier_param = 0.10000000000000001"]

    def test_magnify_rows_are_failed_members(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no warning escapes main
            summary, out = self.run(tmp_path, "magnify")
        assert summary[0] == "verdict = barrier"
        assert summary[2].startswith("warning = tau0 = 0.2 is not below the curvature margin")
        rows = (out / "demo_magnification.csv").read_text().splitlines()[1:]
        assert len(rows) == 4
        assert all(row.endswith(",1,false,nan,nan") for row in rows)

    def test_multiplier(self, tmp_path):
        summary, _ = self.run(tmp_path, "multiplier")
        assert summary == ["verdict = barrier", "error = no converged members"]
