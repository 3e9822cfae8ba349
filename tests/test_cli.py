"""CLI subcommands, config validation, deterministic output."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from radialma.cli import main


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


def write_config(tmp_path, **kw):
    defaults = dict(kind="magnifying", t="0.5", t_target="0.5", rhs_kind="constant",
                    gamma="0.0", eps_list="", name="t")
    defaults.update(kw)
    path = tmp_path / "run.ini"
    path.write_text(BASE.format(**defaults))
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

    def test_invalid_field_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, t="1.5", t_target="1.5")
        assert main(["solve", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "[equation]" in err

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.ini")]) == 2


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


class TestMagnify:
    def test_table_written(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.5", t="0.2",
                           t_target="0.2", eps_list="1e-2,1e-3", name="mag")
        with pytest.warns(UserWarning):
            status = main(["magnify", "--config", cfg, "--out", str(tmp_path)])
        assert status in (0, 1)
        lines = (tmp_path / "mag_magnification.csv").read_text().splitlines()
        assert lines[0] == ("step,param,sup_phi,inf_phi,avg_phi,lelong,"
                            "lelong_sensitivity,mass,newton_iters,converged,"
                            "nu_measured,nu_bootstrap")
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            # measured pole slope at least the secant reading and the bound
            assert float(cells[10]) >= float(cells[11]) * 0.98

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


class TestVerify:
    def test_builtin_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path, name="vf")
        assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 5

    def test_builtin_checks_pass_at_n3(self, tmp_path, capsys):
        # the flux-form neutral solve is exact for every n, so the neutral
        # residual check holds where the central stencils did not telescope
        cfg = Path(write_config(tmp_path, name="vf3", rhs_kind="dirac", gamma="1.8"))
        cfg.write_text(cfg.read_text().replace("n = 1\ndegree = 2.0", "n = 3\ndegree = 4.0")
                       .replace("points = 2001", "points = 4001"))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS neutral_residual" in out
        assert "FAIL" not in out


class TestImportPath:
    def test_no_heavy_scipy_subpackages(self, tmp_path):
        # a fresh interpreter: importing the CLI and running verify in
        # process loads scipy.linalg only
        cfg = write_config(tmp_path, name="imp")
        code = (
            "import sys\n"
            "heavy = ('scipy.special', 'scipy.optimize', 'scipy.integrate')\n"
            "def loaded():\n"
            "    return sorted(m for m in sys.modules if m.startswith(heavy))\n"
            "from radialma.cli import main\n"
            "assert not loaded(), loaded()\n"
            f"assert main(['verify', '--config', {cfg!r}, '--out', {str(tmp_path)!r}]) == 0\n"
            "assert not loaded(), loaded()\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, rhs_kind="dirac", gamma="1.0", kind="neutral",
                           t="0.0", t_target="0.0", name="det")
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("det_summary.txt", "det_diagnostics.csv", "det_potential.dat"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

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
