"""The package namespace: the names it exports, resolved on first use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import radialma

# every name the package exports, submodules included
EXPORTS = {
    "BundleSpec", "ComparisonReport", "ConfigurationError", "ConstraintViolationError",
    "ContinuityTrace", "CurvatureMarginWarning", "DEFAULT_GRID", "Diagnostics",
    "EquationKind", "GermIntegral", "KahlerModel", "LelongEstimate", "LowerBoundReport",
    "MagnificationReport", "PotentialSequence", "RadialPotential", "RhsFamily", "SGrid",
    "SolveConfig", "SolveResult", "StalkDescriptor", "average", "bootstrap_lelong_bound",
    "bt_compare", "build_dirac_rhs", "build_divisor_rhs", "check_lower_bound", "comparison",
    "constant_rhs", "continuity_in_t", "destabilizes", "diagnostics_for",
    "dirac_density", "errors", "geometry", "germ_integral", "grid",
    "line_tangent", "magnification_experiment", "magnifying", "multiplier", "neutral",
    "neutral_oracle", "newton_solve", "normalized_slope", "pole_lelong", "reducing", "rhs",
    "slopes", "solver", "stalk_from_sequence", "sweep_epsilon", "tangent_on_line",
    "trivial_lemma_report", "xi_eps",
}
SUBMODULES = {"comparison", "errors", "geometry", "grid", "multiplier", "rhs", "slopes",
              "solver"}


def test_all_is_the_export_list():
    assert set(radialma.__all__) == EXPORTS
    assert len(radialma.__all__) == len(EXPORTS)
    assert {n for n in dir(radialma) if not n.startswith("_")} >= EXPORTS


@pytest.mark.parametrize("name", sorted(EXPORTS - SUBMODULES))
def test_each_name_is_its_module_s_object(name):
    value = getattr(radialma, name)
    assert any(getattr(getattr(radialma, m), name, None) is value for m in SUBMODULES)


def test_a_name_follows_a_patched_module_global(monkeypatch):
    # never cached in the package: a patch of the defining module shows
    # through, and its undoing too
    from radialma import solver
    original = solver.newton_solve
    monkeypatch.setattr(solver, "newton_solve", lambda *args: None)
    assert radialma.newton_solve is solver.newton_solve
    monkeypatch.undo()
    assert radialma.newton_solve is original


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        radialma.no_such_name  # noqa: B018


def test_a_bare_import_loads_nothing_until_a_name_is_used():
    # a fresh interpreter: no numpy and no submodule, then the one named
    code = ("import sys, radialma\n"
            "assert 'numpy' not in sys.modules\n"
            "assert not [m for m in sys.modules if m.startswith('radialma.')]\n"
            "assert radialma.solver is sys.modules['radialma.solver']\n"
            "assert radialma.solver.newton_solve is radialma.newton_solve\n"
            "assert 'radialma.comparison' not in sys.modules\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
