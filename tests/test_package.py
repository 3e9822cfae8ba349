"""The package namespace: the names it exports, resolved on first use."""

import ast
import builtins
import importlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import radialma

# every name the package exports, submodules included
EXPORTS = {
    "BundleSpec", "ConfigurationError", "ContinuityTrace",
    "CurvatureMarginWarning", "DEFAULT_GRID", "Diagnostics",
    "EquationKind", "GermIntegral", "KahlerModel", "LelongEstimate", "LowerBoundReport",
    "MagnificationReport", "PotentialSequence", "RadialPotential", "RhsFamily", "SGrid",
    "SolveConfig", "SolveResult", "StalkDescriptor", "average", "bootstrap_lelong_bound",
    "build_dirac_rhs", "build_divisor_rhs", "check_lower_bound", "comparison",
    "constant_rhs", "continuity_in_t", "destabilizes", "diagnostics_for",
    "errors", "germ_integral", "grid",
    "line_tangent", "magnification_experiment", "magnifying", "multiplier", "neutral",
    "neutral_oracle", "newton_solve", "normalized_slope", "pole_lelong", "reducing", "rhs",
    "slopes", "solver", "stalk_from_sequence", "sweep_epsilon", "tangent_on_line",
    "trivial_lemma_report", "xi_eps",
}
SUBMODULES = {"comparison", "errors", "grid", "multiplier", "rhs", "slopes", "solver"}
SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "radialma").glob("*.py"))


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


def test_every_traced_name_exists():
    # the benchmark's tracer wraps these by name; a deleted or renamed one
    # would only fail its traced run. spans.py imports the standard library
    spans = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    functions = runpy.run_path(str(spans))["FUNCTIONS"]
    assert functions
    for name, (module, _) in functions.items():
        assert callable(getattr(importlib.import_module(module), name, None)), (module, name)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    # a deletion can leave its import behind; a name used only under
    # TYPE_CHECKING is read by the annotations, which parse to Name nodes
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not imported - used, sorted(imported - used)


def test_the_modules_import_one_way():
    # every relative import, at module level or inside a function, is an
    # edge; a cycle would make one module's import wait on its own
    graph = {}
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        graph[path.stem] = {node.module for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            and node.module}
    done = set()  # modules whose imports are known to end

    def visit(module, path=()):
        assert module not in path, " -> ".join((*path, module))
        if module not in done:
            for imported in sorted(graph.get(module, ())):
                visit(imported, (*path, module))
            done.add(module)

    for module in sorted(graph):
        visit(module)


# the benchmark calls these positionally, model first, and its tracer reads
# the model's grid from the first argument (perfbench/workloads.py, spans.py)
MODEL_BESIDE_FAMILY = {"newton_solve", "continuity_in_t", "neutral_oracle"}


def test_a_reading_takes_its_family():
    # a family carries its model: no parameter annotated RhsFamily defaults
    # to None, and only the drivers the benchmark calls take a model beside it
    defaults, both = set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            # positional defaults belong to the last positional parameters
            given = [None] * (len(positional) - len(a.defaults)) + a.defaults + a.kw_defaults
            params = positional + a.kwonlyargs
            for param, default in zip(params, given):
                family = param.annotation is not None and "RhsFamily" in ast.unparse(
                    param.annotation)
                if family and isinstance(default, ast.Constant) and default.value is None:
                    defaults.add(f"{path.name}: {node.name}({param.arg})")
            if {"model", "rhs"} <= {param.arg for param in params}:
                both.add(node.name)
    assert not defaults, sorted(defaults)
    assert both == MODEL_BESIDE_FAMILY, sorted(both ^ MODEL_BESIDE_FAMILY)


def test_a_reading_of_phi_takes_its_family():
    # every public function of a perturbation phi reads the family phi
    # solves for, which carries the model, gamma and pole window; the one
    # exception is the volume average, an integral of any grid function
    loose = set()
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
                continue
            a = node.args
            params = {param.arg for param in a.posonlyargs + a.args + a.kwonlyargs}
            if "phi" in params and not ("rhs" in params and "model" not in params):
                loose.add(node.name)
    assert loose == {"average"}, sorted(loose)


def test_only_a_solved_potential_is_a_radial_potential():
    # psi is the model's array; a RadialPotential is built only where a
    # caller asks for a solved u
    callers = set()
    for path in SOURCES:
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(func, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    == "RadialPotential" for node in ast.walk(func)):
                callers.add(f"{path.name}: {func.name}")
    assert callers == {"solver.py: u", "solver.py: neutral_oracle"}, sorted(callers)


def test_the_rules_stay_in_errors():
    # one module states the exception types and the scalar rules: no other
    # defines an exception or warning class or imports numbers, which the
    # rules use (and cli.fmt, to format integers), and every ValueError a
    # module raises is the one ConfigurationError
    types = {**vars(builtins), **vars(radialma.errors)}
    defines, imports, raises = set(), set(), set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(b, "id", getattr(b, "attr", "")).endswith(
                        ("Error", "Exception", "Warning")) for b in node.bases):
                defines.add(path.name)
            elif isinstance(node, ast.Import) and "numbers" in (a.name for a in node.names):
                imports.add(path.name)
            elif isinstance(node, ast.ImportFrom) and node.module == "numbers":
                imports.add(path.name)
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = types.get(getattr(exc, "id", None))
                if isinstance(raised, type) and issubclass(raised, ValueError) \
                        and raised is not radialma.errors.ConfigurationError:
                    raises.add(f"{path.name}: {raised.__name__}")
    assert defines == {"errors.py"}
    assert imports == {"cli.py", "errors.py"}
    assert not raises, sorted(raises)
