"""Radial Monge-Ampere lab.

Solves the pole-shrinking, pole-neutral and pole-amplifying families of
complex Monge-Ampere equations for rotationally symmetric metrics on
projective space, reduced to one dimension in s = log|z|^2, and measures
what the singular right-hand sides do to the solved potentials: pole
coefficients, volume averages, integrability thresholds and the stalk of
the dynamic multiplier ideal at the pole point.

The package namespace is lazy (PEP 562): ``import radialma`` loads no
submodule and no numpy. A public name, such as ``radialma.newton_solve``,
imports the submodule that defines it on first access and is looked up there
on every access, never copied here, so ``radialma.X is radialma.<module>.X``
holds even while that module's global is patched. Each submodule, such as
``radialma.solver``, resolves the same way. ``__all__`` lists every public
name and submodule.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# each public submodule and the names the package exports from it
_EXPORTS = {
    "errors": ("ConfigurationError", "CurvatureMarginWarning"),
    "grid": ("DEFAULT_GRID", "KahlerModel", "RadialPotential", "SGrid", "average"),
    "rhs": ("LelongEstimate", "LowerBoundReport", "RhsFamily", "build_dirac_rhs",
            "build_divisor_rhs", "check_lower_bound", "constant_rhs", "pole_lelong", "xi_eps"),
    "solver": ("ContinuityTrace", "Diagnostics", "EquationKind", "SolveConfig", "SolveResult",
               "continuity_in_t", "diagnostics_for", "magnifying", "neutral",
               "neutral_oracle", "newton_solve", "reducing", "sweep_epsilon"),
    "multiplier": ("GermIntegral", "PotentialSequence", "StalkDescriptor", "germ_integral",
                   "stalk_from_sequence", "trivial_lemma_report"),
    "comparison": ("MagnificationReport", "bootstrap_lelong_bound",
                   "magnification_experiment"),
    "slopes": ("BundleSpec", "destabilizes", "line_tangent", "normalized_slope",
               "tangent_on_line"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_MODULE_OF])


def __getattr__(name):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name in _MODULE_OF:
        return getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
