"""Radial Monge-Ampere lab.

Solves the pole-shrinking, pole-neutral and pole-amplifying families of
complex Monge-Ampere equations for rotationally symmetric metrics on
projective space, reduced to one dimension in s = log|z|^2, and measures
what the singular right-hand sides do to the solved potentials: pole
coefficients, volume averages, integrability thresholds and the stalk of
the dynamic multiplier ideal at the pole point.
"""

from .errors import (
    ConfigurationError,
    ConstraintViolationError,
    CurvatureMarginWarning,
)
from .geometry import (
    Diagnostics,
    KahlerModel,
    LelongEstimate,
    average,
    fubini_study_potential,
    pole_lelong,
)
from .grid import DEFAULT_GRID, RadialPotential, SGrid
from .rhs import (
    LowerBoundReport,
    RhsFamily,
    build_dirac_rhs,
    build_divisor_rhs,
    check_lower_bound,
    constant_rhs,
    dirac_density,
    xi_eps,
)
from .solver import (
    ContinuityTrace,
    EquationKind,
    SolveConfig,
    SolveResult,
    continuity_in_t,
    diagnostics_for,
    magnifying,
    neutral,
    neutral_oracle,
    newton_solve,
    reducing,
    sweep_epsilon,
)
from .multiplier import (
    GermIntegral,
    PotentialSequence,
    StalkDescriptor,
    crucial_integral,
    germ_integral,
    stalk_from_sequence,
    trivial_lemma_report,
)
from .comparison import (
    ComparisonReport,
    MagnificationReport,
    bootstrap_lelong_bound,
    bt_compare,
    magnification_experiment,
)
from .slopes import BundleSpec, destabilizes, line_tangent, normalized_slope, tangent_on_line

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
