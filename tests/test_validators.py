"""Every input validator raises its documented error type, naming what it
rejects."""

import numpy as np
import pytest

from radialma import (
    ConfigurationError,
    ConstraintViolationError,
    ContinuityTrace,
    EquationKind,
    KahlerModel,
    PotentialSequence,
    RadialPotential,
    RhsFamily,
    SGrid,
    SolveConfig,
    bootstrap_lelong_bound,
    bt_compare,
    build_dirac_rhs,
    build_divisor_rhs,
    constant_rhs,
    continuity_in_t,
    dirac_density,
    germ_integral,
    magnifying,
    neutral,
    newton_solve,
    stalk_from_sequence,
    sweep_epsilon,
    xi_eps,
)
from radialma.geometry import lelong_secant
from radialma.rhs import MollifierProfile

GRID = SGrid(-10.0, 10.0, 81)
ZEROS = np.zeros(GRID.points)


def pole_on_a_narrow_grid(m):
    """gamma = 1.8 on [-5, 0.5], where psi's last slope is 1.23: the layer
    at 2 log eps = -13.8 lies below s_min, which warns, so the whole pole
    flux enters through the first face."""
    with pytest.warns(UserWarning, match="below the left truncation"):
        return build_dirac_rhs(1.8, 1e-3, KahlerModel(1, 2.0, SGrid(-5.0, 0.5, 101)))


# each case: the error type, the part of its message that names what is
# rejected, and a call on the n = 1, d = 2 model on GRID
CASES = {
    "xi_eps eps <= 0": (ConfigurationError, "eps must be positive",
                        lambda m: xi_eps(0.0, 0.0)),
    "xi_eps eps = nan": (ConfigurationError, "eps must be finite, got nan",
                         lambda m: xi_eps(0.0, np.nan)),
    "dirac_density a = nan": (ConfigurationError, "a must be finite, got nan",
                              lambda m: dirac_density(np.nan, 1.0)),
    "dirac gamma < 0": (ConstraintViolationError, "gamma must be nonnegative",
                        lambda m: build_dirac_rhs(-0.1, 1e-3, m)),
    "dirac eps <= 0": (ConfigurationError, "eps must be positive",
                       lambda m: build_dirac_rhs(1.0, 0.0, m)),
    "dirac grid too narrow for the pole": (
        ConstraintViolationError,
        "first slope 1.8135 must lie in [0, 1.23194), the last slope of psi at s_max = 0.5: "
        "the grid is too narrow for pole mass gamma = 1.8, whose flux enters through the "
        "first face; widen s_max",
        pole_on_a_narrow_grid),
    # d^n = 1e300 is finite, gamma^n = 20^300 is not
    "dirac pole mass above a finite model mass overflows": (
        ConstraintViolationError,
        "pole mass gamma^n = e^898.72 exceeds the model mass 1e+300: gamma = 20 > d = 10",
        lambda m: build_dirac_rhs(20.0, 1e-3, KahlerModel(300, 10.0))),
    "divisor delta' < 0": (ConstraintViolationError, "delta' must be nonnegative",
                           lambda m: build_divisor_rhs(-0.1, 1e-3, m)),
    "divisor eps <= 0": (ConfigurationError, "eps must be positive",
                         lambda m: build_divisor_rhs(0.5, 0.0, m)),
    "profile off the model grid": (
        ConfigurationError, "profile does not live on the model grid",
        lambda m: RhsFamily("dirac_approx", m, profile=MollifierProfile(np.zeros(5), 0.0))),
    "unknown equation kind": (ConfigurationError, "unknown equation kind 'sideways'",
                              lambda m: EquationKind("sideways")),
    "unknown verdict": (ConfigurationError, "unknown verdict 'maybe'",
                        lambda m: ContinuityTrace((), "maybe")),
    "barrier without t_star": (ConfigurationError, "barrier verdict and t_star",
                               lambda m: ContinuityTrace((), "barrier")),
    "t_star without barrier": (ConfigurationError, "barrier verdict and t_star",
                               lambda m: ContinuityTrace((), "reached_target", 0.5)),
    "guess of the wrong shape": (
        ConfigurationError, "initial guess does not live on the model grid",
        lambda m: newton_solve(m, constant_rhs(m), neutral(),
                               SolveConfig(initial_guess=np.zeros(3)))),
    "continuity of the neutral kind": (
        ConfigurationError, "kind must be time-dependent for continuity in t, got 'neutral'",
        lambda m: continuity_in_t(m, constant_rhs(m), neutral(), 0.5)),
    "t_target = 1": (ConfigurationError, "t_target must lie in (0, 1)",
                     lambda m: continuity_in_t(m, constant_rhs(m), magnifying(0.5), 1.0)),
    "t_target = 0": (ConfigurationError, "t_target must lie in (0, 1)",
                     lambda m: continuity_in_t(m, constant_rhs(m), magnifying(0.5), 0.0)),
    "t_target against kind.t": (
        ConfigurationError, "t_target = 0.2 does not match the magnifying family's t = 0.5",
        lambda m: continuity_in_t(m, constant_rhs(m), magnifying(0.5), 0.2)),
    "later eps < 0": (ConfigurationError, "eps list must be positive, got [0.1, -0.01]",
                      lambda m: sweep_epsilon(m, 1.0, magnifying(0.5), 0.5, (1e-1, -1e-2))),
    # the constant family ignores eps, but the list is still a mollifier list
    "constant family over eps = 0": (
        ConfigurationError, "eps list must be positive, got [0.1, 0.0]",
        lambda m: sweep_epsilon(m, 0.0, neutral(), 0.0, (1e-1, 0.0),
                                rhs_builder=lambda eps: constant_rhs(m))),
    "infinite grid endpoint": (ConfigurationError, "grid endpoints must be finite",
                               lambda m: SGrid(-np.inf, 1.0, 5)),
    "nan grid endpoint": (ConfigurationError, "grid endpoints must be finite",
                          lambda m: SGrid(0.0, np.nan, 5)),
    "fractional grid points": (ConfigurationError, "grid points must be an integer, got 4001.5",
                               lambda m: SGrid(-10.0, 10.0, 4001.5)),
    "float grid points": (ConfigurationError, "grid points must be an integer, got 4001.0",
                          lambda m: SGrid(-10.0, 10.0, 4001.0)),
    "numpy float grid points": (ConfigurationError, "grid points must be an integer",
                                lambda m: SGrid(-10.0, 10.0, np.float64(81))),
    "bool grid points": (ConfigurationError, "grid points must be an integer, got True",
                         lambda m: SGrid(-10.0, 10.0, True)),
    # e^h - 1 overflows in the exact softplus steps of psi
    "grid spacing above log(DBL_MAX)": (
        ConfigurationError,
        "grid spacing h = 1650 must be below log(DBL_MAX) = 709.783; add points",
        lambda m: SGrid(-800.0, 5800.0, 5)),
    "different grids": (ConfigurationError, "grids do not match",
                        lambda m: GRID.require_same(SGrid(-10.0, 10.0, 41))),
    "non-finite potential": (ConfigurationError, "potential values must be finite",
                             lambda m: RadialPotential(GRID, np.full(GRID.points, np.nan), 1)),
    "subinterval without interior node": (
        ConfigurationError, "subinterval must contain interior nodes",
        lambda m: bt_compare(m.psi, m.psi, 0.0, GRID.h)),
    "bt_compare of different dimensions": (
        ConfigurationError, "potentials of dimension n = 1 and n = 2 cannot be compared",
        lambda m: bt_compare(m.psi, KahlerModel(2, 2.0, GRID).psi, -5.0, 5.0)),
    "bt_compare a = nan": (ConfigurationError, "a must be finite, got nan",
                           lambda m: bt_compare(m.psi, m.psi, np.nan, 5.0)),
    "bt_compare b = nan": (ConfigurationError, "b must be finite, got nan",
                           lambda m: bt_compare(m.psi, m.psi, -5.0, np.nan)),
    "bootstrap gamma <= 0": (ConfigurationError, "gamma must be positive, got 0.0",
                             lambda m: bootstrap_lelong_bound(ZEROS, 0.5, 0.0, 5.0, m)),
    "bootstrap gamma = nan": (ConfigurationError, "gamma must be finite, got nan",
                              lambda m: bootstrap_lelong_bound(ZEROS, 0.5, np.nan, 5.0, m)),
    "bootstrap gamma = inf": (ConfigurationError, "gamma must be finite, got inf",
                              lambda m: bootstrap_lelong_bound(ZEROS, 0.5, np.inf, 5.0, m)),
    "bootstrap window = nan": (ConfigurationError, "window must be finite, got nan",
                               lambda m: bootstrap_lelong_bound(ZEROS, 0.5, 1.0, np.nan, m)),
    "bootstrap tau0 = 1": (ConfigurationError, "tau0 must lie in (0, 1)",
                           lambda m: bootstrap_lelong_bound(ZEROS, 1.0, 1.0, 5.0, m)),
    "bootstrap tau0 = 0": (ConfigurationError, "tau0 must lie in (0, 1)",
                           lambda m: bootstrap_lelong_bound(ZEROS, 0.0, 1.0, 5.0, m)),
    "bootstrap window too wide": (ConfigurationError, "window does not fit",
                                  lambda m: bootstrap_lelong_bound(ZEROS, 0.5, 1.0, 30.0, m)),
    "germ order k < 0": (ConfigurationError, "vanishing order must be a nonnegative integer",
                         lambda m: germ_integral(-1, ZEROS, 0.5, m)),
    "germ tau = nan": (ConfigurationError, "tau must be finite, got nan",
                       lambda m: germ_integral(0, ZEROS, np.nan, m)),
    "germ grid without s <= 0": (
        ConfigurationError, "no pole-side nodes",
        lambda m: germ_integral(0, ZEROS, 0.5, KahlerModel(1, 2.0, SGrid(1.0, 21.0, 81)))),
    "stalk grid without s <= 0": (
        ConfigurationError, "no pole-side nodes",
        lambda m: stalk_from_sequence(PotentialSequence(
            KahlerModel(1, 2.0, SGrid(1.0, 21.0, 81)), ((ZEROS, 0.5, None),)))),
    "empty sequence": (ConfigurationError, "sequence must be nonempty",
                       lambda m: PotentialSequence(m, ())),
    "sequence tau = 1": (ConfigurationError, "tau must lie in (0, 1)",
                         lambda m: PotentialSequence(m, ((ZEROS, 1.0, None),))),
    "dimension n < 1": (ConfigurationError, "dimension must be a positive integer",
                        lambda m: KahlerModel(0, 2.0, GRID)),
    # psi' underflows to 0 left of s ~ -745; right of s ~ 37 every slope is d
    "model grid left of psi's mass": (
        ConfigurationError,
        "psi has no finite mass at n = 1, d = 2 on the grid [-2000, -1000] of 101 points: "
        "its cell masses total 0",
        lambda m: KahlerModel(1, 2.0, SGrid(-2000.0, -1000.0, 101))),
    "model grid right of psi's mass": (
        ConfigurationError,
        "psi has no finite mass at n = 1, d = 2 on the grid [800, 1000] of 101 points: "
        "its cell masses total 0",
        lambda m: KahlerModel(1, 2.0, SGrid(800.0, 1000.0, 101))),
    "model mass d^n overflows": (
        ConfigurationError,
        "model mass d^n overflows at n = 400, d = 401 on the grid [-40, 40] of 4001 points: "
        "n log d = 2397.58 must be below log(DBL_MAX) = 709.783",
        lambda m: KahlerModel(400, 401.0)),
    "Lelong window outside the grid": (
        ConfigurationError, "Lelong window falls outside the grid",
        lambda m: lelong_secant(GRID, ZEROS.take, 5.0, anchor=GRID.s_max - 1.0)),
    "Lelong window = nan": (ConfigurationError, "window must be finite, got nan",
                            lambda m: lelong_secant(GRID, ZEROS.take, np.nan)),
    "Lelong anchor = nan": (ConfigurationError, "anchor must be finite, got nan",
                            lambda m: lelong_secant(GRID, ZEROS.take, 5.0, anchor=np.nan)),
}


@pytest.mark.parametrize("case", CASES)
def test_validator_names_what_it_rejects(case):
    error, message, call = CASES[case]
    with pytest.raises(error) as info:
        call(KahlerModel(1, 2.0, GRID))
    assert type(info.value) is error
    assert message in str(info.value)


@pytest.mark.parametrize("points", [81, np.int64(81)])
def test_grid_points_of_any_integer_type(points):
    assert SGrid(-10.0, 10.0, points) == GRID
