"""Every input validator raises its documented error type, naming what it
rejects, and each scalar rule of ``errors`` holds at every site that states it."""

import math
from dataclasses import replace

import numpy as np
import pytest

from radialma import (
    BundleSpec,
    ConfigurationError,
    ContinuityTrace,
    EquationKind,
    KahlerModel,
    PotentialSequence,
    RadialPotential,
    RhsFamily,
    SGrid,
    SolveConfig,
    StalkDescriptor,
    average,
    bootstrap_lelong_bound,
    build_dirac_rhs,
    build_divisor_rhs,
    constant_rhs,
    continuity_in_t,
    diagnostics_for,
    germ_integral,
    magnification_experiment,
    magnifying,
    neutral,
    newton_solve,
    pole_lelong,
    stalk_from_sequence,
    sweep_epsilon,
    tangent_on_line,
    trivial_lemma_report,
    xi_eps,
)
from radialma.rhs import MollifierProfile

GRID = SGrid(-10.0, 10.0, 81)
ZEROS = np.zeros(GRID.points)


def with_node_3(value):
    """ZEROS with ``value`` at node 3, a node no smooth pole secant reads."""
    phi = ZEROS.copy()
    phi[3] = value
    return phi


def family_with(field):
    """A call that sets ``field`` of a point-mass family on the model, whose
    layer at 2 log eps = -1.4 lies well inside GRID."""
    return lambda m, v: replace(build_dirac_rhs(1.0, 0.5, m), **{field: v})


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
    "dirac gamma < 0": (ConfigurationError, "gamma must be nonnegative",
                        lambda m: build_dirac_rhs(-0.1, 1e-3, m)),
    "dirac eps <= 0": (ConfigurationError, "eps must be positive",
                       lambda m: build_dirac_rhs(1.0, 0.0, m)),
    "dirac grid too narrow for the pole": (
        ConfigurationError,
        "first slope 1.8135 must lie in [0, 1.23194), the last slope of psi at s_max = 0.5: "
        "the grid is too narrow for pole mass gamma = 1.8, whose flux enters through the "
        "first face; widen s_max",
        pole_on_a_narrow_grid),
    # d^n = 1e300 is finite, gamma^n = 20^300 is not
    "dirac pole mass above a finite model mass overflows": (
        ConfigurationError,
        "pole mass gamma^n = e^898.72 exceeds the model mass 1e+300: gamma = 20 > d = 10",
        lambda m: build_dirac_rhs(20.0, 1e-3, KahlerModel(300, 10.0))),
    "divisor delta' < 0": (ConfigurationError, "delta' must be nonnegative",
                           lambda m: build_divisor_rhs(-0.1, 1e-3, m)),
    "divisor eps <= 0": (ConfigurationError, "eps must be positive",
                         lambda m: build_divisor_rhs(0.5, 0.0, m)),
    "profile off the model grid": (
        ConfigurationError, "profile does not live on the model grid",
        lambda m: RhsFamily("dirac_approx", m, profile=MollifierProfile(np.zeros(5), 0.0))),
    "unknown equation kind": (ConfigurationError, "unknown equation kind 'sideways'",
                              lambda m: EquationKind("sideways")),
    # the neutral factor reads no t, but t lies in [0, 1) for every kind
    "neutral kind at t = 7": (ConfigurationError, "t must lie in [0, 1), got 7.0",
                              lambda m: EquationKind("neutral", 7.0)),
    "neutral kind at t = nan": (ConfigurationError, "t must be finite, got nan",
                                lambda m: EquationKind("neutral", np.nan)),
    "magnifying kind at t = 'x'": (ConfigurationError, "t must be finite, got 'x'",
                                   lambda m: EquationKind("magnifying", "x")),
    # a degree is read as a Fraction, which neither nan nor inf has
    "BundleSpec degree = nan": (ConfigurationError, "degree must be finite, got nan",
                                lambda m: BundleSpec(((math.nan, 1),))),
    "BundleSpec degree = inf": (ConfigurationError, "degree must be finite, got inf",
                                lambda m: BundleSpec(((math.inf, 1),))),
    "unknown verdict": (ConfigurationError, "unknown verdict 'maybe'",
                        lambda m: ContinuityTrace((), "maybe")),
    "barrier without t_star": (ConfigurationError, "barrier verdict and t_star",
                               lambda m: ContinuityTrace((), "barrier")),
    "t_star without barrier": (ConfigurationError, "barrier verdict and t_star",
                               lambda m: ContinuityTrace((), "reached_target", 0.5)),
    "guess of the wrong shape": (
        ConfigurationError, "values shape (3,) does not match grid with 81 points",
        lambda m: newton_solve(m, constant_rhs(m), neutral(), start=np.zeros(3))),
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
    "later eps < 0": (ConfigurationError, "eps[1] must be positive, got -0.01",
                      lambda m: sweep_epsilon(m, 1.0, magnifying(0.5), 0.5, (1e-1, -1e-2))),
    # the constant family ignores eps, but the list is still a mollifier list
    "constant family over eps = 0": (
        ConfigurationError, "eps[1] must be positive, got 0.0",
        lambda m: sweep_epsilon(m, 0.0, neutral(), 0.0, (1e-1, 0.0),
                                rhs_builder=lambda eps: constant_rhs(m))),
    "infinite grid endpoint": (ConfigurationError, "s_min must be finite, got -inf",
                               lambda m: SGrid(-np.inf, 1.0, 5)),
    "nan grid endpoint": (ConfigurationError, "s_max must be finite, got nan",
                          lambda m: SGrid(0.0, np.nan, 5)),
    "fractional grid points": (ConfigurationError, "points must be an integer >= 5, got 4001.5",
                               lambda m: SGrid(-10.0, 10.0, 4001.5)),
    "float grid points": (ConfigurationError, "points must be an integer >= 5, got 4001.0",
                          lambda m: SGrid(-10.0, 10.0, 4001.0)),
    "numpy float grid points": (
        ConfigurationError, f"points must be an integer >= 5, got {np.float64(81)!r}",
        lambda m: SGrid(-10.0, 10.0, np.float64(81))),
    "bool grid points": (ConfigurationError, "points must be an integer >= 5, got True",
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
    # every reader of phi passes grid_values, whatever nodes it reads
    "average of a nan phi": (ConfigurationError, "potential values must be finite",
                             lambda m: average(with_node_3(np.nan), m)),
    "pole_lelong of a nan phi": (ConfigurationError, "potential values must be finite",
                                 lambda m: pole_lelong(with_node_3(np.nan), m)),
    "bootstrap of a nan phi": (
        ConfigurationError, "potential values must be finite",
        lambda m: bootstrap_lelong_bound(with_node_3(np.nan), 0.5, 1.0, 5.0, m)),
    "bootstrap of a +inf phi": (
        ConfigurationError, "potential values must be finite",
        lambda m: bootstrap_lelong_bound(with_node_3(np.inf), 0.5, 1.0, 5.0, m)),
    # a potential u is no array of node values: it is not read as phi
    "diagnostics_for of a potential": (ConfigurationError, "RadialPotential",
                                       lambda m: diagnostics_for(m.psi, m)),
    "average of a potential": (ConfigurationError, "RadialPotential",
                               lambda m: average(m.psi, m)),
    "pole_lelong of a potential": (ConfigurationError, "RadialPotential",
                                   lambda m: pole_lelong(m.psi, m)),
    "germ_integral of a potential": (ConfigurationError, "RadialPotential",
                                     lambda m: germ_integral(0, m.psi, 0.5, m)),
    "potential of dimension 0": (ConfigurationError, "dimension must be an integer >= 1, got 0",
                                 lambda m: RadialPotential(GRID, ZEROS, 0)),
    "potential of dimension 2.5": (
        ConfigurationError, "dimension must be an integer >= 1, got 2.5",
        lambda m: RadialPotential(GRID, ZEROS, 2.5)),
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
    "germ order k < 0": (ConfigurationError, "k must be an integer >= 0, got -1",
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
    "dimension n < 1": (ConfigurationError, "dimension must be an integer >= 1, got 0",
                        lambda m: KahlerModel(0, 2.0, GRID)),
    "dimension n = nan": (ConfigurationError, "dimension must be an integer >= 1, got nan",
                          lambda m: KahlerModel(np.nan, 2.0, GRID)),
    "lemma curvature margin = nan": (
        ConfigurationError, "curvature_margin must be finite, got nan",
        lambda m: trivial_lemma_report(StalkDescriptor(1, 1.5), np.nan)),
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


# every site of each scalar rule of ``errors``: the parameter's name as the
# rule reports it, for an integer the least value, and a call of a value on
# the n = 1, d = 2 model on GRID
INTEGER_SITES = {
    "SGrid points": ("points", 5, lambda m, v: SGrid(-10.0, 10.0, v)),
    "RadialPotential dimension": ("dimension", 1, lambda m, v: RadialPotential(GRID, ZEROS, v)),
    "KahlerModel dimension": ("dimension", 1, lambda m, v: KahlerModel(v, 2.0, GRID)),
    "SolveConfig max_iters": ("max_iters", 1, lambda m, v: SolveConfig(max_iters=v)),
    "germ_integral k": ("k", 0, lambda m, v: germ_integral(v, ZEROS, 0.5, m)),
    "BundleSpec rank": ("rank", 1, lambda m, v: BundleSpec(((2, v),))),
    "tangent_on_line n": ("n", 1, lambda m, v: tangent_on_line(v)),
}
OPEN_UNIT_SITES = {
    "continuity_in_t t_target": (
        "t_target", lambda m, v: continuity_in_t(m, constant_rhs(m), magnifying(0.5), v)),
    "PotentialSequence tau": ("tau", lambda m, v: PotentialSequence(m, ((ZEROS, v, None),))),
    "bootstrap_lelong_bound tau0": (
        "tau0", lambda m, v: bootstrap_lelong_bound(ZEROS, v, 1.0, 5.0, m)),
    "magnification_experiment tau0": (
        "tau0", lambda m, v: magnification_experiment(m, 1.0, v, (1e-1,))),
}
POSITIVE_SITES = {
    "xi_eps eps": ("eps", lambda m, v: xi_eps(0.0, v)),
    "build_dirac_rhs eps": ("eps", lambda m, v: build_dirac_rhs(1.0, v, m)),
    "build_divisor_rhs eps": ("eps", lambda m, v: build_divisor_rhs(0.5, v, m)),
    "bootstrap_lelong_bound gamma": (
        "gamma", lambda m, v: bootstrap_lelong_bound(ZEROS, 0.5, v, 5.0, m)),
    "KahlerModel degree": ("degree", lambda m, v: KahlerModel(1, v, GRID)),
    "SolveConfig newton_tol": ("newton_tol", lambda m, v: SolveConfig(newton_tol=v)),
}


def rejection(call, value) -> str:
    """The message of the ConfigurationError, of no other type, that
    ``call`` raises for ``value``."""
    with pytest.raises(ConfigurationError) as info:
        call(KahlerModel(1, 2.0, GRID), value)
    assert type(info.value) is ConfigurationError
    return str(info.value)


@pytest.mark.parametrize("bad", ["True", "2.0", "nan", "inf", "least - 1"])
@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_rule_at_every_site(site, bad):
    # a bool and an integral float are no integers, at every site alike
    name, least, call = INTEGER_SITES[site]
    value = {"True": True, "2.0": 2.0, "nan": math.nan, "inf": math.inf,
             "least - 1": least - 1}[bad]
    assert rejection(call, value) == f"{name} must be an integer >= {least}, got {value!r}"


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_rule_admits_a_numpy_integer(site):
    _, least, call = INTEGER_SITES[site]
    call(KahlerModel(1, 2.0, GRID), np.int64(least))


@pytest.mark.parametrize("value", [0.0, 1.0, math.nan, "x"])
@pytest.mark.parametrize("site", OPEN_UNIT_SITES)
def test_open_unit_rule_at_every_site(site, value):
    name, call = OPEN_UNIT_SITES[site]
    shown = repr(value) if isinstance(value, str) else value
    assert rejection(call, value) == f"{name} must lie in (0, 1), got {shown}"


@pytest.mark.parametrize("value,rule", [(0.0, "positive"), (-1.0, "positive"),
                                        (math.nan, "finite"), (math.inf, "finite"),
                                        ("x", "finite")])
@pytest.mark.parametrize("site", POSITIVE_SITES)
def test_positive_rule_at_every_site(site, value, rule):
    name, call = POSITIVE_SITES[site]
    shown = repr(value) if isinstance(value, str) else value
    assert rejection(call, value) == f"{name} must be {rule}, got {shown}"


# values that are no real number, each rejected wherever a scalar, a grid
# function or an eps list member is read; for grid functions also arrays a
# conversion to float would misread, for eps lists also a bare number or a
# string named as the list. Left out: the result records, which the
# library builds, and xi_eps's s, a coordinate array.
NOT_A_NUMBER = {"'x'": "x", "None": None, "True": True, "1+0j": 1 + 0j, "[0.5]": [0.5]}
NOT_A_GRID_FUNCTION = {
    **NOT_A_NUMBER,
    "numeric strings": np.full(GRID.points, "0.5"),
    "complex array": ZEROS + 0j,
    "list holding 'x'": [0.0] * (GRID.points - 1) + ["x"],
    "RadialPotential": RadialPotential(GRID, ZEROS, 1),
}
NOT_AN_EPS_LIST = {**{f"[{key}]": [value] for key, value in NOT_A_NUMBER.items()},
                   "['1e-2']": ["1e-2"], "bare float": 0.5, "'x'": "x"}
# the sites of each rule above, and every site that reads a finite number
SCALAR_SITES = {
    **{site: call for site, (_, _, call) in INTEGER_SITES.items()},
    **{site: call for site, (_, call) in OPEN_UNIT_SITES.items()},
    **{site: call for site, (_, call) in POSITIVE_SITES.items()},
    "SGrid s_min": lambda m, v: SGrid(v, 10.0, 81),
    "SGrid s_max": lambda m, v: SGrid(-10.0, v, 81),
    "build_dirac_rhs gamma": lambda m, v: build_dirac_rhs(v, 1e-1, m),
    "build_divisor_rhs delta_prime": lambda m, v: build_divisor_rhs(v, 1e-1, m),
    "magnifying t": lambda m, v: EquationKind("magnifying", v),
    "neutral t": lambda m, v: EquationKind("neutral", v),
    "sweep_epsilon gamma": lambda m, v: sweep_epsilon(m, v, magnifying(0.5), 0.5, (1e-1,)),
    "sweep_epsilon tau0": lambda m, v: sweep_epsilon(m, 1.0, magnifying(0.5), v, (1e-1,)),
    "neutral sweep_epsilon tau0": lambda m, v: sweep_epsilon(m, 1.0, neutral(), v, (1e-1,)),
    "magnification_experiment gamma": lambda m, v: magnification_experiment(m, v, 0.5, (1e-1,)),
    "bootstrap_lelong_bound window": lambda m, v: bootstrap_lelong_bound(ZEROS, 0.5, 1.0, v, m),
    "germ_integral tau": lambda m, v: germ_integral(0, ZEROS, v, m),
    "trivial_lemma_report eta": lambda m, v: trivial_lemma_report(StalkDescriptor(1, 1.5), v),
    "BundleSpec degree": lambda m, v: BundleSpec(((v, 1),)),
    **{f"RhsFamily {field}": family_with(field)
       for field in ("gamma", "epsilon", "delta_prime", "c_smooth", "left_flux_offset",
                     "pole_anchor", "profile_scale")},
}
GRID_FUNCTION_SITES = {
    "RadialPotential values": lambda m, v: RadialPotential(GRID, v, 1),
    "newton_solve start": lambda m, v: newton_solve(m, constant_rhs(m), magnifying(0.5),
                                                    start=v),
    "average phi": lambda m, v: average(v, m),
    "pole_lelong phi": lambda m, v: pole_lelong(v, m),
    "diagnostics_for phi": lambda m, v: diagnostics_for(v, m),
    "germ_integral phi": lambda m, v: germ_integral(0, v, 0.5, m),
    "bootstrap_lelong_bound phi": lambda m, v: bootstrap_lelong_bound(v, 0.5, 1.0, 5.0, m),
    "PotentialSequence phi": lambda m, v: PotentialSequence(m, ((v, 0.5, None),)),
}
EPS_LIST_SITES = {
    "sweep_epsilon eps_list": lambda m, v: sweep_epsilon(m, 1.0, magnifying(0.5), 0.5, v),
    "magnification_experiment eps_list": lambda m, v: magnification_experiment(m, 1.0, 0.5, v),
}
PROBES = [pytest.param(sites[site], inputs[key], id=f"{site}-{key}")
          for sites, inputs in ((SCALAR_SITES, NOT_A_NUMBER),
                                (GRID_FUNCTION_SITES, NOT_A_GRID_FUNCTION),
                                (EPS_LIST_SITES, NOT_AN_EPS_LIST))
          for site in sites for key in inputs
          # None is the default start, phi = 0, and a family without a pole anchor
          if not (site in ("newton_solve start", "RhsFamily pole_anchor") and key == "None")]


@pytest.mark.parametrize("call,value", PROBES)
def test_a_non_number_is_a_configuration_error(call, value):
    rejection(call, value)
