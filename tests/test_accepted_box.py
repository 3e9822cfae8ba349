"""The accepted box is the tested box: every model, grid, family, equation
kind, eps and t that the validators accept is either rejected by name or
solved to finite diagnostics, one verdict and the grid's own mass."""

import math
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from radialma import (
    ConfigurationError,
    ConstraintViolationError,
    EquationKind,
    KahlerModel,
    SGrid,
    build_dirac_rhs,
    build_divisor_rhs,
    constant_rhs,
    continuity_in_t,
    neutral,
    newton_solve,
)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


def grid_mass(rhs) -> float:
    """The mass a solve on the truncated grid carries: psi's last slope
    power minus the first slope's, which holds the family's left flux."""
    m = rhs.model
    W = m.psi_slopes
    return W[-1] ** m.n - (W[0] + rhs.left_flux_offset) ** m.n


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(n=st.integers(1, 6), d=log_uniform(0.5, 40.0), width=log_uniform(5.0, 3000.0),
       left=st.floats(0.0, 1.0), points=st.sampled_from([5, 9, 101, 401, 1601, 4001]),
       family=st.sampled_from(["constant", "dirac", "divisor"]),
       strength=st.floats(0.0, 1.0, exclude_max=True),
       kind=st.sampled_from(["neutral", "magnifying", "reducing"]),
       log_eps=st.floats(-12.0, -0.5), t=st.floats(0.01, 0.98))
def test_accepted_box(n, d, width, left, points, family, strength, kind, log_eps, t):
    # the grid holds s = 0 at a fraction ``left`` of its width
    s_min = -left * width
    try:
        grid = SGrid(s_min, s_min + width, points)
    except ConfigurationError:
        return  # h >= log(DBL_MAX), rejected by name
    model = KahlerModel(n, d, grid)
    eps = 10.0**log_eps
    with warnings.catch_warnings():
        # a pole layer below the cut warns and goes on
        warnings.simplefilter("ignore", UserWarning)
        try:
            if family == "constant":
                rhs = constant_rhs(model)
            elif family == "dirac":
                rhs = build_dirac_rhs(strength * d, eps, model)
            else:
                rhs = build_divisor_rhs(strength * n, eps, model)
        except (ConfigurationError, ConstraintViolationError):
            # a pole mass above what a narrow grid holds; every constant and
            # divisor family with 0 <= delta' < n builds
            assert family == "dirac"
            return

    if kind == "neutral":
        results = [newton_solve(model, rhs, neutral())]
        records = [(0.0, results[0].diagnostics, results[0].converged)]
    else:
        trace, res = continuity_in_t(model, rhs, EquationKind(kind, t), t)
        assert trace.verdict in ("reached_target", "barrier")
        assert (trace.verdict == "reached_target") == res.converged
        records = [(r.param, r.diagnostics, r.converged) for r in trace.entries]

    mass = grid_mass(rhs)
    for param, diag, converged in records:
        lelong = diag.lelong
        assert all(math.isfinite(x) for x in (diag.sup_phi, diag.inf_phi, diag.avg_phi,
                                              lelong.value, lelong.sensitivity, diag.mass))
        # a neutral point-mass solve misses the grid mass by the pole mass
        # below the cut that c_smooth does not close (the open discrete mass
        # budget at n = 1), so its mass is not asserted
        if converged and not (param == 0.0 and rhs.kind == "dirac_approx"):
            assert abs(diag.mass - mass) <= 1e-8 * abs(mass), (param, diag.mass, mass)
