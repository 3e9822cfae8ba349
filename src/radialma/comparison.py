"""Comparison-principle checks and the pole-amplification experiment.

The maximum principle used throughout: if u >= v on the boundary of a
subinterval and the Monge-Ampere density of u is at most that of v inside
it, then u >= v on the whole subinterval. ``bt_compare`` verifies the
hypotheses before evaluating the conclusion and reports which hypothesis
failed when they do not hold. It reads the densities as the solver does,
the ``grid.cell_masses`` of the half-node slopes, a monotone scheme for
which the discrete comparison principle holds exactly, and holds every
reading to its rounding (``grid.rounding_floor``), not to a tolerance.

``bootstrap_lelong_bound`` renders the self-improvement step of the
amplification argument: wherever the solved perturbation is bounded above
by A on a pole neighbourhood, the density inequality pushes the pole
coefficient up to e^{-tau*A/n} * gamma. The bound is only valid on windows
containing the mollified mass; on smaller windows it overshoots, which is
the finite-mollification shadow of the blow-up contradiction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, CurvatureMarginWarning, require_finite
from .geometry import KahlerModel, pole_lelong
from .grid import RadialPotential, cell_masses, density_floor, grid_values, rounding_floor
from .rhs import check_lower_bound
from .solver import (
    SolveConfig,
    StepRecord,
    magnifying,
    neutral_oracle,
    sweep_epsilon,
)


@dataclass(frozen=True)
class ComparisonReport:
    holds: bool
    hypotheses_ok: bool
    failed_hypothesis: str | None
    first_violation_node: int | None
    margin: float

    def __post_init__(self):
        if self.holds and not self.hypotheses_ok:
            raise ConfigurationError("conclusion cannot be claimed without hypotheses")


def bt_compare(u: RadialPotential, v: RadialPotential, a: float, b: float) -> ComparisonReport:
    """Maximum-principle comparison of two potentials on [a, b], which
    must share one grid and one dimension n.

    Hypotheses: u >= v at both endpoints and density(u) <= density(v) on the
    open subinterval. When they hold, returns the conclusion margin
    min(u - v); ``holds`` is margin >= minus the rounding of the values.
    When they fail, names the failed hypothesis and claims nothing.

    With F the larger ``rounding_floor`` of u and v, values are held to
    their rounding F h^2, and the reduced densities to their
    ``density_floor`` F max(w_{i-1/2}, w_{i+1/2})^{n-1}, w the larger
    half-node slope magnitude of u and v: the rounding of a flux-form
    row.
    """
    if u.n != v.n:
        raise ConfigurationError(f"potentials of dimension n = {u.n} and n = {v.n} "
                                 "cannot be compared")
    u.grid.require_same(v.grid)
    grid = u.grid
    require_finite(a=a, b=b)
    if a < grid.s_min - 1e-12 or b > grid.s_max + 1e-12 or a >= b:
        raise ConfigurationError(f"subinterval [{a}, {b}] is not inside the grid")
    ia, ib = grid.index_of(a), grid.index_of(b)
    if ib - ia < 2:
        raise ConfigurationError("subinterval must contain interior nodes")

    h = grid.h
    floor = max(rounding_floor(u.values, h), rounding_floor(v.values, h))
    tol = floor * h**2
    du = u.values - v.values
    if du[ia] < -tol or du[ib] < -tol:
        node = ia if du[ia] < -tol else ib
        return ComparisonReport(False, False, "boundary domination",
                                int(node), float(min(du[ia], du[ib])))
    # compare the reduced densities (u')^{n-1} u'': the coordinate-volume
    # factor e^{-ns} is common and positive, so the measure inequality is
    # unchanged, and dropping it keeps the check at the rounding floor
    # instead of exponentially amplifying it at the pole side. The slopes
    # ia .. ib - 1 give the cell masses of the nodes ia + 1 .. ib - 1.
    wu, wv = u.slopes[ia:ib], v.slopes[ia:ib]
    limit = density_floor(floor, np.maximum(np.abs(wu), np.abs(wv)), u.n)
    dens_gap = cell_masses(wv, v.n, h) - cell_masses(wu, u.n, h)
    bad = np.nonzero(dens_gap < -limit)[0]
    if bad.size:
        return ComparisonReport(False, False, "density domination",
                                int(bad[0]) + ia + 1, float(dens_gap.min()))
    margin = float(du[ia:ib + 1].min())
    node = int(np.argmin(du[ia:ib + 1])) + ia
    return ComparisonReport(margin >= -tol, True, None,
                            None if margin >= -tol else node, margin)


def bootstrap_lelong_bound(phi, tau0: float, gamma: float, window: float,
                           model: KahlerModel) -> float:
    """Implied pole-coefficient lower bound e^{-tau0 * A_W / n} * gamma.

    A_W is the sup of the perturbation over [s_min, s_min + window]. The
    bound is at least gamma whenever the perturbation is nonpositive there,
    and shrinking the window can only increase it.
    """
    require_finite(gamma=gamma, window=window)
    if gamma <= 0:
        raise ConfigurationError(f"gamma must be positive, got {gamma}")
    if not (0.0 < tau0 < 1.0):
        raise ConfigurationError(f"tau0 must lie in (0, 1), got {tau0}")
    grid = model.grid
    vals = grid_values(phi, grid)
    if window <= 0 or grid.s_min + window > grid.s_max:
        raise ConfigurationError("window does not fit the grid")
    j = grid.index_of(grid.s_min + window)
    a_w = float(np.max(vals[:j + 1]))
    return math.exp(-tau0 * a_w / model.n) * gamma


@dataclass(frozen=True)
class MagnificationRow:
    """One member's record (param = eps), the neutral control's pole slope
    and the bootstrap bound; a failed member's record is its last
    continuation attempt, and its bound is nan."""

    record: StepRecord
    nu_neutral: float
    nu_bootstrap: float

    @property
    def nu_measured(self) -> float:
        """The member's recorded pole slope; nan when it failed."""
        return self.record.diagnostics.lelong.value if self.converged else math.nan

    @property
    def eps(self) -> float:
        return self.record.param

    @property
    def converged(self) -> bool:
        return self.record.converged


@dataclass(frozen=True)
class MagnificationReport:
    rows: tuple[MagnificationRow, ...]
    verdict: str
    eta: float


def magnification_experiment(model: KahlerModel, gamma: float, tau0: float,
                             eps_list, config: SolveConfig | None = None,
                             ) -> MagnificationReport:
    """Per-mollifier comparison of the amplifying solve against neutrality.

    tau0 outside (0, 1) is rejected before anything is built. The members
    are those of ``sweep_epsilon`` of the amplifying family at tau0 on the
    point-mass family of pole coefficient gamma: warm-started across the
    eps list from the last converged member dilated to the next mollifier,
    else continued in t from 0. Each row is a member's record, whose pole
    slope is ``nu_measured``, its neutral control's slope, read by the same
    secant ``pole_lelong``, and the bootstrap bound over the pole window
    [s_min, layer]. A failed member's row carries the record of its last
    continuation attempt and nan for its own slope and bound. The verdict
    is the sweep's: reached_target / barrier / average_blowup, the last
    when the volume averages grow by at least one unit at every mollifier
    step.

    The curvature margin eta is ``check_lower_bound`` of the first member.
    tau0 >= eta does not stop the run (the point-mass families genuinely
    fail the bound, which is what the probe is for) but is issued as a
    ``CurvatureMarginWarning``.
    """
    if not (0.0 < tau0 < 1.0):
        raise ConfigurationError(f"tau0 must lie in (0, 1), got {tau0}")
    trace, results = sweep_epsilon(model, gamma, magnifying(tau0), tau0, eps_list, config)
    eta = check_lower_bound(results[0].rhs).eta
    if tau0 >= eta:
        warnings.warn(
            f"tau0 = {tau0} is not below the curvature margin eta = {eta:.3g}; "
            "proceeding as an experimental probe", CurvatureMarginWarning, stacklevel=2)

    s_min, s_max, h = model.grid.s_min, model.grid.s_max, model.grid.h
    rows: list[MagnificationRow] = []
    for record, res in zip(trace.entries, results):
        rhs = res.rhs
        control = neutral_oracle(model, rhs)
        nu_neutral = pole_lelong(control.values - model.psi.values, model, rhs).value
        bound = math.nan
        if res.converged:
            # gamma > 0 builds a point mass, whose layer sets the window
            bound = 0.0 if gamma == 0.0 else bootstrap_lelong_bound(
                res.phi, tau0, gamma, min(max(rhs.pole_anchor - s_min, 4.0 * h),
                                          s_max - s_min - h), model)
        rows.append(MagnificationRow(record, nu_neutral, bound))
    return MagnificationReport(tuple(rows), trace.verdict, eta)
