"""The pole-amplification experiment.

``magnification_experiment`` runs the amplifying family across a mollifier
list and sets each member beside its neutral control and the bootstrap
bound, the table the lab prints for the pole-amplification argument.

``bootstrap_lelong_bound`` renders the self-improvement step of that
argument: wherever the solved perturbation is bounded above by A on a pole
neighbourhood, the density inequality pushes the pole coefficient up to
e^{-tau*A/n} * gamma. The bound is only valid on windows containing the
mollified mass; on smaller windows it overshoots, which is the
finite-mollification shadow of the blow-up contradiction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, CurvatureMarginWarning, require_open_unit,
                     require_positive)
from .geometry import KahlerModel, pole_lelong
from .grid import grid_values
from .rhs import check_lower_bound
from .solver import (
    SolveConfig,
    StepRecord,
    magnifying,
    neutral_oracle,
    sweep_epsilon,
)


def bootstrap_lelong_bound(phi, tau0: float, gamma: float, window: float,
                           model: KahlerModel) -> float:
    """Implied pole-coefficient lower bound e^{-tau0 * A_W / n} * gamma.

    A_W is the sup of phi (``grid_values``) over [s_min, s_min + window],
    a positive window that fits the grid (``require_positive``). The
    bound is at least gamma whenever the perturbation is nonpositive there,
    and shrinking the window can only increase it.
    """
    require_positive(gamma=gamma, window=window)
    require_open_unit(tau0=tau0)
    grid = model.grid
    vals = grid_values(phi, grid)
    if grid.s_min + window > grid.s_max:
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
    require_open_unit(tau0=tau0)
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
        nu_neutral = pole_lelong(control.values - model.psi.values, rhs).value
        bound = math.nan
        if res.converged:
            # gamma > 0 builds a point mass, whose layer sets the window
            bound = 0.0 if gamma == 0.0 else bootstrap_lelong_bound(
                res.phi, tau0, gamma, min(max(rhs.pole_anchor - s_min, 4.0 * h),
                                          s_max - s_min - h), model)
        rows.append(MagnificationRow(record, nu_neutral, bound))
    return MagnificationReport(tuple(rows), trace.verdict, eta)
