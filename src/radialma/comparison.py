"""The pole-amplification experiment.

``magnification_experiment`` runs the amplifying family across a mollifier
list and sets each member beside its neutral control and the bootstrap
bound, the table the lab prints for the pole-amplification argument.

``bootstrap_lelong_bound`` renders the self-improvement step of that
argument: wherever the solved perturbation is bounded above by A on a pole
neighbourhood, the density inequality pushes the pole coefficient up to
e^{-tau*A/n} * gamma. The bound is only valid on windows containing the
mollified mass, so it reads its one window, and gamma and n, from the
family phi solves for; on smaller windows it would overshoot, which is the
finite-mollification shadow of the blow-up contradiction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CurvatureMarginWarning, require_open_unit
from .grid import KahlerModel, grid_values
from .rhs import RhsFamily, check_lower_bound, pole_lelong, require_family
from .solver import (
    SolveConfig,
    StepRecord,
    magnifying,
    neutral_oracle,
    sweep_epsilon,
)


def bootstrap_lelong_bound(phi, tau0: float, rhs: RhsFamily) -> float:
    """Implied pole-coefficient lower bound e^{-tau0 * A / n} * gamma of
    the family ``rhs`` that phi solves for.

    A is the sup of phi (``grid_values``) over the one valid window, which
    holds the mollified mass: from s_min to the node nearest the pole
    anchor, its width clamped to [4h, s_max - s_min - h]. A family without
    a pole anchor (gamma = 0: the constant and divisor families) bounds 0.
    """
    require_open_unit(tau0=tau0)
    require_family(rhs)
    model, grid = rhs.model, rhs.model.grid
    vals = grid_values(phi, grid)
    if rhs.pole_anchor is None:
        return 0.0
    s_min, s_max, h = grid.s_min, grid.s_max, grid.h
    window = min(max(rhs.pole_anchor - s_min, 4.0 * h), s_max - s_min - h)
    j = grid.index_of(s_min + window)
    a_w = float(np.max(vals[:j + 1]))
    return math.exp(-tau0 * a_w / model.n) * rhs.gamma


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
    secant ``pole_lelong``, and the member's ``bootstrap_lelong_bound``,
    0 at gamma = 0. A failed member's row carries the record of its last
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

    rows: list[MagnificationRow] = []
    for record, res in zip(trace.entries, results):
        control = neutral_oracle(model, res.rhs)
        nu_neutral = pole_lelong(control.values - model.psi, res.rhs).value
        bound = bootstrap_lelong_bound(res.phi, tau0, res.rhs) if res.converged else math.nan
        rows.append(MagnificationRow(record, nu_neutral, bound))
    return MagnificationReport(tuple(rows), trace.verdict, eta)
