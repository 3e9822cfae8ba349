"""Damped Newton solver and continuity drivers for the reduced equations.

The three equation families for the perturbation phi = u - psi are, in
reduced variables,

    (u')^{n-1} u'' = e^{sigma * t * phi} F (psi')^{n-1} psi''

with sigma = +1 (pole-shrinking family), 0 (pole-neutral family) and
-1 (pole-amplifying family). The left side is d[(u')^n] / (n ds), and
interior node i carries it in flux form: with the half-node slopes
w_{i+1/2} = (u_{i+1} - u_i) / h = ``psi_slopes`` + (phi_{i+1} - phi_i) / h,

    ((w_{i+1/2})^n - (w_{i-1/2})^n) / (n h) = e^{sigma t phi_i} R_i,

where R is the cell mass of the right-hand side (``RhsFamily.density``).
The two boundary rows are flux rows on the end half-node slopes of phi:
(phi_1 - phi_0) / h = ``RhsFamily.left_flux_offset`` and
(phi_{N-1} - phi_{N-2}) / h = 0. They pin the total reduced mass of every
solution to the model mass and leave the additive level to the equation.
The neutral family is level-invariant, so its right row is replaced by the
anchor phi(s_max) = 0.

The rows telescope for every n, so the neutral equation has an exact
discrete first integral: the slope powers accumulate the cell masses from
the first slope the left row fixes. ``neutral_oracle`` integrates it by
quadrature, and ``newton_solve`` returns that quadrature for every kind
whose exponent rate is 0, with no Newton iteration and ignoring
``initial_guess``.

For the time-dependent families ``residual_from_perturbation`` is the one
evaluation of the operator per Newton iterate: it returns the residual
together with the half-node slopes and e^{sigma t phi} it was built from,
and ``_assemble_jacobian`` linearises that same evaluation into a
tridiagonal, symmetric on its interior rows.

Each continuation routine decides by one rule. ``continuity_in_t``
steps as far as Newton converges: its step in t starts at DT_INITIAL = 0.1,
doubles after every accepted step and halves after every failed one. It
reaches its target or ends in a barrier when the step falls below
BARRIER_STEP_FLOOR = 1e-6, and returns the last solve it attempted.
``solve_family`` takes a member's warm start or else its continuation, and
``family_verdict`` judges blow-up across the family. The warm start is a predictor in eps: the
point-mass mollifier is one profile translated in s, so the last
converged member is dilated to the new mollifier (``_dilated``) before
its level is balanced.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConfigurationError
from .geometry import Diagnostics, KahlerModel, average, lelong_estimate, mass
from .grid import RadialPotential, derivative, grid_values
from .rhs import RhsFamily, build_dirac_rhs

LELONG_WINDOW = 5.0
LELONG_CAP = -1.0
BLOWUP_STEP = 1.0
BARRIER_STEP_FLOOR = 1e-6
MAX_HALVINGS = 20
DT_INITIAL = 0.1

_SIGNS = {"reducing": 1.0, "neutral": 0.0, "magnifying": -1.0}


@dataclass(frozen=True)
class EquationKind:
    """Which exponential factor multiplies F, and at what time t."""

    kind: str
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGNS:
            raise ConfigurationError(f"unknown equation kind {self.kind!r}")
        if self.kind != "neutral" and not (0.0 <= self.t < 1.0):
            raise ConfigurationError(f"t must lie in [0, 1), got {self.t}")

    @property
    def sign(self) -> float:
        return _SIGNS[self.kind]

    @property
    def exponent_rate(self) -> float:
        """Coefficient of phi in the exponent (0 for the neutral family)."""
        return self.sign * (0.0 if self.kind == "neutral" else self.t)


def reducing(t: float) -> EquationKind:
    return EquationKind("reducing", t)


def neutral() -> EquationKind:
    return EquationKind("neutral")


def magnifying(t: float) -> EquationKind:
    return EquationKind("magnifying", t)


@dataclass(frozen=True)
class SolveConfig:
    newton_tol: float = 1e-10
    max_iters: int = 50
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ConfigurationError("newton_tol must be positive")
        if self.max_iters < 1:
            raise ConfigurationError("max_iters must be positive")


@dataclass(frozen=True)
class SolveResult:
    u: RadialPotential
    phi: np.ndarray
    diagnostics: Diagnostics
    converged: bool
    iterations: int
    residual_norm: float
    kind: EquationKind   # the equation solved, with its t
    message: str = ""


@dataclass(frozen=True)
class StepRecord:
    param: float
    diagnostics: Diagnostics
    converged: bool
    iterations: int
    residual_norm: float


@dataclass(frozen=True)
class ContinuityTrace:
    entries: tuple[StepRecord, ...]
    verdict: str                         # reached_target / barrier; families also average_blowup
    t_star: float | None = None
    barrier_param: float | None = None

    def __post_init__(self):
        if self.verdict not in ("reached_target", "barrier", "average_blowup"):
            raise ConfigurationError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "barrier") != (self.t_star is not None or self.barrier_param is not None):
            raise ConfigurationError("barrier verdict and barrier location must be set together")


# ---------------------------------------------------------------------------
# Residual and linearisation


def _exponent(kind: EquationKind, phi: np.ndarray) -> np.ndarray:
    rate = kind.exponent_rate
    if rate == 0.0:
        return np.ones_like(phi)
    return np.exp(np.clip(rate * phi, -700.0, 700.0))


class Evaluation(NamedTuple):
    """The discrete operator at one perturbation: the residual and the
    terms it was built from, which the Jacobian reuses."""

    residual: np.ndarray
    w: np.ndarray    # half-node slopes of u, N - 1 of them
    ex: np.ndarray   # e^{sigma t phi} on interior nodes


def residual(u, model: KahlerModel, rhs: RhsFamily, kind: EquationKind) -> np.ndarray:
    """Nodewise residual; identically zero at exact discrete solutions.

    Interior rows are the flux differences of the half-node slope powers
    minus e^{sigma t phi} times the cell masses; the first and last rows are
    the flux conditions on phi (for the rate-0 kinds the last row is the
    level anchor phi(s_max) = 0).

    The slopes of psi and of phi are differenced separately, so rounding
    noise scales with |phi| rather than |u| and F = 1, phi = 0 is an exact
    zero.
    """
    phi = grid_values(u, model.grid) - model.psi.values
    return residual_from_perturbation(phi, model, rhs, kind).residual


def residual_from_perturbation(phi: np.ndarray, model: KahlerModel, rhs: RhsFamily,
                               kind: EquationKind) -> Evaluation:
    """The discrete operator as a function of phi = u - psi directly.

    This is the solver's native variable: representing u = psi + phi first
    would absorb small perturbations into the rounding of the large psi
    values, so callers probing derivatives use this form. The returned
    ``Evaluation`` carries the residual and the half-node slopes and
    exponentials that ``_assemble_jacobian`` linearises.
    """
    n, h = model.n, model.grid.h
    w = model.psi_slopes + np.diff(phi) / h
    ex = _exponent(kind, phi[1:-1])
    r = np.empty_like(phi)
    r[1:-1] = np.diff(w ** n) / (n * h) - ex * rhs.interior_density
    r[0] = (phi[1] - phi[0]) / h - rhs.left_flux_offset
    r[-1] = phi[-1] if kind.exponent_rate == 0.0 else (phi[-1] - phi[-2]) / h
    return Evaluation(r, w, ex)


def _assemble_jacobian(ev: Evaluation, model: KahlerModel, rhs: RhsFamily,
                       kind: EquationKind):
    """Jacobian at an evaluated iterate of a time-dependent kind, as its
    three diagonals ``(dl, d, du)``: row i holds dl[i-1], d[i], du[i] in
    columns i-1, i, i+1.

    Interior row i linearises the flux difference minus e^{sigma t phi} R
    as (c_{i+1/2} (v_{i+1} - v_i) - c_{i-1/2} (v_i - v_{i-1})) / h^2
    - sigma t e^{sigma t phi} R v_i, with c = w^{n-1}: symmetric, with the
    conductances c / h^2 off the diagonal. The two flux rows are linear in
    phi, with entries -1/h and 1/h.
    """
    n, h = model.n, model.grid.h
    c = ev.w ** (n - 1) / h**2
    d = np.empty(c.size + 1)
    d[1:-1] = -(c[1:] + c[:-1]) - kind.exponent_rate * ev.ex * rhs.interior_density
    dl, du = c, c.copy()
    d[0], du[0] = -1.0 / h, 1.0 / h
    dl[-1], d[-1] = -1.0 / h, 1.0 / h
    return dl, d, du


def _solve_newton_step(dl: np.ndarray, d: np.ndarray, du: np.ndarray,
                       r: np.ndarray) -> np.ndarray:
    """Row-equilibrated tridiagonal solve for J v = -r; overwrites the diagonals.

    Each row is first scaled by its largest entry, which keeps the far
    tails, where the reduced weights span many orders of magnitude, from
    poisoning the factorisation. LAPACK ``gtsv`` (Gaussian elimination with
    partial pivoting) then solves the system; a zero pivot raises
    ``np.linalg.LinAlgError``.
    """
    rs = np.abs(d)
    rs[:-1] = np.maximum(rs[:-1], np.abs(du))
    rs[1:] = np.maximum(rs[1:], np.abs(dl))
    rs[rs == 0.0] = 1.0
    d /= rs
    du /= rs[:-1]
    dl /= rs[1:]
    *_, v, info = dgtsv(dl, d, du, -r / rs, overwrite_dl=True, overwrite_d=True,
                        overwrite_du=True, overwrite_b=True)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular matrix: zero pivot at row {info}")
    return v


def _slope_floor(phi: np.ndarray, h: float) -> float:
    """Rounding floor below which the sign of u' is not decidable."""
    return 64.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(phi)))) / h


# ---------------------------------------------------------------------------
# Newton iteration


def newton_solve(model: KahlerModel, rhs: RhsFamily, kind: EquationKind,
                 config: SolveConfig | None = None) -> SolveResult:
    """Damped Newton iteration from ``config.initial_guess`` (default phi = 0).

    A kind whose exponent rate is 0 (the neutral family, or t = 0) is
    solved exactly by the quadrature of ``neutral_oracle`` instead, with 0
    iterations; ``initial_guess`` is then ignored.

    Backtracking halves the step until the sup-norm residual decreases;
    for n >= 2 candidates whose half-node slopes of u lose positivity beyond
    rounding are rejected during damping. Convergence requires the sup-norm
    residual at or below ``newton_tol``; the converged flag additionally
    requires the discrete Kahler positivity of the final iterate. A result
    that is not converged always says why in ``message``.
    """
    cfg = config or SolveConfig()
    model.grid.require_same(rhs.model.grid)
    n, h = model.n, model.grid.h
    max_iters = cfg.max_iters
    message = ""
    if cfg.initial_guess is not None:
        phi = np.array(cfg.initial_guess, dtype=float, copy=True)
        if phi.shape != (model.grid.points,):
            raise ConfigurationError("initial guess does not live on the model grid")
    else:
        phi = np.zeros(model.grid.points)
    if kind.exponent_rate == 0.0:
        phi, max_iters = _neutral_perturbation(model, rhs), 0

    ev = residual_from_perturbation(phi, model, rhs, kind)
    rnorm = float(np.max(np.abs(ev.residual)))
    iters = 0
    while rnorm > cfg.newton_tol and iters < max_iters:
        try:
            # assembled inline, so the diagonals are freed before damping
            v = _solve_newton_step(*_assemble_jacobian(ev, model, rhs, kind), ev.residual)
        except np.linalg.LinAlgError as exc:
            message = f"linear solve singular: {exc}"
            break
        if not np.all(np.isfinite(v)):
            message = "linear solve produced non-finite step"
            break
        lam = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            cand = phi + lam * v
            if n > 1:
                floor = _slope_floor(cand, h)
                if np.min(model.psi_slopes + np.diff(cand) / h) <= -floor:
                    lam *= 0.5
                    continue
            ec = residual_from_perturbation(cand, model, rhs, kind)
            rcn = float(np.max(np.abs(ec.residual)))
            if np.isfinite(rcn) and rcn < rnorm:
                phi, ev, rnorm = cand, ec, rcn
                accepted = True
                break
            del ec  # a rejected evaluation is not kept while the next is built
            lam *= 0.5
        iters += 1
        if not accepted:
            message = "damping exhausted without residual decrease"
            break

    u = RadialPotential(model.grid, model.psi.values + phi, n)
    converged = rnorm <= cfg.newton_tol
    if not converged and not message:
        message = ("quadrature solution misses newton_tol" if max_iters == 0
                   else f"max_iters reached, residual {rnorm:.3g}")
    if converged and not u.is_kahler():
        idx, which = u.kahler_violation()
        converged = False
        message = f"residual converged but {which} fails positivity at node {idx}"
    return SolveResult(
        u=u,
        phi=phi,
        diagnostics=diagnostics_for(phi, model, rhs),
        converged=converged,
        iterations=iters,
        residual_norm=rnorm,
        kind=kind,
        message=message,
    )


# ---------------------------------------------------------------------------
# Neutral first-integral oracle


def neutral_oracle(model: KahlerModel, rhs: RhsFamily) -> RadialPotential:
    """Direct quadrature solution of the neutral equation.

    The exact discrete solution of the flux-form rows for every n, which
    ``newton_solve`` returns for the rate-0 kinds. No Newton machinery is
    involved; see ``_neutral_perturbation``.
    """
    return RadialPotential(model.grid, model.psi.values + _neutral_perturbation(model, rhs),
                           model.n)


def _neutral_perturbation(model: KahlerModel, rhs: RhsFamily) -> np.ndarray:
    """phi of the neutral quadrature, built in phi-space.

    Telescopes the discrete first integral: the left flux row fixes the
    first half-node slope of u at psi's plus ``left_flux_offset``, and the
    slope powers accumulate the cell masses n h R_i from there. phi's own
    half-node slopes are summed backwards from the anchor phi(s_max) = 0;
    building u first and subtracting psi would leave the rounding of |u| in
    phi's differences.
    """
    n, h = model.n, model.grid.h
    W, R = model.psi_slopes, rhs.interior_density
    w0 = max(W[0] + rhs.left_flux_offset, 0.0)
    # cumulative cell masses can dip below zero by rounding noise in the
    # flat tails; the physical slope power is nonnegative
    w_pow = np.maximum(w0**n + np.concatenate([[0.0], np.cumsum(n * h * R)]), 0.0)
    phi = np.zeros(model.grid.points)
    phi[:-1] = -np.cumsum(h * (w_pow ** (1.0 / n) - W)[::-1])[::-1]
    return phi


# ---------------------------------------------------------------------------
# Diagnostics


def diagnostics_for(phi, model: KahlerModel, rhs: RhsFamily | None = None) -> Diagnostics:
    """Diagnostics of a perturbation: extrema, volume average, pole data.

    The Lelong secant is anchored at s_min for smooth families. For the
    mollified point-mass families the finite-eps solution is flat below the
    layer at 2 log(eps), so the secant is anchored just above the layer
    (and capped away from the bulk chart boundary), where the limiting
    slope has formed.
    """
    grid = model.grid
    vals = grid_values(phi, grid)
    u = RadialPotential(grid, model.psi.values + vals, model.n)
    if rhs is not None and rhs.pole_anchor is not None:
        # anchor just above the mollified layer, capped away from the bulk
        cap = min(LELONG_CAP, grid.s_max - 4.0 * grid.h)
        a0 = max(rhs.pole_anchor, grid.s_min)
        b = min(a0 + LELONG_WINDOW, cap)
        a = max(min(a0, b - max(4.0 * grid.h, 1.0)), grid.s_min)
        if b - a >= 4.0 * grid.h:
            est = lelong_estimate(u, b - a, anchor=a)
        else:
            est = lelong_estimate(u, LELONG_WINDOW)
    else:
        est = lelong_estimate(u, LELONG_WINDOW)
    return Diagnostics(
        sup_phi=float(np.max(vals)),
        inf_phi=float(np.min(vals)),
        avg_phi=average(vals, model),
        lelong=est,
        mass=mass(u),
    )


def pole_slope_sample(phi, model: KahlerModel, rhs: RhsFamily) -> float:
    """u' sampled at the pole-adjacent node, the per-eps pole-mass reading.

    The derivative of the solved potential just above the mollified layer
    (capped at s = 0, the chart's unit sphere) measures the slope the
    singular mass has produced; comparisons across equation kinds at equal
    eps use this common sample point.
    """
    grid = model.grid
    u = model.psi.values + grid_values(phi, grid)
    anchor = rhs.pole_anchor if rhs.pole_anchor is not None else grid.s_min
    i = grid.index_of(min(anchor, 0.0))
    i = min(max(i, 1), grid.points - 2)
    return float(derivative(u[i - 1:i + 2], grid.h)[1])


# ---------------------------------------------------------------------------
# Continuity drivers


def _mass_balanced_shift(phi: np.ndarray, rhs: RhsFamily, kind: EquationKind) -> np.ndarray:
    """Shift phi by the constant that balances the effective mass at time t.

    The additive level of the time-dependent families moves with t; warm
    starts converge much faster after the level is preset so that
    sum(e^{rate*(phi+kappa)} R) equals sum(R).
    """
    rate = kind.exponent_rate
    if rate == 0.0:
        return phi
    R = rhs.interior_density
    log_eff = float(np.max(rate * phi[1:-1]))
    # log sum exp, stable
    z = rate * phi[1:-1] - log_eff
    log_sum = log_eff + np.log(np.sum(np.exp(z) * R))
    kappa = (np.log(np.sum(R)) - log_sum) / rate
    return phi + kappa


def _dilated(phi: np.ndarray, model: KahlerModel, prev: RhsFamily,
             rhs: RhsFamily) -> np.ndarray:
    """A family member's phi carried to the next mollifier by dilation.

    The point-mass mollifier is one profile under translation in s,
    xi_eps(s) = 2 log eps + xi_1(s - 2 log eps), so the pole layer and the
    solution above it move with ``pole_anchor``. u = psi + phi is resampled
    at s + (prev.pole_anchor - rhs.pole_anchor), linearly between nodes,
    with its last half-node slope past s_max and at its first value below
    s_min, and psi is subtracted again. Without an anchor on either side, or
    with equal anchors, phi is returned as is.
    """
    if prev.pole_anchor is None or rhs.pole_anchor is None:
        return phi
    shift = prev.pole_anchor - rhs.pole_anchor
    if shift == 0.0:
        return phi
    s, h = model.grid.nodes, model.grid.h
    u = model.psi.values + phi
    x = s + shift
    moved = np.interp(x, s, u)
    beyond = x > s[-1]
    moved[beyond] = u[-1] + (u[-1] - u[-2]) / h * (x[beyond] - s[-1])
    return moved - model.psi.values


def continuity_in_t(model: KahlerModel, rhs: RhsFamily, kind: EquationKind,
                    t_target: float, config: SolveConfig | None = None,
                    ) -> tuple[ContinuityTrace, SolveResult]:
    """Adaptive continuation in t from the neutral base to ``t_target``.

    Each accepted step warm-starts the next after a mass-balancing level
    shift. The step starts at DT_INITIAL = 0.1 and doubles after every
    accepted step, with no cap but the target; Newton failure halves it.
    When the step falls below BARRIER_STEP_FLOOR = 1e-6 the run is declared
    a barrier at the last solved time. The verdict is ``reached_target`` or
    ``barrier``.

    The returned result is the last solve attempted: the solve at
    ``t_target``, the failed attempt recorded as ``trace.entries[-1]`` on a
    barrier, or the failed neutral base. So it is converged exactly when
    the verdict is ``reached_target``.
    """
    if kind.kind == "neutral":
        raise ConfigurationError("continuity in t applies to the time-dependent families")
    if not (0.0 < t_target < 1.0):
        raise ConfigurationError(f"t_target must lie in (0, 1), got {t_target}")
    cfg = config or SolveConfig()

    step = newton_solve(model, rhs, neutral(), cfg)
    entries = [StepRecord(0.0, step.diagnostics, step.converged,
                          step.iterations, step.residual_norm)]
    t = 0.0
    dt = min(DT_INITIAL, t_target)
    while step.converged and t < t_target - 1e-14:
        t_try = min(t + dt, t_target)
        guess = _mass_balanced_shift(step.phi, rhs, EquationKind(kind.kind, t_try))
        attempt = newton_solve(model, rhs, EquationKind(kind.kind, t_try),
                               replace(cfg, initial_guess=guess))
        if attempt.converged:
            step, t = attempt, t_try
            entries.append(StepRecord(t, step.diagnostics, True,
                                      step.iterations, step.residual_norm))
            dt *= 2.0
        else:
            dt *= 0.5
            if dt < BARRIER_STEP_FLOOR:
                step = attempt
                entries.append(StepRecord(t_try, step.diagnostics, False,
                                          step.iterations, step.residual_norm))
    verdict = "reached_target" if step.converged else "barrier"
    trace = ContinuityTrace(tuple(entries), verdict,
                            t_star=(t if verdict == "barrier" else None))
    return trace, step


def solve_family(model: KahlerModel, kind: EquationKind, rhs_list,
                 config: SolveConfig | None = None) -> list[SolveResult]:
    """Solve one equation kind for each right-hand side of a family, in order.

    Neutral members are solved cold. A time-dependent member is its warm
    start from the last converged member, dilated to the member's
    mollifier and then given a mass-balancing level shift, or, for the
    first member and when the warm start fails, the result of continuing in
    t from its neutral base. Every member gets a result, converged at
    kind.t or not.
    """
    cfg = config or SolveConfig()
    if kind.kind == "neutral":
        return [newton_solve(model, rhs, kind, cfg) for rhs in rhs_list]
    results: list[SolveResult] = []
    prev_phi = prev_rhs = None
    for rhs in rhs_list:
        res = None
        if prev_phi is not None:
            guess = _mass_balanced_shift(_dilated(prev_phi, model, prev_rhs, rhs), rhs, kind)
            res = newton_solve(model, rhs, kind, replace(cfg, initial_guess=guess))
        if res is None or not res.converged:
            _, res = continuity_in_t(model, rhs, kind, kind.t, cfg)
        results.append(res)
        if res.converged:
            prev_phi, prev_rhs = res.phi, rhs
    return results


def family_verdict(results) -> str:
    """The verdict of a family solved across a decreasing mollifier list.

    ``barrier`` when some member failed; ``average_blowup`` when the volume
    averages rise by at least BLOWUP_STEP at every step of the list;
    otherwise ``reached_target``. The rule counts listed steps, so it
    depends on the spacing of the list (one unit per decade in the
    experiments).
    """
    if not all(res.converged for res in results):
        return "barrier"
    avgs = [res.diagnostics.avg_phi for res in results]
    if len(avgs) >= 2 and all(b - a >= BLOWUP_STEP for a, b in zip(avgs, avgs[1:])):
        return "average_blowup"
    return "reached_target"


def sweep_epsilon(model: KahlerModel, gamma: float, kind: EquationKind,
                  tau0: float, eps_list, config: SolveConfig | None = None,
                  rhs_builder=None,
                  ) -> tuple[ContinuityTrace, list[SolveResult]]:
    """Solve the family at fixed time tau0 across a decreasing mollifier list.

    For a time-dependent kind tau0 must equal kind.t. Per-eps results are
    recorded in input order (failures included, the sweep continues); the
    verdict is ``family_verdict`` of the members, and a barrier is located
    at the first failed eps.
    """
    if kind.kind != "neutral" and tau0 != kind.t:
        raise ConfigurationError(f"tau0 = {tau0} does not match the {kind.kind} "
                                 f"family's t = {kind.t}")
    eps_arr = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_arr, eps_arr[1:])):
        raise ConfigurationError("eps list must be strictly decreasing")
    builder = rhs_builder or (lambda eps: build_dirac_rhs(gamma, eps, model))
    results = solve_family(model, kind, [builder(eps) for eps in eps_arr], config)
    entries = tuple(StepRecord(eps, res.diagnostics, res.converged,
                               res.iterations, res.residual_norm)
                    for eps, res in zip(eps_arr, results))
    failed = [eps for eps, res in zip(eps_arr, results) if not res.converged]
    trace = ContinuityTrace(entries, family_verdict(results),
                            barrier_param=failed[0] if failed else None)
    return trace, results
