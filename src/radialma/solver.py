"""Damped Newton solver and continuity drivers for the reduced equations.

The three equation families for the perturbation phi = u - psi are, in
reduced variables,

    (u')^{n-1} u'' = e^{sigma * t * phi} F (psi')^{n-1} psi''

with sigma = +1 (pole-shrinking family), 0 (pole-neutral family) and
-1 (pole-amplifying family). Interior nodes carry the equation with central
differences; the two boundary rows prescribe the one-sided slope of phi
(flux conditions), which pins the total reduced mass of every solution to
the model mass and leaves the additive level to the equation. The neutral
family is level-invariant, so its right row is replaced by the anchor
phi(s_max) = 0.

A key identity of the central stencils: with half-node slopes
w_{i+1/2} = (u_{i+1} - u_i)/h,

    u'_i u''_i = (w_{i+1/2}^2 - w_{i-1/2}^2) / (2h),

and likewise u''_i telescopes for n = 1. The neutral equation therefore has
an exact discrete first integral, which ``neutral_oracle`` integrates
directly (no Newton iteration); for n <= 2 the oracle and the Newton path
solve algebraically identical systems and must agree to solver tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.linalg.lapack import dgtsv

from .errors import ConfigurationError
from .geometry import Diagnostics, KahlerModel, average, lelong_estimate, mass
from .grid import RadialPotential, derivative, second_derivative
from .rhs import RhsFamily, build_dirac_rhs, xi_eps, xi_eps_d1

LELONG_WINDOW = 5.0
LELONG_CAP = -1.0
DIVERGENCE_THRESHOLD = 50.0
BLOWUP_STEP = 1.0
BARRIER_STEP_FLOOR = 1e-6

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
    max_halvings: int = 20
    initial_guess: np.ndarray | None = None

    def __post_init__(self):
        if self.newton_tol <= 0:
            raise ConfigurationError("newton_tol must be positive")
        if self.max_iters < 1 or self.max_halvings < 1:
            raise ConfigurationError("iteration limits must be positive")


@dataclass(frozen=True)
class SolveResult:
    u: RadialPotential
    phi: np.ndarray
    diagnostics: Diagnostics
    converged: bool
    iterations: int
    residual_norm: float
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
    parameter: str                       # "t" or "eps"
    entries: tuple[StepRecord, ...]
    verdict: str                         # reached_target / barrier / average_blowup
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


def residual(u, model: KahlerModel, rhs: RhsFamily, kind: EquationKind) -> np.ndarray:
    """Nodewise residual; identically zero at exact discrete solutions.

    Interior rows are (u')^{n-1} u'' - e^{sigma t phi} F (psi')^{n-1} psi'';
    the first and last rows are the flux conditions on phi (for the neutral
    family the last row is the level anchor phi(s_max) = 0).

    The derivative stencils are applied to psi and to phi separately, so
    rounding noise scales with |phi| rather than |u| and F = 1, phi = 0 is
    an exact zero.
    """
    if isinstance(u, RadialPotential):
        phi = u.values - model.psi.values
    else:
        phi = np.asarray(u, dtype=float) - model.psi.values
    return residual_from_perturbation(phi, model, rhs, kind)


def residual_from_perturbation(phi: np.ndarray, model: KahlerModel, rhs: RhsFamily,
                               kind: EquationKind) -> np.ndarray:
    """Residual as a function of phi = u - psi directly.

    This is the solver's native variable: representing u = psi + phi first
    would absorb small perturbations into the rounding of the large psi
    values, so callers probing derivatives use this form.
    """
    n, h = model.n, model.grid.h
    p1 = derivative(phi, h)
    p2 = second_derivative(phi, h)
    u1 = model.psi_d1 + p1
    u2 = model.psi_d2 + p2
    r = np.empty_like(phi)
    ex = _exponent(kind, phi[1:-1])
    r[1:-1] = u1[1:-1] ** (n - 1) * u2[1:-1] - ex * rhs.interior_density
    r[0] = (-3.0 * phi[0] + 4.0 * phi[1] - phi[2]) / (2.0 * h) - rhs.left_flux_offset
    if kind.exponent_rate == 0.0:
        r[-1] = phi[-1]
    else:
        r[-1] = (3.0 * phi[-1] - 4.0 * phi[-2] + phi[-3]) / (2.0 * h)
    return r


def apply_linearization(u, v: np.ndarray, model: KahlerModel, rhs: RhsFamily,
                        kind: EquationKind) -> np.ndarray:
    """Directional derivative of the interior residual at u in direction v:

        (n-1)(u')^{n-2} u'' v' + (u')^{n-1} v'' - sigma t e^{sigma t phi} F W v.

    Returned on interior nodes; used by the Jacobian consistency checks.
    """
    n, h = model.n, model.grid.h
    uv = u.values if isinstance(u, RadialPotential) else np.asarray(u, dtype=float)
    phi = uv - model.psi.values
    u1 = derivative(uv, h)[1:-1]
    u2 = second_derivative(uv, h)[1:-1]
    v1 = derivative(v, h)[1:-1]
    v2 = second_derivative(v, h)[1:-1]
    rate = kind.exponent_rate
    ex = _exponent(kind, phi[1:-1])
    first = (n - 1) * u1 ** (n - 2) * u2 * v1 if n > 1 else 0.0
    return first + u1 ** (n - 1) * v2 - rate * ex * rhs.interior_density * v[1:-1]


def _assemble_jacobian(phi: np.ndarray, model: KahlerModel, rhs: RhsFamily,
                       kind: EquationKind):
    """Jacobian as three diagonals plus the corners of the two one-sided rows.

    Returns ``(dl, d, du, left, right)``: row i holds dl[i-1], d[i], du[i] in
    columns i-1, i, i+1; ``left`` is row 0's entry in column 2 and ``right``
    row N-1's entry in column N-3 (zero for the neutral level anchor).
    """
    n, h = model.n, model.grid.h
    N = phi.size
    u1 = model.psi_d1[1:-1] + derivative(phi, h)[1:-1]
    u2 = model.psi_d2[1:-1] + second_derivative(phi, h)[1:-1]
    rate = kind.exponent_rate
    a = u1 ** (n - 1) / h**2
    b = (n - 1) * u1 ** (n - 2) * u2 / (2.0 * h) if n > 1 else 0.0
    dl = np.empty(N - 1)
    d = np.empty(N)
    du = np.empty(N - 1)
    d[1:-1] = -2.0 * a - rate * _exponent(kind, phi[1:-1]) * rhs.interior_density
    du[1:] = a + b
    dl[:-1] = a - b
    d[0] = -3.0 / (2.0 * h)
    du[0] = 4.0 / (2.0 * h)
    left = -1.0 / (2.0 * h)
    if rate == 0.0:
        d[-1] = 1.0
        dl[-1] = 0.0
        right = 0.0
    else:
        d[-1] = 3.0 / (2.0 * h)
        dl[-1] = -4.0 / (2.0 * h)
        right = 1.0 / (2.0 * h)
    return dl, d, du, left, right


def _solve_newton_step(dl: np.ndarray, d: np.ndarray, du: np.ndarray, left: float,
                       right: float, r: np.ndarray) -> np.ndarray:
    """Row-equilibrated tridiagonal solve for J v = -r; overwrites the diagonals.

    Each row is first scaled by its largest entry (never a corner: the
    one-sided rows are (-3, 4, -1) / 2h and (3, -4, 1) / 2h), which keeps the
    far tails, where the reduced weights span many orders of magnitude, from
    poisoning the factorisation. The two corners are then folded away: row 1
    eliminates column 2 from row 0 and row N-2 eliminates column N-3 from
    row N-1, with the same operations on the right-hand side. LAPACK
    ``gtsv`` (Gaussian elimination with partial pivoting) solves the folded
    tridiagonal system. A zero pivot, in a fold or in the factorisation,
    raises ``np.linalg.LinAlgError``.
    """
    rs = np.abs(d)
    rs[:-1] = np.maximum(rs[:-1], np.abs(du))
    rs[1:] = np.maximum(rs[1:], np.abs(dl))
    rs[rs == 0.0] = 1.0
    d /= rs
    du /= rs[:-1]
    dl /= rs[1:]
    b = -r / rs
    left /= rs[0]
    right /= rs[-1]
    if du[1] == 0.0 or (right != 0.0 and dl[-2] == 0.0):
        raise np.linalg.LinAlgError("zero pivot folding a one-sided boundary row")
    f = left / du[1]
    d[0] -= f * dl[0]
    du[0] -= f * d[1]
    b[0] -= f * b[1]
    if right != 0.0:
        g = right / dl[-2]
        dl[-1] -= g * d[-2]
        d[-1] -= g * du[-1]
        b[-1] -= g * b[-2]
    *_, v, info = dgtsv(dl, d, du, b, overwrite_dl=True, overwrite_d=True,
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

    Backtracking halves the step until the sup-norm residual decreases;
    for n >= 2 candidates that lose positivity of u' beyond rounding are
    rejected during damping. Convergence requires the sup-norm residual at
    or below ``newton_tol``; the converged flag additionally requires the
    discrete Kahler positivity of the final iterate.
    """
    cfg = config or SolveConfig()
    model.grid.require_same(rhs.model.grid)
    n, h = model.n, model.grid.h
    if cfg.initial_guess is not None:
        phi = np.array(cfg.initial_guess, dtype=float, copy=True)
        if phi.shape != (model.grid.points,):
            raise ConfigurationError("initial guess does not live on the model grid")
    else:
        phi = np.zeros(model.grid.points)
        if kind.kind == "neutral" and rhs.kind != "constant":
            phi = _neutral_seed(model, rhs)

    r = residual_from_perturbation(phi, model, rhs, kind)
    rnorm = float(np.max(np.abs(r)))
    iters = 0
    message = ""
    while rnorm > cfg.newton_tol and iters < cfg.max_iters:
        jac = _assemble_jacobian(phi, model, rhs, kind)
        try:
            v = _solve_newton_step(*jac, r)
        except np.linalg.LinAlgError as exc:
            message = f"linear solve singular: {exc}"
            break
        if not np.all(np.isfinite(v)):
            message = "linear solve produced non-finite step"
            break
        lam = 1.0
        accepted = False
        for _ in range(cfg.max_halvings):
            cand = phi + lam * v
            if n > 1:
                floor = _slope_floor(cand, h)
                if np.min((model.psi_d1 + derivative(cand, h))[1:-1]) <= -floor:
                    lam *= 0.5
                    continue
            rc = residual_from_perturbation(cand, model, rhs, kind)
            rcn = float(np.max(np.abs(rc)))
            if np.isfinite(rcn) and rcn < rnorm:
                phi, r, rnorm = cand, rc, rcn
                accepted = True
                break
            lam *= 0.5
        iters += 1
        if not accepted:
            message = "damping exhausted without residual decrease"
            break

    u = RadialPotential(model.grid, model.psi.values + phi, n)
    converged = rnorm <= cfg.newton_tol
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
        message=message,
    )


def _neutral_seed(model: KahlerModel, rhs: RhsFamily) -> np.ndarray:
    """Closed-form continuum seed for singular neutral solves.

    Midpoint integration of the analytic first integral; distinct from the
    discrete oracle (which telescopes the solver's own stencils), but close
    enough that Newton converges from it for n >= 2 where a cold start
    stalls against the degenerate far-left weights.
    """
    m = model
    n = m.n
    s = m.grid.nodes
    if rhs.kind == "dirac_approx":
        up = (rhs.gamma**n * xi_eps_d1(s, rhs.epsilon) ** n
              + rhs.c_smooth * m.psi_prime() ** n) ** (1.0 / n)
        up = 0.5 * (up[1:] + up[:-1])
    elif rhs.kind == "divisor":
        mid = 0.5 * (s[1:] + s[:-1])
        dens = (rhs.c_smooth * np.exp(-rhs.delta_prime * xi_eps(mid, rhs.epsilon))
                * n * m.psi_prime(mid) ** (n - 1) * m.psi_second(mid))
        cum = float(m.psi_prime(m.grid.s_min)) ** n + np.cumsum(m.grid.h * dens)
        up = np.maximum(cum, 0.0) ** (1.0 / n)
    else:
        return np.zeros(s.size)
    u = np.empty(s.size)
    u[-1] = m.psi.values[-1]
    u[:-1] = u[-1] - np.cumsum(m.grid.h * up[::-1])[::-1]
    return u - m.psi.values


# ---------------------------------------------------------------------------
# Neutral first-integral oracle


def neutral_oracle(model: KahlerModel, rhs: RhsFamily) -> RadialPotential:
    """Direct quadrature solution of the neutral equation.

    Telescopes the discrete first integral: the half-node slope powers
    accumulate the cell masses n h R_i exactly, the left flux row fixes the
    integration constant (scalar root-find), and one backward summation
    anchored at phi(s_max) = 0 recovers u. No Newton machinery is involved.
    """
    m = model
    n, h = m.n, m.grid.h
    R = rhs.interior_density
    psi = m.psi.values
    beta = (-3.0 * psi[0] + 4.0 * psi[1] - psi[2]) / (2.0 * h) + rhs.left_flux_offset

    def left_row(w0: float) -> float:
        # cumulative cell masses can dip below zero by rounding noise in the
        # flat tails; the physical slope power is nonnegative
        w1 = max(w0**n + n * h * R[0], 0.0) ** (1.0 / n)
        return 0.5 * (3.0 * w0 - w1) - beta

    hi = 3.0 * abs(beta) + max(n * h * float(np.sum(R)), 0.0) ** (1.0 / n) + 1.0
    # left_row increases in w0: bisect [lo, hi] down to adjacent doubles,
    # or to [0, 0] when the row already holds at slope 0
    lo = 0.0
    if left_row(lo) >= 0.0:
        hi = lo
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if left_row(mid) < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    w0 = hi
    w_pow = np.maximum(w0**n + np.concatenate([[0.0], np.cumsum(n * h * R)]), 0.0)
    w = w_pow ** (1.0 / n)
    u = np.empty(m.grid.points)
    u[-1] = psi[-1]
    u[:-1] = psi[-1] - np.cumsum(h * w[::-1])[::-1]
    return RadialPotential(m.grid, u, n)


# ---------------------------------------------------------------------------
# Diagnostics


def diagnostics_for(phi, model: KahlerModel, rhs: RhsFamily | None = None,
                    window: float = LELONG_WINDOW) -> Diagnostics:
    """Diagnostics of a perturbation: extrema, volume average, pole data.

    The Lelong secant is anchored at s_min for smooth families. For the
    mollified point-mass families the finite-eps solution is flat below the
    layer at 2 log(eps), so the secant is anchored just above the layer
    (and capped away from the bulk chart boundary), where the limiting
    slope has formed.
    """
    vals = phi.values if isinstance(phi, RadialPotential) else np.asarray(phi, dtype=float)
    grid = model.grid
    u = RadialPotential(grid, model.psi.values + vals, model.n)
    if rhs is not None and rhs.pole_anchor is not None:
        # anchor just above the mollified layer, capped away from the bulk
        cap = min(LELONG_CAP, grid.s_max - 4.0 * grid.h)
        a0 = max(rhs.pole_anchor, grid.s_min)
        b = min(a0 + window, cap)
        a = max(min(a0, b - max(4.0 * grid.h, 1.0)), grid.s_min)
        if b - a >= 4.0 * grid.h:
            est = lelong_estimate(u, b - a, anchor=a)
        else:
            est = lelong_estimate(u, window)
    else:
        est = lelong_estimate(u, window)
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
    vals = phi.values if isinstance(phi, RadialPotential) else np.asarray(phi, dtype=float)
    anchor = rhs.pole_anchor if rhs.pole_anchor is not None else model.grid.s_min
    i = model.grid.index_of(min(anchor, 0.0))
    i = min(max(i, 1), model.grid.points - 2)
    u = model.psi.values + vals
    return float((u[i + 1] - u[i - 1]) / (2.0 * model.grid.h))


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


def continuity_in_t(model: KahlerModel, rhs: RhsFamily, kind: EquationKind,
                    t_target: float, config: SolveConfig | None = None,
                    dt_initial: float = 0.05,
                    divergence_threshold: float = DIVERGENCE_THRESHOLD,
                    ) -> tuple[ContinuityTrace, SolveResult | None]:
    """Adaptive continuation in t from the neutral base to ``t_target``.

    Each accepted step warm-starts the next after a mass-balancing level
    shift. Newton failure halves the step; when the step underflows below
    1e-6 the run is declared a barrier at the last solved time. A volume
    average beyond ``divergence_threshold`` ends the run with the
    average-blowup verdict. Exactly one verdict is recorded.

    On ``barrier`` and ``average_blowup`` the returned result is the last
    converged solve, at a t below ``t_target``, and it is flagged converged;
    ``SolveResult`` carries no t, so callers must read ``trace.verdict``
    before taking it for the solve at ``t_target``. The result is None only
    when the neutral base fails.
    """
    if kind.kind == "neutral":
        raise ConfigurationError("continuity in t applies to the time-dependent families")
    if not (0.0 < t_target < 1.0):
        raise ConfigurationError(f"t_target must lie in (0, 1), got {t_target}")
    cfg = config or SolveConfig()

    base = newton_solve(model, rhs, neutral(), cfg)
    entries = [StepRecord(0.0, base.diagnostics, base.converged,
                          base.iterations, base.residual_norm)]
    if not base.converged:
        trace = ContinuityTrace("t", tuple(entries), "barrier", t_star=0.0)
        return trace, None

    phi = base.phi
    t = 0.0
    dt = min(dt_initial, t_target)
    last = base
    verdict = None
    while t < t_target - 1e-14:
        t_try = min(t + dt, t_target)
        guess = _mass_balanced_shift(phi, rhs, EquationKind(kind.kind, t_try))
        step = newton_solve(model, rhs, EquationKind(kind.kind, t_try),
                            replace(cfg, initial_guess=guess))
        if step.converged:
            phi, t, last = step.phi, t_try, step
            entries.append(StepRecord(t, step.diagnostics, True,
                                      step.iterations, step.residual_norm))
            if step.diagnostics.avg_phi > divergence_threshold:
                verdict = "average_blowup"
                break
            dt = min(dt * 1.5, 0.1, max(t_target - t, dt))
        else:
            dt *= 0.5
            if dt < BARRIER_STEP_FLOOR:
                entries.append(StepRecord(t_try, step.diagnostics, False,
                                          step.iterations, step.residual_norm))
                verdict = "barrier"
                break
    if verdict is None:
        verdict = "reached_target" if t >= t_target - 1e-14 else "barrier"
    trace = ContinuityTrace(
        "t", tuple(entries), verdict,
        t_star=(t if verdict == "barrier" else None),
    )
    return trace, last


def solve_family(model: KahlerModel, kind: EquationKind, rhs_list,
                 config: SolveConfig | None = None) -> list[SolveResult]:
    """Solve one equation kind for each right-hand side of a family, in order.

    Neutral members are solved cold. A time-dependent member warm-starts
    from the last converged member after a mass-balancing level shift; the
    first member, and any member whose warm start fails, is continued in t
    from its neutral base, and a member whose continuation stops short of
    kind.t is solved cold. Every member gets a result at kind.t, converged
    or not.
    """
    cfg = config or SolveConfig()
    if kind.kind == "neutral":
        return [newton_solve(model, rhs, kind, cfg) for rhs in rhs_list]
    results: list[SolveResult] = []
    prev_phi = None
    for rhs in rhs_list:
        res = None
        if prev_phi is not None:
            guess = _mass_balanced_shift(prev_phi, rhs, kind)
            res = newton_solve(model, rhs, kind, replace(cfg, initial_guess=guess))
        if res is None or not res.converged:
            # the member's blow-up is judged across the family, so the
            # continuation runs to kind.t whatever the average reaches
            trace, res = continuity_in_t(model, rhs, kind, kind.t, cfg,
                                         divergence_threshold=math.inf)
            if trace.verdict != "reached_target":
                res = newton_solve(model, rhs, kind, cfg)
        results.append(res)
        if res.converged:
            prev_phi = res.phi
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
    trace = ContinuityTrace("eps", entries, family_verdict(results),
                            barrier_param=failed[0] if failed else None)
    return trace, results
