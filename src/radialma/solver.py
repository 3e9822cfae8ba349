"""Fixed-point solver and continuity drivers for the reduced equations.

The three equation families for the perturbation phi = u - psi are, in
reduced variables,

    (u')^{n-1} u'' = e^{sigma * t * phi} F (psi')^{n-1} psi''

with sigma = +1 (pole-shrinking family), 0 (pole-neutral family) and
-1 (pole-amplifying family). The left side is d[(u')^n] / (n ds), and
interior node i carries it in flux form: with the half-node slopes
w_{i+1/2} = (u_{i+1} - u_i) / h = ``psi_slopes`` + (phi_{i+1} - phi_i) / h,

    ((w_{i+1/2})^n - (w_{i-1/2})^n) / (n h) = e^{sigma t phi_i} R_i,

the ``grid.cell_masses`` of w against those of the right-hand side, R
(``RhsFamily.density``), both on the N - 2 interior nodes.
The two boundary rows are flux rows on the end half-node slopes of phi:
(phi_1 - phi_0) / h = ``RhsFamily.left_flux_offset`` and
(phi_{N-1} - phi_{N-2}) / h = 0. They pin the total reduced mass of every
solution to the model mass and leave the additive level to the equation;
``diagnostics_for`` reports that mass from the same two end fluxes.
The neutral family is level-invariant, so its right row is replaced by the
anchor phi(s_max) = 0.

The rows telescope for every n: from the first slope the left row fixes,
the slope powers accumulate the cell masses n h e^{sigma t phi_i} R_i.
``newton_solve`` solves phi = T(phi) for the map T that integrates this
first integral (``_first_integral_map``), with Anderson acceleration
(Anderson, J. ACM 1965; Walker & Ni, SIAM J. Numer. Anal. 2011). At
exponent rate 0, T does not depend on phi and one application is the
quadrature ``neutral_oracle`` returns. ``residual_from_perturbation``
evaluates the rows.

Positivity holds by construction, so no solve is judged on it. Every
result is an image of T, whose slope powers are the first one, w_{1/2}^n
>= 0, plus partial sums of the nonnegative cell masses e^{sigma t phi} n h
R: its half-node slopes are nonnegative and nondecreasing, the discrete
Kahler condition of the flux form. ``RhsFamily`` guarantees R >= 0 and
w_{1/2} >= 0 for every family it admits. T is also invariant under adding
a constant to phi, so the level of a start is no information: the
iteration (``_anderson``) moves its start to the level of the start's
image, and the drivers pass their predictors as they are. The one stop
rule is the step: a solve is converged when f = T(phi) - phi is at most
``newton_tol``. T(phi) meets every row at the weights of phi + f_{N-1}, so
its interior rows miss by R e^{sigma t T(phi)} (e^{-sigma t (f - f_{N-1})} - 1).

Each continuation routine decides by one rule. ``continuity_in_t``
steps as far as the solver converges: its first attempt is at the target,
and the step doubles after every accepted step and halves after every
failed one. It reaches its target or ends in a barrier when the step falls
below BARRIER_STEP_FLOOR = 1e-6, and returns the last solve it attempted.
``sweep_epsilon`` is the one driver of an eps family: it takes a member's
warm start or else its continuation, and judges blow-up across the family.
The warm start is a predictor in eps: the point-mass mollifier is one
profile translated in s, so the last converged member, whose family its
result records (``SolveResult.rhs``), is dilated to the new mollifier
(``_dilated``). Both drivers record each solved point with ``StepRecord.of``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (ConfigurationError, require_finite, require_integer, require_open_unit,
                     require_positive)
from .geometry import Diagnostics, KahlerModel, average, pole_lelong
from .grid import RadialPotential, cell_masses, grid_values
from .rhs import RhsFamily, build_dirac_rhs

BLOWUP_STEP = 1.0
BARRIER_STEP_FLOOR = 1e-6
ANDERSON_DEPTH = 5

_SIGNS = {"reducing": 1.0, "neutral": 0.0, "magnifying": -1.0}


@dataclass(frozen=True)
class EquationKind:
    """Which exponential factor multiplies F, and at what time t, which lies
    in [0, 1) for every kind; the neutral factor reads no t."""

    kind: str
    t: float = 0.0

    def __post_init__(self):
        if self.kind not in _SIGNS:
            raise ConfigurationError(f"unknown equation kind {self.kind!r}")
        require_finite(t=self.t)
        if not 0.0 <= self.t < 1.0:
            raise ConfigurationError(f"t must lie in [0, 1), got {self.t}")

    @property
    def exponent_rate(self) -> float:
        """Coefficient of phi in the exponent (0 for the neutral family)."""
        return _SIGNS[self.kind] * self.t


def reducing(t: float) -> EquationKind:
    return EquationKind("reducing", t)


def neutral() -> EquationKind:
    return EquationKind("neutral")


def magnifying(t: float) -> EquationKind:
    return EquationKind("magnifying", t)


@dataclass(frozen=True)
class SolveConfig:
    """Stopping rule of ``newton_solve``, the CLI's ``[solver]`` section:
    ``newton_tol`` finite and positive, ``max_iters`` an integer >= 1."""

    newton_tol: float = 1e-10
    max_iters: int = 50

    def __post_init__(self):
        require_positive(newton_tol=self.newton_tol)
        require_integer(1, max_iters=self.max_iters)


@dataclass(frozen=True)
class SolveResult:
    """A solve's perturbation phi and how it ended: converged exactly when
    ``message`` is empty. The potential u = psi + phi is formed on first
    use."""

    phi: np.ndarray
    diagnostics: Diagnostics
    iterations: int
    residual_norm: float
    kind: EquationKind   # the equation solved, with its t
    rhs: RhsFamily       # the right-hand side it was solved for
    message: str = ""

    @property
    def converged(self) -> bool:
        return not self.message

    @cached_property
    def u(self) -> RadialPotential:
        model = self.rhs.model
        return RadialPotential(model.grid, model.psi.values + self.phi, model.n)


@dataclass(frozen=True)
class StepRecord:
    """One solved point of a path, at t or eps (``param``). It keeps no
    potential, so a trace of thousands of steps stays small."""

    param: float
    diagnostics: Diagnostics
    converged: bool
    iterations: int
    residual_norm: float

    @classmethod
    def of(cls, param: float, result: SolveResult) -> StepRecord:
        """The record of ``result``, solved at ``param``."""
        return cls(param, result.diagnostics, result.converged, result.iterations,
                   result.residual_norm)


@dataclass(frozen=True)
class ContinuityTrace:
    entries: tuple[StepRecord, ...]
    verdict: str                         # reached_target / barrier; families also average_blowup
    t_star: float | None = None          # a barrier: last solved t, or first failed eps

    def __post_init__(self):
        if self.verdict not in ("reached_target", "barrier", "average_blowup"):
            raise ConfigurationError(f"unknown verdict {self.verdict!r}")
        if (self.verdict == "barrier") != (self.t_star is not None):
            raise ConfigurationError("barrier verdict and t_star must be set together")


# ---------------------------------------------------------------------------
# Residual


def residual_from_perturbation(phi: np.ndarray, model: KahlerModel, rhs: RhsFamily,
                               kind: EquationKind) -> np.ndarray:
    """Nodewise residual of phi = u - psi, the solver's native variable;
    identically zero at exact discrete solutions.

    Interior rows are the ``cell_masses`` of the half-node slopes minus
    e^{sigma t phi} R, R = ``rhs.density``; the first and last rows are the
    flux rows on phi (at rate 0 the last is the anchor phi(s_max) = 0).
    The slopes of psi and of phi are differenced separately, so rounding
    scales with |phi| rather than |u| and F = 1, phi = 0 is an exact zero:
    representing u = psi + phi first would absorb small perturbations into
    the rounding of the large psi values."""
    n, h = model.n, model.grid.h
    w = model.psi_slopes + np.diff(phi) / h
    r = np.empty_like(phi)
    r[1:-1] = cell_masses(w, n, h) - np.exp(kind.exponent_rate * phi[1:-1]) * rhs.density
    r[0] = (phi[1] - phi[0]) / h - rhs.left_flux_offset
    r[-1] = phi[-1] if kind.exponent_rate == 0.0 else (phi[-1] - phi[-2]) / h
    return r


# ---------------------------------------------------------------------------
# First-integral fixed point


def _first_integral_map(model: KahlerModel, rhs: RhsFamily, kind: EquationKind):
    """The map T whose fixed points are the discrete solutions; its constant
    arrays are built once, here.

    Telescoped, the interior rows make the last slope power of u the first,
    w_{1/2}^n, plus the cell masses n h e^{rate phi} R; the right row asks
    for psi's last slope W. T(phi) weights the cell masses by phi at its
    balanced level phi + kappa, under which they sum to W^n - w_{1/2}^n.
    From the first slope the left row fixes, the slope powers accumulate
    them and end at psi's last, so T(phi) meets both flux rows. phi's slopes
    are summed backwards in phi itself, not in u, which would add the
    rounding of |u|, and end at the level phi_{N-1} + kappa. So T ignores
    its input's level, and a fixed point has kappa = 0: all its rows hold.
    An iterate that leaves no mass, or one whose level overflows, has no
    finite image. At rate 0 the weights are 1 and the level is the anchor
    phi(s_max) = 0: T(phi) is the neutral quadrature, whatever phi.
    """
    n, h, W = model.n, model.grid.h, model.psi_slopes
    cells = n * h * rhs.density
    q0 = (W[0] + rhs.left_flux_offset) ** n
    flux = W[-1] ** n - q0
    rate = kind.exponent_rate

    def first_integral(phi: np.ndarray) -> np.ndarray:
        q = np.empty(W.size)
        q[0] = 0.0
        if rate == 0.0:
            np.cumsum(cells, out=q[1:])
            level = 0.0
        else:
            z = rate * phi[1:-1]
            top = float(z.max())
            z -= top  # log sum exp, stable
            np.exp(z, out=z)
            z *= cells
            total = float(z.sum())
            if not total > 0.0:
                total = math.nan  # a wild iterate can leave no mass: no finite level
            np.cumsum(z, out=q[1:])
            q *= flux / q[-1]  # scaled by their own sum: exactly balanced
            level = phi[-1] + (math.log(flux / total) - top) / rate
        q += q0
        if n > 1:
            q **= 1.0 / n
        q -= W
        q *= -h  # before summing: a product of the sums adds its own rounding
        out = np.empty_like(phi)
        out[-1] = 0.0
        np.cumsum(q[::-1], out=out[-2::-1])
        out += level
        return out

    return first_integral


def _mixed(g: np.ndarray, f: np.ndarray, gram: np.ndarray, dF: np.ndarray,
           dG: np.ndarray) -> np.ndarray:
    """The Anderson iterate g - dG^T gamma, gamma the least-squares fit of f
    by the rows of dF from the normal equations gram gamma = dF f; g itself,
    the plain step, when they are singular."""
    try:
        gamma = np.linalg.solve(gram, dF @ f)
    except np.linalg.LinAlgError:
        return g
    if not np.isfinite(gamma).all():
        return g
    return g - gamma @ dG


def _anderson(T, phi: np.ndarray, tol: float, max_iters: int):
    """Anderson-accelerated iteration of phi = T(phi), depth ANDERSON_DEPTH.

    T ignores its input's level, so the start first moves to the level of
    its image. Each iteration mixes the stored differences of
    f = T(phi) - phi and of T(phi) into a new phi and applies T once. The
    loop stops when the step ||f||_inf is at or below ``tol``, the only
    convergence test of a solve, or at ``max_iters``, or when T gives
    non-finite values. Returns ``(T(phi), iterations, message)``: an empty
    message on convergence, else why it stopped. A non-finite map returns
    the last finite phi (the caller's start, when its level is not finite).
    """
    depth = ANDERSON_DEPTH
    dF = np.empty((depth, phi.size))
    dG = np.empty((depth, phi.size))
    gram = np.empty((depth, depth))
    g = T(phi)
    level = g[-1] - phi[-1]
    if math.isfinite(level):
        phi = phi + level
    f = g - phi
    iters = 0
    while True:
        step = float(np.abs(f).max())
        if not np.isfinite(step):
            return phi, iters, "fixed-point map produced non-finite values"
        if step <= tol:
            return g, iters, ""
        if iters >= max_iters:
            return g, iters, f"max_iters reached, step {step:.3g}"
        k = min(iters, depth)
        phi = _mixed(g, f, gram[:k, :k], dF[:k], dG[:k]) if k else g
        g_new = T(phi)
        f_new = g_new - phi
        j = iters % depth  # a ring of rows; the Gram matrix follows row j
        np.subtract(f_new, f, out=dF[j])
        np.subtract(g_new, g, out=dG[j])
        k = min(iters + 1, depth)
        gram[j, :k] = gram[:k, j] = dF[:k] @ dF[j]
        g, f = g_new, f_new
        iters += 1


def newton_solve(model: KahlerModel, rhs: RhsFamily, kind: EquationKind,
                 config: SolveConfig | None = None, start=None) -> SolveResult:
    """Solve phi = T(phi) for the first-integral map T from ``start``, any
    predictor of phi that passes ``grid_values`` (default phi = 0), whatever
    its level.

    At exponent rate 0 (the neutral family, or t = 0) one application of T
    is the exact solution, whatever the start, with 0 iterations. Otherwise
    ``_anderson`` iterates until the step is at or below ``newton_tol``;
    when it stops short, ``message`` says why. ``residual_norm``, the sup
    of the result's rows at exit, is reported and decides nothing. The
    result is an image of T, so it is Kahler in the flux form by
    construction (see the module docstring).
    """
    cfg = config or SolveConfig()
    if (model.n, model.degree) != (rhs.model.n, rhs.model.degree):
        raise ConfigurationError(
            f"right-hand side built for n = {rhs.model.n}, d = {rhs.model.degree:g}, "
            f"solved on n = {model.n}, d = {model.degree:g}")
    model.grid.require_same(rhs.model.grid)
    phi = (np.zeros(model.grid.points) if start is None
           else grid_values(start, model.grid).copy())
    # a diverging iterate may overflow on its way out; the message reports it
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        T = _first_integral_map(model, rhs, kind)
        if kind.exponent_rate == 0.0:
            phi, iters, message = T(phi), 0, ""
        else:
            phi, iters, message = _anderson(T, phi, cfg.newton_tol, cfg.max_iters)
        norm = float(np.max(np.abs(residual_from_perturbation(phi, model, rhs, kind))))
        diagnostics = diagnostics_for(phi, model, rhs)
    return SolveResult(phi, diagnostics, iters, norm, kind, rhs, message)


def neutral_oracle(model: KahlerModel, rhs: RhsFamily) -> RadialPotential:
    """Direct quadrature solution of the neutral equation.

    The exact discrete solution of the flux-form rows for every n: one
    application of the first-integral map at rate 0, which ``newton_solve``
    returns for the rate-0 kinds.
    """
    phi = _first_integral_map(model, rhs, neutral())(np.zeros(model.grid.points))
    return RadialPotential(model.grid, model.psi.values + phi, model.n)


# ---------------------------------------------------------------------------
# Diagnostics


def diagnostics_for(phi, model: KahlerModel, rhs: RhsFamily | None = None) -> Diagnostics:
    """Diagnostics of a perturbation phi (``grid_values``, so never u):
    extrema, volume average, the pole reading ``geometry.pole_lelong`` and
    the mass of u = psi + phi, last^n - first^n of its end fluxes as the
    boundary rows read them: ``psi_slopes`` plus phi's own end differences."""
    vals = grid_values(phi, model.grid)
    W, h, n = model.psi_slopes, model.grid.h, model.n
    first = W[0] + (vals[1] - vals[0]) / h
    last = W[-1] + (vals[-1] - vals[-2]) / h
    return Diagnostics(
        sup_phi=float(np.max(vals)),
        inf_phi=float(np.min(vals)),
        avg_phi=average(vals, model),
        lelong=pole_lelong(vals, model, rhs),
        mass=float(last**n - first**n),
    )


# ---------------------------------------------------------------------------
# Continuity drivers


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

    Each accepted step is the predictor of the next. The first attempt is
    at ``t_target``, which must be ``kind.t``; the step doubles after every
    accepted step, with no cap but the target, and a failed solve halves
    it. Below BARRIER_STEP_FLOOR = 1e-6 the run is declared a barrier, with
    the last solved time as ``t_star``. The verdict is ``reached_target`` or
    ``barrier``. The trace records the neutral base, each accepted step and,
    on a barrier, the failed attempt.

    The returned result is the last solve attempted: the solve at
    ``t_target``, the failed attempt recorded as ``trace.entries[-1]`` on a
    barrier, or the failed neutral base. So it is converged exactly when
    the verdict is ``reached_target``.
    """
    if kind.kind == "neutral":
        raise ConfigurationError(
            f"kind must be time-dependent for continuity in t, got {kind.kind!r}")
    require_open_unit(t_target=t_target)
    if kind.t != t_target:
        raise ConfigurationError(f"t_target = {t_target} does not match the {kind.kind} "
                                 f"family's t = {kind.t}")
    cfg = config or SolveConfig()

    step = newton_solve(model, rhs, neutral(), cfg)
    entries = [StepRecord.of(0.0, step)]
    t = 0.0
    dt = t_target
    while step.converged and t < t_target:
        t_try = min(t + dt, t_target)
        attempt = newton_solve(model, rhs, EquationKind(kind.kind, t_try), cfg, step.phi)
        if attempt.converged:
            step, t = attempt, t_try
            entries.append(StepRecord.of(t, step))
            dt *= 2.0
        else:
            dt *= 0.5
            if dt < BARRIER_STEP_FLOOR:
                step = attempt
                entries.append(StepRecord.of(t_try, step))
    verdict = "reached_target" if step.converged else "barrier"
    trace = ContinuityTrace(tuple(entries), verdict,
                            t_star=(t if verdict == "barrier" else None))
    return trace, step


def _eps_values(eps_list) -> list[float]:
    """A mollifier list as floats: a non-empty sequence, no bare number or string,
    of members ``eps[i]`` that pass ``require_positive`` and decrease strictly."""
    if isinstance(eps_list, (str, bytes)) or not np.iterable(eps_list):
        raise ConfigurationError(f"eps list must be a sequence of numbers, got {eps_list!r}")
    eps = list(eps_list)
    if not eps:
        raise ConfigurationError("eps list must not be empty")
    require_positive(**{f"eps[{i}]": e for i, e in enumerate(eps)})
    if any(b >= a for a, b in zip(eps, eps[1:])):
        raise ConfigurationError("eps list must be strictly decreasing")
    return [float(e) for e in eps]


def sweep_epsilon(model: KahlerModel, gamma: float, kind: EquationKind,
                  tau0: float, eps_list, config: SolveConfig | None = None,
                  rhs_builder=None,
                  ) -> tuple[ContinuityTrace, list[SolveResult]]:
    """Solve the family at fixed time tau0 across a decreasing mollifier list.

    tau0 must be finite and equal kind.t, for every kind. The members are
    ``rhs_builder(eps)`` (default ``build_dirac_rhs(gamma, eps, model)``),
    all built before the first solve. At exponent rate 0 (the neutral
    family, or t = 0) each member is one quadrature. Otherwise a member is
    its warm start from the last converged member, dilated to the member's
    mollifier, or, for the first member and when the warm start fails, the
    result of continuing in t from its neutral base. Every member gets a
    result, in input order, failures included: the sweep continues.

    Each member's record has param = eps. The verdict is ``barrier`` when
    some member failed, with the first failed eps as ``t_star``;
    ``average_blowup`` when the volume averages rise by at least
    BLOWUP_STEP at every step of the list; otherwise ``reached_target``.
    The rule counts listed steps, so it depends on the spacing of the list
    (one unit per decade in the experiments).
    """
    require_finite(tau0=tau0)
    if tau0 != kind.t:
        raise ConfigurationError(f"tau0 = {tau0} does not match the {kind.kind} "
                                 f"family's t = {kind.t}")
    eps_arr = _eps_values(eps_list)
    builder = rhs_builder or (lambda eps: build_dirac_rhs(gamma, eps, model))
    rhs_list = [builder(eps) for eps in eps_arr]
    cfg = config or SolveConfig()
    results: list[SolveResult] = []
    prev = None  # the last converged member
    for rhs in rhs_list:
        if kind.exponent_rate == 0.0:
            res = newton_solve(model, rhs, kind, cfg)
        else:
            res = None
            if prev is not None:
                res = newton_solve(model, rhs, kind, cfg,
                                   _dilated(prev.phi, model, prev.rhs, rhs))
            if res is None or not res.converged:
                _, res = continuity_in_t(model, rhs, kind, kind.t, cfg)
            if res.converged:
                prev = res
        results.append(res)
    entries = tuple(map(StepRecord.of, eps_arr, results))
    t_star = next((rec.param for rec in entries if not rec.converged), None)
    avgs = [rec.diagnostics.avg_phi for rec in entries]
    if t_star is not None:
        verdict = "barrier"
    elif len(avgs) >= 2 and all(b - a >= BLOWUP_STEP for a, b in zip(avgs, avgs[1:])):
        verdict = "average_blowup"
    else:
        verdict = "reached_target"
    return ContinuityTrace(entries, verdict, t_star), results
