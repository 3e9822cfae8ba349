"""Rotationally symmetric Kahler geometry on projective space, reduced to 1-D.

With s = log|z|^2 and a radial potential u(s), the complex Hessian
d_i d_jbar u has eigenvalues u'(s)/e^s (multiplicity n-1) and u''(s)/e^s
(multiplicity 1), so

    det(d_i d_jbar u) = e^{-ns} (u')^{n-1} u''.

Mass and volume are reported in slope units: the reference line bundle of
degree d carries total Monge-Ampere mass d^n, i.e. dimensional 2*pi factors
are normalised away. The reduced mass element of a potential u is
d[(u')^n] = n (u')^{n-1} u'' ds; a solution's total is read where its
fluxes are, from the solver's two boundary slopes
(``solver.diagnostics_for``).

The reference metric is Fubini-Study: psi(s) = d log(1 + e^s), whose
derivatives are logistic functions. psi is the model's fixed reference, a
read-only array of node values, not a potential the lab solves for: the
continuity path is a sequence of perturbations phi = u - psi, and a solved
u is a ``RadialPotential``, built only where a caller asks for one
(``SolveResult.u``, ``neutral_oracle``). Those closed forms are evaluated
where a quadrature weight or curvature ratio that must be accurate below
discretisation noise reads them; the half-node slopes of psi and of the
mollified pole are exact softplus steps, ``softplus_step``. Grid
potentials are differentiated as the solver does, through their half-node
slopes and ``grid.cell_masses``. Positivity has one rule,
``grid.first_violation`` of the slopes, which
``RadialPotential.kahler_violation`` applies to a solved u. A solved pole
has one reading, the windowed secant ``pole_lelong`` of u at three nodes,
taken with the family u solves for, whose model it reads: diagnostics,
germ integrals, the stalk and the magnification table all read it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, require_integer, require_positive
from .grid import DEFAULT_GRID, LOG_DBL_MAX, SGrid, cell_masses, grid_values

if TYPE_CHECKING:
    from .rhs import RhsFamily

MEMO_SIZE = 16
LELONG_WINDOW = 5.0
LELONG_CAP = -1.0


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def expit(x):
    """Logistic 1 / (1 + e^{-x}); e^{-x} overflowing to inf gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def softplus_step(x, h: float):
    """softplus(x + h) - softplus(x) without its cancellation; increasing in x."""
    return np.log1p(np.expm1(h) * expit(x))


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class KahlerModel:
    """Reference geometry: dimension n, polarisation degree d, grid, and the
    Fubini-Study potential psi(s) = d log(1 + e^s) on it.

    psi has slope 0 at the far left and slope d at the far right, strictly
    convex in between; d = n + 1 is the anticanonical normalisation. A model
    holds psi, a read-only float64 array of its node values, and its flux
    form: the half-node slopes ``psi_slopes`` and their cell masses
    ``weight`` (used by the solver, so that F = 1 has the exact discrete
    fixed point phi = 0), and the volume weights ``average`` reads. The
    logistic closed forms of psi' and psi'' are evaluated where they are
    read, by the volume quadrature and the curvature margin.

    A model is rejected unless d is finite and positive, n is an integer
    >= 1 (``require_integer``), psi passes ``grid_values``, the model mass
    d^n is a finite double and the grid holds a positive, finite mass of
    psi: a grid far left of s = 0, where psi' underflows to 0, or far
    right, where every slope is d, carries none. The geometry is immutable
    after construction; the one state a model changes is what was built on
    it, kept in one cache (``memoized``): its families and the mollifier
    profiles they share.
    """

    def __init__(self, n: int, degree: float, grid: SGrid = DEFAULT_GRID):
        require_positive(degree=degree)
        require_integer(1, dimension=n)
        # a copy, not the product itself: keeping the product buffer for the
        # model's lifetime moved t_continuation's p50 by +10 % through glibc
        # heap trimming (ROADMAP item 18)
        self.psi = _frozen(grid_values(degree * softplus(grid.nodes), grid).copy())
        self.n, self.degree, self.grid = n, float(degree), grid
        where = (f"n = {self.n}, d = {self.degree:.6g} on the grid [{grid.s_min:.6g}, "
                 f"{grid.s_max:.6g}] of {grid.points} points")
        log_mass = self.n * math.log(self.degree)
        if log_mass >= LOG_DBL_MAX:
            raise ConfigurationError(
                f"model mass d^n overflows at {where}: n log d = {log_mass:.6g} must be "
                f"below log(DBL_MAX) = {LOG_DBL_MAX:.6g}")
        with np.errstate(over="ignore", invalid="ignore"):
            total = float(np.sum(self.weight))
        # the cell masses are nonnegative, so a finite total makes each finite
        if not 0.0 < total < math.inf:
            raise ConfigurationError(
                f"psi has no finite mass at {where}: its cell masses "
                f"total {total:.6g}; the grid must reach where psi' rises, near s = 0")
        self._memo: OrderedDict = OrderedDict()

    def memoized(self, key, build):
        """``build()``, kept on this model under ``key``, so a later call with
        an equal key returns the same object without building it. The last
        MEMO_SIZE entries are kept, the least recently used evicted first;
        they live as long as the model."""
        memo = self._memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        value = memo[key] = build()
        if len(memo) > MEMO_SIZE:
            memo.popitem(last=False)
        return value

    @cached_property
    def psi_slopes(self) -> np.ndarray:
        """Half-node slopes (psi_{i+1} - psi_i) / h, N - 1 of them, in the
        closed form d ``softplus_step``(s_i, h) / h: free of the rounding of
        |psi|, they increase, so every cell mass in ``weight`` is >= 0."""
        h = self.grid.h
        return _frozen(self.degree * softplus_step(self.grid.nodes[:-1], h) / h)

    @cached_property
    def weight(self) -> np.ndarray:
        """The ``cell_masses`` of ``psi_slopes``, the flux form's reduced
        density (psi')^{n-1} psi'' on the N - 2 interior nodes."""
        return _frozen(cell_masses(self.psi_slopes, self.n, self.grid.h))

    @cached_property
    def _volume_quadrature(self) -> np.ndarray:
        """Trapezoid weights times the volume density (psi')^{n-1} psi'' / d^n
        = expit(s)^n expit(-s), normalised to sum 1: the constant factor
        n d^n cancels, so no weight nears the overflow that d^n does."""
        s = self.grid.nodes
        trap = np.full(self.grid.points, self.grid.h)
        trap[[0, -1]] *= 0.5
        w = trap * (expit(s) ** self.n * expit(-s))
        # in place: a second buffer here, kept for the model's lifetime,
        # moved t_continuation's p50 by +8 % through glibc heap trimming
        # (ROADMAP item 18)
        w /= np.sum(w)
        return w


# ---------------------------------------------------------------------------
# Averages, Lelong numbers


def average(phi, model: KahlerModel) -> float:
    """Volume-weighted average of a perturbation phi, which passes ``grid_values``.

    Trapezoid rule against the analytic reduced volume density, with
    weights normalised to sum 1, so constants are reproduced to rounding.
    The integrand decays like e^{-|s|} at both ends, so the trapezoid sum
    is accurate far below the 1e-8 comparisons used in tests.
    """
    return float(np.dot(model._volume_quadrature, grid_values(phi, model.grid)))


@dataclass(frozen=True)
class LelongEstimate:
    """Windowed secant estimate of the pole coefficient of a potential."""

    value: float
    window_width: float
    sensitivity: float


def pole_lelong(phi, rhs: RhsFamily) -> LelongEstimate:
    """The pole coefficient of u = psi + phi, its asymptotic left slope, and
    the one reading of a solved pole: the secant slope of u over a window
    [a, a + window], read at its three nodes only. phi passes ``grid_values``
    and solves for ``rhs``, the family whose model gives psi and the grid.

    Without a pole anchor (the smooth families) the secant starts at s_min,
    over max(LELONG_WINDOW, 4h), the shortest window a coarse grid resolves,
    or over the whole grid where that is narrower. The mollified point-mass
    solution is flat below its layer at 2 log(eps), so the secant starts just
    above it (``rhs.pole_anchor``), capped away from the bulk chart boundary
    at LELONG_CAP, where the limiting slope has formed; where that window is
    shorter than 4h, the smooth rule holds. ``sensitivity`` is the change
    under halving the window, the resolution-limit diagnostic.
    """
    from .rhs import require_family  # rhs builds on this module

    require_family(rhs)
    model, grid = rhs.model, rhs.model.grid
    vals = grid_values(phi, grid)
    window = min(max(LELONG_WINDOW, 4.0 * grid.h), float(grid.s_max - grid.s_min))
    a = grid.s_min
    if rhs.pole_anchor is not None:
        cap = min(LELONG_CAP, grid.s_max - 4.0 * grid.h)
        a0 = max(rhs.pole_anchor, grid.s_min)
        b = min(a0 + LELONG_WINDOW, cap)
        anchor = max(min(a0, b - max(4.0 * grid.h, 1.0)), grid.s_min)
        if b - anchor >= 4.0 * grid.h:
            window, a = b - anchor, anchor
    nodes = np.array([grid.index_of(a), grid.index_of(a + window),
                      grid.index_of(a + window / 2.0)])
    u, s = model.psi[nodes] + vals[nodes], grid.nodes[nodes]
    v = float((u[1] - u[0]) / (s[1] - s[0]))
    v_half = float((u[2] - u[0]) / (s[2] - s[0]))
    return LelongEstimate(max(v, 0.0), window, abs(v - v_half))


@dataclass(frozen=True)
class Diagnostics:
    """Summary of a solved perturbation phi = u - psi."""

    sup_phi: float
    inf_phi: float
    avg_phi: float
    lelong: LelongEstimate
    mass: float

    def __post_init__(self):
        slack = 1e-9 * max(1.0, abs(self.sup_phi), abs(self.inf_phi))
        if not (self.inf_phi - slack <= self.avg_phi <= self.sup_phi + slack):
            raise ConfigurationError("average fell outside [inf, sup]")
