"""Rotationally symmetric Kahler geometry on projective space, reduced to 1-D.

With s = log|z|^2 and a radial potential u(s), the complex Hessian
d_i d_jbar u has eigenvalues u'(s)/e^s (multiplicity n-1) and u''(s)/e^s
(multiplicity 1), so

    det(d_i d_jbar u) = e^{-ns} (u')^{n-1} u''.

Mass and volume are reported in slope units: the reference line bundle of
degree d carries total Monge-Ampere mass d^n, i.e. dimensional 2*pi factors
are normalised away. The reduced mass element of a potential u is
d[(u')^n] = n (u')^{n-1} u'' ds.

The reference metric is Fubini-Study: psi(s) = d log(1 + e^s), whose
derivatives are logistic functions. Those closed forms are evaluated
where a quadrature weight or curvature ratio that must be accurate below
discretisation noise reads them; the half-node slopes of psi and of the
mollified pole are exact softplus steps, ``softplus_step``. Grid
potentials are differentiated as the solver does, through their half-node
slopes and ``grid.cell_masses``. Positivity has one rule,
``grid.first_violation`` of the slopes, which
``RadialPotential.kahler_violation`` applies. A solved pole has one
reading, the windowed secant ``pole_lelong``: diagnostics, germ integrals,
the stalk and the magnification table all read it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigurationError, require_finite
from .grid import (DEFAULT_GRID, LOG_DBL_MAX, RadialPotential, SGrid, cell_masses,
                   grid_values)

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
    holds psi and its flux form: the half-node slopes ``psi_slopes`` and
    their cell masses ``weight`` (used by the solver, so that F = 1 has the
    exact discrete fixed point phi = 0), and the volume weights ``average``
    reads. The logistic closed forms of psi' and psi'' are evaluated where
    they are read, by the volume quadrature and the curvature margin.

    A model is rejected unless the model mass d^n is a finite double and
    the grid holds a positive, finite mass of psi: a grid far left of
    s = 0, where psi' underflows to 0, or far right, where every slope is
    d, carries none. The geometry is immutable after construction; the
    one state a model changes is what was built on it, kept in one cache
    (``memoized``): its families and the mollifier profiles they share.
    """

    def __init__(self, n: int, degree: float, grid: SGrid = DEFAULT_GRID):
        if n < 1 or int(n) != n:
            raise ConfigurationError(f"dimension must be a positive integer, got {n}")
        if not 0.0 < degree < math.inf:
            raise ConfigurationError(f"degree must be finite and positive, got {degree}")
        self.n, self.degree, self.grid = int(n), float(degree), grid
        self.psi = RadialPotential(grid, degree * softplus(grid.nodes), self.n)
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
        """Trapezoid weights times the volume density n (psi')^{n-1} psi'',
        with psi' = d expit(s) and psi'' = psi' expit(-s)."""
        s = self.grid.nodes
        trap = np.full(self.grid.points, self.grid.h)
        trap[[0, -1]] *= 0.5
        psi1 = self.degree * expit(s)
        return trap * (self.n * psi1 ** (self.n - 1) * (psi1 * expit(-s)))

    @cached_property
    def total_volume(self) -> float:
        return float(np.sum(self._volume_quadrature))


# ---------------------------------------------------------------------------
# Mass, averages, Lelong numbers


def end_mass(v, h: float, n: int):
    """Total reduced Monge-Ampere mass (u'(s_max))^n - (u'(s_min))^n of the
    dimension-n potential u with node values v on spacing h.

    The end slopes are the first and last half-node slopes, the fluxes of
    the solver's boundary rows, so the mass of a discrete solution is the
    exact sum of its cell masses. In slope units an admissible solution on
    the degree-d model carries mass d^n. Reads only v[:2] and v[-2:], so
    the four end values suffice."""
    return ((v[-1] - v[-2]) / h) ** n - ((v[1] - v[0]) / h) ** n


def average(phi, model: KahlerModel) -> float:
    """Volume-weighted average of a perturbation over the model.

    Trapezoid rule against the analytic reduced volume density; exact for
    constants by construction. The integrand decays like e^{-|s|} at both
    ends, so the trapezoid sum is accurate far below the 1e-8 comparisons
    used in tests.
    """
    w = model._volume_quadrature
    return float(np.dot(w, grid_values(phi, model.grid)) / model.total_volume)


@dataclass(frozen=True)
class LelongEstimate:
    """Windowed secant estimate of the pole coefficient of a potential."""

    value: float
    window_width: float
    sensitivity: float


def lelong_secant(grid: SGrid, values_at, window: float,
                  anchor: float | None = None) -> LelongEstimate:
    """Secant slope over [anchor, anchor + window] of the potential u whose
    values at an array of node indices ``values_at`` returns.

    The pole coefficient of a singular radial potential is its asymptotic
    left slope; on a truncated grid it is estimated by a secant, by default
    anchored at s_min. ``sensitivity`` reports the change under halving the
    window, as the resolution-limit diagnostic. Only the three secant nodes
    are read, so u need not be formed on the whole grid."""
    a = grid.s_min if anchor is None else float(anchor)
    require_finite(window=window, anchor=a)
    if window < 4 * grid.h:
        raise ConfigurationError(f"window {window} is below 4h = {4 * grid.h}")
    if a < grid.s_min or a + window > grid.s_max + 1e-12:
        raise ConfigurationError("Lelong window falls outside the grid")
    nodes = np.array([grid.index_of(a), grid.index_of(a + window),
                      grid.index_of(a + window / 2.0)])
    u, s = values_at(nodes), grid.nodes[nodes]
    v = float((u[1] - u[0]) / (s[1] - s[0]))
    v_half = float((u[2] - u[0]) / (s[2] - s[0]))
    return LelongEstimate(max(v, 0.0), window, abs(v - v_half))


def pole_lelong(phi, model: KahlerModel, rhs: RhsFamily | None = None) -> LelongEstimate:
    """The pole coefficient of u = psi + phi, the one reading of a solved
    pole: the Lelong secant from u at the secant nodes only.

    The secant is anchored at s_min for smooth families, over
    max(LELONG_WINDOW, 4h), the shortest window a coarse grid resolves. For
    the mollified point-mass families the finite-eps solution is flat below
    the layer at 2 log(eps), so the secant is anchored just above the layer
    (``rhs.pole_anchor``) and capped away from the bulk chart boundary at
    LELONG_CAP, where the limiting slope has formed; where that window is
    shorter than 4h, the smooth rule holds.
    """
    grid, psi = model.grid, model.psi.values
    vals = grid_values(phi, grid)
    window, anchor = max(LELONG_WINDOW, 4.0 * grid.h), None
    if rhs is not None and rhs.pole_anchor is not None:
        cap = min(LELONG_CAP, grid.s_max - 4.0 * grid.h)
        a0 = max(rhs.pole_anchor, grid.s_min)
        b = min(a0 + LELONG_WINDOW, cap)
        a = max(min(a0, b - max(4.0 * grid.h, 1.0)), grid.s_min)
        if b - a >= 4.0 * grid.h:
            window, anchor = b - a, a
    return lelong_secant(grid, lambda nodes: psi[nodes] + vals[nodes], window, anchor)


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
