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
derivatives are logistic functions. Those closed forms are used wherever a
quadrature weight or curvature ratio must be accurate below discretisation
noise; grid potentials are differentiated with the central stencils from
``grid``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DegenerateMetricError
from .grid import (
    DEFAULT_GRID,
    RadialPotential,
    SGrid,
    derivative,
    derivative_o4,
    grid_values,
    second_derivative,
    second_derivative_o4,
)


def softplus(x):
    """log(1 + e^x), overflow-safe."""
    return np.logaddexp(0.0, x)


def expit(x):
    """Logistic 1 / (1 + e^{-x}); e^{-x} overflowing to inf gives 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def fubini_study_potential(n: int, degree: float, grid: SGrid) -> RadialPotential:
    """Reference potential psi(s) = degree * log(1 + e^s).

    Slope 0 at the far left, slope ``degree`` at the far right; strictly
    convex in between. degree = n + 1 is the anticanonical normalisation.
    """
    if degree <= 0:
        raise ConfigurationError(f"degree must be positive, got {degree}")
    if n < 1 or int(n) != n:
        raise ConfigurationError(f"dimension must be a positive integer, got {n}")
    return RadialPotential(grid, degree * softplus(grid.nodes), int(n))


class KahlerModel:
    """Reference geometry: dimension n, polarisation degree d, grid, psi.

    Carries both the discrete half-node slopes of psi and its cell flux
    (used by the solver, so that F = 1 has the exact discrete fixed point
    phi = 0) and the logistic closed forms (used for quadrature weights and
    curvature ratios). Immutable after construction.
    """

    def __init__(self, n: int, degree: float, grid: SGrid = DEFAULT_GRID):
        if n < 1 or int(n) != n:
            raise ConfigurationError(f"dimension must be a positive integer, got {n}")
        if degree <= 0:
            raise ConfigurationError(f"degree must be positive, got {degree}")
        self.n = int(n)
        self.degree = float(degree)
        self.grid = grid
        self.psi = fubini_study_potential(self.n, self.degree, grid)

    @property
    def s(self) -> np.ndarray:
        return self.grid.nodes

    # -- discrete arrays used by the solver --------------------------------

    @cached_property
    def psi_slopes(self) -> np.ndarray:
        """Half-node slopes (psi_{i+1} - psi_i) / h, N - 1 of them."""
        w = np.diff(self.psi.values) / self.grid.h
        w.flags.writeable = False
        return w

    @cached_property
    def weight(self) -> np.ndarray:
        """Discrete cell flux of psi, the reduced density (psi')^{n-1} psi''
        of the flux form: ((W_{i+1/2})^n - (W_{i-1/2})^n) / (n h) on interior
        nodes with W = ``psi_slopes``, and 0 on the two boundary nodes."""
        w = np.zeros(self.grid.points)
        w[1:-1] = np.diff(self.psi_slopes ** self.n) / (self.n * self.grid.h)
        w.flags.writeable = False
        return w

    # -- logistic closed forms ---------------------------------------------

    def sigma(self, s=None) -> np.ndarray:
        return expit(self.s if s is None else s)

    def psi_prime(self, s=None) -> np.ndarray:
        return self.degree * self.sigma(s)

    def psi_second(self, s=None) -> np.ndarray:
        x = self.s if s is None else s
        return self.degree * expit(x) * expit(-x)

    def volume_weight(self, s=None) -> np.ndarray:
        """Analytic reduced volume density n (psi')^{n-1} psi''."""
        return self.n * self.psi_prime(s) ** (self.n - 1) * self.psi_second(s)

    def reduced_density(self, s=None) -> np.ndarray:
        """Analytic e^{-ns} (psi')^{n-1} psi'' = d^n (1 + e^s)^{-(n+1)}."""
        x = self.s if s is None else s
        return self.degree**self.n * np.exp(-(self.n + 1) * softplus(x))

    @cached_property
    def _trap(self) -> np.ndarray:
        w = np.full(self.grid.points, self.grid.h)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    @cached_property
    def _volume_quadrature(self) -> np.ndarray:
        return self._trap * self.volume_weight()

    @cached_property
    def total_volume(self) -> float:
        return float(np.sum(self._volume_quadrature))


def default_model(n: int, degree: float) -> KahlerModel:
    return KahlerModel(n, degree, DEFAULT_GRID)


# ---------------------------------------------------------------------------
# Monge-Ampere density, mass, Ricci potential


def ma_density_formula(n: int, s, d1, d2):
    """Pointwise reduced density e^{-ns} (u')^{n-1} u'' from given derivatives."""
    return np.exp(-n * np.asarray(s, dtype=float)) * np.asarray(d1) ** (n - 1) * np.asarray(d2)


def ma_density(u: RadialPotential) -> np.ndarray:
    """Monge-Ampere density of a grid potential against the coordinate volume.

    May be negative where u fails to be Kahler; callers check.
    """
    return ma_density_formula(u.n, u.grid.nodes, u.d1, u.d2)


def mass(u: RadialPotential) -> float:
    """Total reduced Monge-Ampere mass (u'(s_max))^n - (u'(s_min))^n.

    The end slopes are the first and last half-node slopes, the fluxes of
    the solver's boundary rows, so the mass of a discrete solution is the
    exact sum of its cell masses. In slope units an admissible solution on
    the degree-d model carries mass d^n.
    """
    v, h = u.values, u.grid.h
    return ((v[-1] - v[-2]) / h) ** u.n - ((v[1] - v[0]) / h) ** u.n


def ricci_potential(u: RadialPotential) -> np.ndarray:
    """-log of the reduced Monge-Ampere density, on interior nodes.

    The curvature form of the metric defined by u is the complex Hessian of
    this potential. Raises DegenerateMetricError, naming the first bad node,
    when u' or u'' fails positivity beyond the rounding floor. In the far
    tails the true curvature of a smooth potential sits below what second
    differences of O(|u|) doubles can resolve; such nodes saturate the log
    instead of erroring, and consumers restrict to the resolvable range.

    Uses fourth-order stencils: the curvature identities this feeds are
    checked at the 1e-8 level, below the second-order truncation term.
    """
    d1 = derivative_o4(u.values, u.grid.h)[1:-1]
    d2 = second_derivative_o4(u.values, u.grid.h)[1:-1]
    floor = u.positivity_floor()
    for name, arr in (("u'", d1), ("u''", d2)):
        bad = np.nonzero(arr <= -floor)[0]
        if bad.size:
            i = int(bad[0]) + 1
            raise DegenerateMetricError(
                f"{name} = {arr[bad[0]]:.3e} is not positive at node {i} "
                f"(s = {u.grid.nodes[i]:.6g})",
                node=i,
                coordinate=float(u.grid.nodes[i]),
            )
    s = u.grid.nodes[1:-1]
    tiny = np.finfo(float).tiny
    return -(np.log(np.maximum(d2, tiny)) + (u.n - 1) * np.log(np.maximum(d1, tiny))
             - u.n * s)


# ---------------------------------------------------------------------------
# Positivity comparison of (1,1)-forms, averages, Lelong numbers


@dataclass(frozen=True)
class DominanceReport:
    holds: bool
    first_violation: int | None = None
    failed_condition: str | None = None
    min_slope_gap: float = 0.0
    min_curvature_gap: float = 0.0


def dominates(q: np.ndarray, p: np.ndarray, grid: SGrid, tol: float = 1e-9) -> DominanceReport:
    """Whether ddbar(q - p) >= 0 in the radial sense.

    For radial potentials the form inequality reduces to (q-p)' >= 0 and
    (q-p)'' >= 0 at every interior node, up to ``tol`` of discretisation
    slack.
    """
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if q.shape != (grid.points,) or p.shape != (grid.points,):
        raise ConfigurationError("potentials do not live on the given grid")
    diff = q - p
    g1 = derivative(diff, grid.h)[1:-1]
    g2 = second_derivative(diff, grid.h)[1:-1]
    report = DominanceReport(True, None, None, float(g1.min()), float(g2.min()))
    bad1 = np.nonzero(g1 < -tol)[0]
    bad2 = np.nonzero(g2 < -tol)[0]
    worst = None
    if bad1.size:
        worst = (int(bad1[0]) + 1, "slope")
    if bad2.size and (worst is None or int(bad2[0]) + 1 < worst[0]):
        worst = (int(bad2[0]) + 1, "curvature")
    if worst is not None:
        return DominanceReport(False, worst[0], worst[1], float(g1.min()), float(g2.min()))
    return report


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


def lelong_estimate(u: RadialPotential, window: float, anchor: float | None = None) -> LelongEstimate:
    """Secant slope of u over [anchor, anchor + window].

    The pole coefficient of a singular radial potential is its asymptotic
    left slope; on a truncated grid it is estimated by a secant, by default
    anchored at s_min. ``sensitivity`` reports the change under halving the
    window, as the resolution-limit diagnostic.
    """
    grid = u.grid
    if window < 4 * grid.h:
        raise ConfigurationError(f"window {window} is below 4h = {4 * grid.h}")
    a = grid.s_min if anchor is None else float(anchor)
    if a < grid.s_min or a + window > grid.s_max + 1e-12:
        raise ConfigurationError("Lelong window falls outside the grid")

    def secant(width: float) -> float:
        i = grid.index_of(a)
        j = grid.index_of(a + width)
        return float((u.values[j] - u.values[i]) / (grid.nodes[j] - grid.nodes[i]))

    v = secant(window)
    v_half = secant(window / 2.0)
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
