"""Singular right-hand-side families and their positivity margins.

Three families of positive densities F on the model are supported:

``constant``
    F = 1 after normalisation.

``dirac_approx``
    A point-mass approximation at z = 0 of prescribed mass gamma^n. The
    mollified log pole xi_eps(s) = log(e^s + eps^2) decreases to s as
    eps -> 0, and the family is built so that the reduced mass element is

        F d[(psi')^n] = gamma^n d[(xi_eps')^n] + c_eps d[(psi')^n],

    equality on the singular part plus a constant top-up c_eps >= 0 chosen
    so the total reduced mass is the model mass d^n. This makes the pole
    mass exactly gamma^n and the neutral first integral exact.

``divisor``
    A fractional pole F proportional to e^{-delta' xi_eps}, the radial
    analogue of dividing by |section|^2 of a small multi-valued power of
    the polarisation. Normalisable only for delta' < n. Its cell masses are
    formed in log space, so they never underflow to a zero total.

The reduced densities are cell masses of the solver's flux form,
``grid.cell_masses`` of half-node slopes, on the N - 2 interior nodes: of
psi for the smooth part (``KahlerModel.weight``) and of xi_eps for the
point-mass part, whose slopes are exact steps ``geometry.softplus_step``.
Discrete mass sums therefore telescope exactly, the point-mass cell masses
are nonnegative, and F = 1 remains an exact fixed point at gamma = 0 /
delta' = 0. The point-mass family's left flux comes from the same
half-node slopes at the first face, so the discrete neutral first
integral holds exactly on every face.

The logistic closed forms of psi' and psi'' are evaluated where they are
read, by ``RhsFamily.log_curvature_derivs`` and ``dominance_margin``, once
per family.

A family holds scalars, not grid arrays. Its cell masses are a P + c w,
where w is the model's ``weight`` and P a ``MollifierProfile``: the cell
masses of xi_eps's half-node slopes for the point-mass family (a =
gamma^n), of e^{-delta' xi_eps} w for the divisor family (a its
normalisation, c = 0); the constant family is w itself. The point-mass
profile depends on the model and eps only, so the families of every gamma
at one eps share one. ``density`` is evaluated on access, and F itself
never is: a family is its cell masses and its left flux, and
``RhsFamily`` has one gate, on those (see there). ``build_dirac_rhs``
names the cause when a grid fails it: a pole flux above psi's last slope
asks for a wider s_max, or, once it reaches d, which psi's slope never
does, for an s_min below the pole layer.

Each family is built once per model. ``build_dirac_rhs`` and
``build_divisor_rhs`` validate their parameters and warn on every call,
then return the family the model has memoised for (kind, parameter, eps),
building it only on a miss. ``KahlerModel.memoized`` keeps the last 16
families and point-mass profiles, the latter under ("profile", eps),
refreshed whenever a family holding it is returned, so it outlives them.
A family's curvature margin has one name, ``check_lower_bound``, which
computes it on the first call and returns the same report after.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, require_finite, require_positive
from .geometry import KahlerModel, expit, softplus, softplus_step
from .grid import LOG_DBL_MAX, cell_masses

POLE_ANCHOR_OFFSET = 6.0


def xi_eps(s, eps: float):
    """Mollified log pole log(e^s + eps^2), eps > 0; decreases to s as eps -> 0."""
    require_positive(eps=eps)
    return np.logaddexp(s, 2.0 * np.log(eps))


@dataclass(frozen=True, eq=False)
class MollifierProfile:
    """Cell masses P of a mollified pole on one model's interior nodes
    (read-only), their sum ``total`` and, for the point mass, the first
    half-node slope of xi_eps (``first_slope``), the flux its mass sends
    through the first face. Families share it."""

    cells: np.ndarray
    total: float
    first_slope: float = 0.0


@dataclass(frozen=True, eq=False)
class RhsFamily:
    """A normalised positive density F on the model grid, held as what the
    solver reads of it.

    ``density`` is the reduced mass density R = F (psi')^{n-1} psi'' as
    cell masses of the solver's flux form on the N - 2 interior nodes:
    ``profile_scale`` times the ``profile`` cells plus ``c_smooth`` times
    ``model.weight``, or the weight itself when there is no profile. It is
    evaluated on each access, so a family holds no grid array of its own.
    ``left_flux_offset`` is the prescribed excess of the first half-node
    slope of u over psi's, the flux that mass below the truncation cut
    sends through it; nonzero only for the point-mass family.

    Construction has one gate. Each scalar field is a finite real number
    (``require_finite``; ``pole_anchor`` may also be None), and on
    ``density`` and ``left_flux_offset`` it makes every solution Kahler:
    the cell masses are finite and nonnegative with a positive total
    (F > 0 as the solver sees it), and the first half-node slope
    0 <= psi_slopes[0] + left_flux_offset lies below psi's last, so that
    they carry a positive flux.
    """

    kind: str
    model: KahlerModel
    gamma: float = 0.0
    epsilon: float = 0.0
    delta_prime: float = 0.0
    c_smooth: float = 1.0
    left_flux_offset: float = 0.0
    pole_anchor: float | None = None
    profile: MollifierProfile | None = None
    profile_scale: float = 0.0

    def __post_init__(self):
        require_finite(gamma=self.gamma, epsilon=self.epsilon, delta_prime=self.delta_prime,
                       c_smooth=self.c_smooth, left_flux_offset=self.left_flux_offset,
                       profile_scale=self.profile_scale)
        if self.pole_anchor is not None:
            require_finite(pole_anchor=self.pole_anchor)
        if self.profile is not None and self.profile.cells.shape != self.model.weight.shape:
            raise ConfigurationError("profile does not live on the model grid")
        density = self.density
        if not np.all(np.isfinite(density) & (density >= 0.0)):
            raise ConfigurationError("cell masses must be finite and nonnegative")
        if not np.sum(density) > 0.0:
            raise ConfigurationError("cell masses must have a positive total")
        W = self.model.psi_slopes
        if not 0.0 <= W[0] + self.left_flux_offset < W[-1]:
            raise ConfigurationError(
                f"first slope {W[0] + self.left_flux_offset:.6g} must lie in "
                f"[0, {W[-1]:.6g}), the last slope of psi")

    @property
    def density(self) -> np.ndarray:
        w = self.model.weight
        if self.profile is None:
            return w
        density = self.profile_scale * self.profile.cells
        density += self.c_smooth * w
        return density

    def log_curvature_derivs(self) -> tuple[np.ndarray, np.ndarray]:
        """Analytic (q', q'') for q = -log(F e^{-ns} (psi')^{n-1} psi'').

        Assembled from logistic closed forms in a cancellation-free mixture
        representation, so the ratios against the degree-1 reference stay
        meaningful where both curvatures are exponentially small.
        """
        m = self.model
        n, d, s = m.n, m.degree, m.grid.nodes
        sig, sigm = expit(s), expit(-s)
        if self.kind == "constant":
            return (n + 1) * sig, (n + 1) * sig * sigm
        # the mollified pole: xi_eps' = expit(a), xi_eps'' = expit(a) expit(-a)
        a = s - 2.0 * np.log(self.epsilon)
        xs, xsm = expit(a), expit(-a)
        if self.kind == "divisor":
            return ((n + 1) * sig + self.delta_prime * xs,
                    (n + 1) * sig * sigm + self.delta_prime * (xs * xsm))
        # dirac mixture: softmin of the two component log densities
        if self.c_smooth <= 0.0:  # gamma = d: all mass at the pole
            theta = np.ones_like(s)
        else:
            log_sing = n * np.log(self.gamma) - n * softplus(-a) - softplus(a)
            log_smooth = (np.log(self.c_smooth) + n * np.log(d)
                          - n * softplus(-s) - softplus(s))
            theta = expit(log_sing - log_smooth)
        thp = 1.0 - theta
        q1 = (n + 1) * (thp * sig + theta * xs)
        q2 = ((n + 1) * (thp * sig * sigm + theta * xs * xsm)
              - theta * thp * ((n + 1) * (sig - xs)) ** 2)
        return q1, q2

    @cached_property
    def _lower_bound(self) -> LowerBoundReport:
        """``dominance_margin`` of ``log_curvature_derivs``, computed on
        first use; ``check_lower_bound`` is its one public name."""
        q1, q2 = self.log_curvature_derivs()
        return dominance_margin(q1, q2, self.model)


def constant_rhs(model: KahlerModel) -> RhsFamily:
    """F = 1; the fixed-point family (phi = 0 solves every equation kind)."""
    return RhsFamily(kind="constant", model=model)


def build_dirac_rhs(gamma: float, eps: float, model: KahlerModel) -> RhsFamily:
    """Point-mass family of pole mass gamma^n, mollified at scale eps.

    Requires a finite 0 <= gamma <= d and a finite positive eps
    (``require_positive``); pole mass equal to the full model mass is
    admitted with a warning. The mollified layer sits near s = 2 log(eps);
    a warning is emitted when it is too close to the left truncation for
    solves to see its mass. Validates and warns on every call, then
    returns the model's memoised family for (gamma, eps), built on a miss.
    """
    m = model
    n, d = m.n, m.degree
    require_finite(gamma=gamma)
    require_positive(eps=eps)
    if gamma < 0:
        raise ConfigurationError(f"gamma must be nonnegative, got {gamma}")
    if gamma > d:
        # the model keeps d^n finite, but gamma^n can overflow
        log_mass = n * math.log(gamma)
        mass = f"{gamma**n:.6g}" if log_mass < LOG_DBL_MAX else f"e^{log_mass:.6g}"
        raise ConfigurationError(
            f"pole mass gamma^n = {mass} exceeds the model mass {d**n:.6g}: "
            f"gamma = {gamma:.6g} > d = {d:.6g}")
    if gamma == d:
        warnings.warn("pole mass equals the model mass; the smooth part of F degenerates",
                      stacklevel=2)
    if gamma > 0 and 2.0 * np.log(eps) < m.grid.s_min + 8.0:
        warnings.warn(
            "mollified pole layer sits at or below the left truncation; "
            "solver mass accounting will not see all of it", stacklevel=2)
    gamma, eps = float(gamma), float(eps)
    family = m.memoized(("dirac_approx", gamma, eps), lambda: _dirac_family(gamma, eps, m))
    if family.profile is not None:  # younger than every family that holds it
        m.memoized(("profile", eps), lambda: family.profile)
    return family


def _dirac_family(gamma: float, eps: float, m: KahlerModel) -> RhsFamily:
    """The point-mass family of ``build_dirac_rhs``, built from parameters
    it has validated."""
    if gamma == 0.0:
        return constant_rhs(m)
    n = m.n
    profile = m.memoized(("profile", eps), lambda: _pole_profile(eps, m))
    total = float(np.sum(m.weight))
    c = max((total - gamma**n * profile.total) / total, 0.0)
    # the full-line first integral u'^n = gamma^n xi'^n + c psi'^n on the
    # first face: what it already carries at s_min enters the truncated
    # problem as a left flux, not as interior mass (negligible when the
    # layer is well inside the domain)
    p0, w_last = m.psi_slopes[0], m.psi_slopes[-1]
    offset = (gamma**n * profile.first_slope ** n + c * p0**n) ** (1.0 / n) - p0
    if not p0 + offset < w_last:
        # psi's last slope stays below d for every s_max
        cause = (f"it is at or above d = {m.degree:.6g}, which no s_max reaches; lower "
                 f"s_min below the pole layer at 2 log eps = {2.0 * math.log(eps):.6g}"
                 if p0 + offset >= m.degree else
                 f"the grid is too narrow for pole mass gamma = {gamma:.6g}, whose flux "
                 f"enters through the first face; widen s_max")
        raise ConfigurationError(
            f"first slope {p0 + offset:.6g} must lie in [0, {w_last:.6g}), the last slope "
            f"of psi at s_max = {m.grid.s_max:.6g}: {cause}")
    return RhsFamily(
        kind="dirac_approx",
        model=m,
        gamma=float(gamma),
        epsilon=float(eps),
        c_smooth=c,
        left_flux_offset=float(offset),
        pole_anchor=float(2.0 * np.log(eps) + POLE_ANCHOR_OFFSET),
        profile=profile,
        profile_scale=gamma**n,
    )


def _pole_profile(eps: float, m: KahlerModel) -> MollifierProfile:
    """Cell masses of the point mass at scale eps: exact half-node slopes
    of xi_eps = 2 log eps + softplus(s - 2 log eps), ``softplus_step`` over
    h, which increase, so every cell mass is nonnegative."""
    n, h = m.n, m.grid.h
    xi_slopes = softplus_step(m.grid.nodes[:-1] - 2.0 * np.log(eps), h) / h
    cells = cell_masses(xi_slopes, n, h)
    cells.flags.writeable = False
    return MollifierProfile(cells, float(np.sum(cells)), xi_slopes[0])


def build_divisor_rhs(delta_prime: float, eps: float, model: KahlerModel) -> RhsFamily:
    """Fractional-pole family F proportional to e^{-delta' xi_eps}.

    The pole order delta' at z = 0 must stay below n for the limiting mass
    to be finite; unlike the point-mass family the singularity carries no
    atom, so it satisfies the curvature lower bound but produces no pole in
    the solved potential. delta' is finite and eps finite and positive
    (``require_positive``). Like ``build_dirac_rhs``, returns the model's
    memoised family for (delta', eps).
    """
    m = model
    require_finite(delta_prime=delta_prime)
    require_positive(eps=eps)
    if delta_prime < 0:
        raise ConfigurationError(f"delta' must be nonnegative, got {delta_prime}")
    if delta_prime >= m.n:
        raise ConfigurationError(
            f"delta' = {delta_prime} >= n = {m.n}: mass diverges in the eps -> 0 limit")
    delta_prime, eps = float(delta_prime), float(eps)
    return m.memoized(("divisor", delta_prime, eps),
                      lambda: _divisor_family(delta_prime, eps, m))


def _divisor_family(delta_prime: float, eps: float, m: KahlerModel) -> RhsFamily:
    """The fractional-pole family of ``build_divisor_rhs``, from parameters
    it has validated: the cell masses e^{-delta' xi_eps} w, formed in log
    space and normalised by their sum, so that no total underflows to 0
    where delta' xi_eps is large; a cell of zero weight has log weight
    -inf and mass 0."""
    if delta_prime == 0.0:
        return constant_rhs(m)
    with np.errstate(divide="ignore"):
        log_cells = np.log(m.weight) - delta_prime * xi_eps(m.grid.nodes[1:-1], eps)
        cells = np.exp(log_cells - np.max(log_cells))
        cells /= np.sum(cells)
    cells.flags.writeable = False
    return RhsFamily(
        kind="divisor",
        model=m,
        delta_prime=float(delta_prime),
        epsilon=float(eps),
        c_smooth=0.0,
        profile=MollifierProfile(cells, 1.0),
        profile_scale=float(np.sum(m.weight)),
    )


# ---------------------------------------------------------------------------
# Curvature lower bound (the margin eta)


@dataclass(frozen=True)
class LowerBoundReport:
    """Largest eta >= 0 such that the log-density curvature is at least eta
    times the degree-1 reference form, with the binding node when eta = 0."""

    eta: float
    limiting_node: int | None
    limiting_condition: str | None


def dominance_margin(q1: np.ndarray, q2: np.ndarray, model: KahlerModel) -> LowerBoundReport:
    """Largest eta with (q1, q2) >= eta * (psi_1', psi_1'') nodewise. Beyond
    |s| ~ 709 the reference form underflows to 0 with the family's, and a
    node where it is 0 bounds nothing; a NaN ratio binds, at eta = 0."""
    s = model.grid.nodes
    den1 = expit(s)
    den2 = den1 * expit(-s)
    r1 = np.divide(q1, den1, out=np.full(den1.shape, np.inf), where=den1 > 0.0)
    r2 = np.divide(q2, den2, out=np.full(den2.shape, np.inf), where=den2 > 0.0)
    i1, i2 = int(np.argmin(r1)), int(np.argmin(r2))
    if r1[i1] <= r2[i2] or np.isnan(r1[i1]):
        eta, node, cond = float(r1[i1]), i1, "slope"
    else:
        eta, node, cond = float(r2[i2]), i2, "curvature"
    if not eta > 0.0:
        return LowerBoundReport(0.0, node, cond)
    return LowerBoundReport(eta, None, None)


def check_lower_bound(rhs: RhsFamily) -> LowerBoundReport:
    """Margin eta of the curvature lower bound for the family, computed on
    the first call; later calls return the same report.

    eta > 0 is the hypothesis the magnification argument needs; the
    experiment driver requires the target time below eta, and reports
    honestly when the family fails the bound (the point-mass mixtures do,
    at the crossover shoulder between pole and background profiles).
    """
    return rhs._lower_bound
