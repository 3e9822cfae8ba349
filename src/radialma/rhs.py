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
    the polarisation. Normalisable only for delta' < n.

The reduced densities are cell masses of the solver's flux form:
differences of half-node slope powers over n h, of psi for the smooth part
(``KahlerModel.weight``) and of xi_eps for the point-mass part. Discrete
mass sums therefore telescope exactly, the point-mass cell masses are
nonnegative, and F = 1 remains an exact fixed point at gamma = 0 /
delta' = 0. The point-mass family's left flux comes from the same
half-node slopes at the first face, so the discrete neutral first
integral holds exactly on every face.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConstraintViolationError
from .geometry import KahlerModel, expit, softplus
from .grid import RadialPotential, derivative, grid_values, second_derivative

POLE_ANCHOR_OFFSET = 6.0


def xi_eps(s, eps: float):
    """Mollified log pole log(e^s + eps^2); decreases to s as eps -> 0."""
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    return np.logaddexp(s, 2.0 * np.log(eps))


def xi_eps_d1(s, eps: float):
    """d/ds xi_eps = logistic of s - 2 log eps."""
    return expit(np.asarray(s, dtype=float) - 2.0 * np.log(eps))


def xi_eps_d2(s, eps: float):
    a = np.asarray(s, dtype=float) - 2.0 * np.log(eps)
    return expit(a) * expit(-a)


def dirac_density(a: float, r2) -> float:
    """Point-mass mollifier a^2 / (pi (|z|^2 + a^2)^2) on the complex line.

    Integrates to 1 over C for every a > 0 and concentrates at the origin
    as a -> 0. Its negative log has positive Laplacian, which is the
    1-dimensional form of the curvature lower bound the magnifying
    construction needs.
    """
    if a <= 0:
        raise ConfigurationError(f"scale a must be positive, got {a}")
    r2 = np.asarray(r2, dtype=float)
    return a**2 / (np.pi * (r2 + a**2) ** 2)


@dataclass(frozen=True, eq=False)
class RhsFamily:
    """A normalised positive density F on the model grid.

    ``values`` is F itself; ``density`` is the reduced mass density
    R = F (psi')^{n-1} psi'' as cell masses of the solver's flux form, zero
    on the two boundary nodes (the object the solver actually consumes).
    ``left_flux_offset`` is the prescribed excess of the first half-node
    slope of u over psi's, the flux that mass below the truncation cut
    sends through it; nonzero only for the point-mass family.
    """

    kind: str
    model: KahlerModel
    values: np.ndarray
    density: np.ndarray
    gamma: float = 0.0
    epsilon: float = 0.0
    delta_prime: float = 0.0
    c_smooth: float = 1.0
    left_flux_offset: float = 0.0
    pole_anchor: float | None = None

    def __post_init__(self):
        for name in ("values", "density"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (self.model.grid.points,):
                raise ConfigurationError(f"{name} does not live on the model grid")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(self.values <= 0.0):
            raise ConstraintViolationError("F must be strictly positive")

    @property
    def interior_density(self) -> np.ndarray:
        return self.density[1:-1]

    def reduced_mass(self) -> float:
        """Quadrature of the reduced mass element n R ds over the domain."""
        m = self.model
        return float(m.n * m.grid.h * np.sum(self.interior_density))

    def singular_mass(self) -> float:
        """Mass carried by the point-mass part, in slope units."""
        if self.kind != "dirac_approx":
            return 0.0
        m = self.model
        xp = xi_eps_d1(m.grid.nodes[[0, -1]], self.epsilon)
        return self.gamma**m.n * float(xp[1] ** m.n - xp[0] ** m.n)

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
        if self.kind == "divisor":
            xs = xi_eps_d1(s, self.epsilon)
            return ((n + 1) * sig + self.delta_prime * xs,
                    (n + 1) * sig * sigm + self.delta_prime * xi_eps_d2(s, self.epsilon))
        # dirac mixture: softmin of the two component log densities
        a = s - 2.0 * np.log(self.epsilon)
        xs, xsm = expit(a), expit(-a)
        if self.c_smooth <= 0.0 or self.gamma <= 0.0:
            theta = np.ones_like(s) if self.c_smooth <= 0.0 else np.zeros_like(s)
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


def constant_rhs(model: KahlerModel) -> RhsFamily:
    """F = 1; the fixed-point family (phi = 0 solves every equation kind)."""
    return RhsFamily(
        kind="constant",
        model=model,
        values=np.ones(model.grid.points),
        density=model.weight.copy(),
    )


def build_dirac_rhs(gamma: float, eps: float, model: KahlerModel) -> RhsFamily:
    """Point-mass family of pole mass gamma^n, mollified at scale eps.

    Requires gamma <= d; pole mass equal to the full model mass is admitted
    with a warning. The mollified layer sits near s = 2 log(eps); a warning
    is emitted when it is too close to the left truncation for solves to
    see its mass.
    """
    m = model
    n, d = m.n, m.degree
    if gamma < 0:
        raise ConstraintViolationError(f"gamma must be nonnegative, got {gamma}")
    if gamma > d:
        raise ConstraintViolationError(
            f"pole mass gamma^n = {gamma**n:.6g} exceeds the model mass {d**n:.6g}")
    if gamma == d:
        warnings.warn("pole mass equals the model mass; the smooth part of F degenerates",
                      stacklevel=2)
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    if gamma > 0 and 2.0 * np.log(eps) < m.grid.s_min + 8.0:
        warnings.warn(
            "mollified pole layer sits at or below the left truncation; "
            "solver mass accounting will not see all of it", stacklevel=2)

    if gamma == 0.0:
        return constant_rhs(m)

    # cell masses of the singular part: exact half-node slopes of xi_eps,
    # (xi(s + h) - xi(s)) / h = log1p(expm1(h) xi'(s)) / h, which increase,
    # so every cell mass is nonnegative
    h = m.grid.h
    xi_slopes = np.log1p(np.expm1(h) * xi_eps_d1(m.grid.nodes[:-1], eps)) / h
    p_xi = np.zeros(m.grid.points)
    p_xi[1:-1] = np.diff(xi_slopes ** n) / (n * h)
    w = m.weight
    total = float(np.sum(w[1:-1]))
    sing = float(np.sum(p_xi[1:-1]))
    c = max((total - gamma**n * sing) / total, 0.0)
    density = gamma**n * p_xi + c * w
    # F itself from the logistic closed forms: the discrete weight ratio is
    # rounding noise in the far tails where both curvatures underflow
    s = m.grid.nodes
    a = s - 2.0 * np.log(eps)
    ratio = (expit(a) / (d * expit(s))) ** (n - 1) * (
        expit(a) * expit(-a) / (d * expit(s) * expit(-s)))
    values = gamma**n * ratio + c
    # the full-line first integral u'^n = gamma^n xi'^n + c psi'^n on the
    # first face: what it already carries at s_min enters the truncated
    # problem as a left flux, not as interior mass (negligible when the
    # layer is well inside the domain)
    p0 = m.psi_slopes[0]
    offset = (gamma**n * xi_slopes[0] ** n + c * p0**n) ** (1.0 / n) - p0
    return RhsFamily(
        kind="dirac_approx",
        model=m,
        values=values,
        density=density,
        gamma=float(gamma),
        epsilon=float(eps),
        c_smooth=c,
        left_flux_offset=float(offset),
        pole_anchor=2.0 * np.log(eps) + POLE_ANCHOR_OFFSET,
    )


def build_divisor_rhs(delta_prime: float, eps: float, model: KahlerModel) -> RhsFamily:
    """Fractional-pole family F proportional to e^{-delta' xi_eps}.

    The pole order delta' at z = 0 must stay below n for the limiting mass
    to be finite; unlike the point-mass family the singularity carries no
    atom, so it satisfies the curvature lower bound but produces no pole in
    the solved potential.
    """
    m = model
    if delta_prime < 0:
        raise ConstraintViolationError(f"delta' must be nonnegative, got {delta_prime}")
    if delta_prime >= m.n:
        raise ConstraintViolationError(
            f"delta' = {delta_prime} >= n = {m.n}: mass diverges in the eps -> 0 limit")
    if eps <= 0:
        raise ConfigurationError(f"eps must be positive, got {eps}")
    if delta_prime == 0.0:
        return constant_rhs(m)
    shape = np.exp(-delta_prime * xi_eps(m.grid.nodes, eps))
    w = m.weight
    scale = float(np.sum(w[1:-1]) / np.sum(shape[1:-1] * w[1:-1]))
    values = scale * shape
    return RhsFamily(
        kind="divisor",
        model=m,
        values=values,
        density=values * w,
        delta_prime=float(delta_prime),
        epsilon=float(eps),
        c_smooth=scale,
    )


# ---------------------------------------------------------------------------
# Curvature lower bound (the margin eta)


@dataclass(frozen=True)
class LowerBoundReport:
    """Largest eta >= 0 such that the log-density curvature dominates eta
    times the degree-1 reference form, with the binding node."""

    eta: float
    positive: bool
    limiting_node: int | None
    limiting_condition: str | None


def dominance_margin(q1: np.ndarray, q2: np.ndarray, model: KahlerModel,
                     mask: np.ndarray | None = None) -> LowerBoundReport:
    """Largest eta with (q1, q2) >= eta * (psi_1', psi_1'') nodewise."""
    s = model.grid.nodes
    den1, den2 = expit(s), expit(s) * expit(-s)
    if mask is None:
        mask = np.ones_like(s, dtype=bool)
    r1 = q1[mask] / den1[mask]
    r2 = q2[mask] / den2[mask]
    idx = np.nonzero(mask)[0]
    i1, i2 = int(np.argmin(r1)), int(np.argmin(r2))
    if r1[i1] <= r2[i2]:
        eta, node, cond = float(r1[i1]), int(idx[i1]), "slope"
    else:
        eta, node, cond = float(r2[i2]), int(idx[i2]), "curvature"
    if eta <= 0.0:
        return LowerBoundReport(0.0, False, node, cond)
    return LowerBoundReport(eta, True, None, None)


def check_lower_bound(rhs: RhsFamily, t: float = 0.0,
                      phi: RadialPotential | np.ndarray | None = None) -> LowerBoundReport:
    """Margin eta of the curvature lower bound for the family, optionally
    with the time-dependent term -t*phi added to the log density.

    eta > 0 is the hypothesis the magnification argument needs; the
    experiment driver requires the target time below eta, and reports
    honestly when the family fails the bound (the point-mass mixtures do,
    at the crossover shoulder between pole and background profiles).
    """
    m = rhs.model
    q1, q2 = rhs.log_curvature_derivs()
    mask = None
    if phi is not None and t != 0.0:
        vals = grid_values(phi, m.grid)
        q1 = q1 - t * derivative(vals, m.grid.h)
        q2 = q2 - t * second_derivative(vals, m.grid.h)
        # grid curvature of phi is noise-limited; certify only where the
        # reference curvature is resolvable against it
        s = m.grid.nodes
        mask = expit(s) * expit(-s) >= 1e-6
    return dominance_margin(q1, q2, m, mask)
