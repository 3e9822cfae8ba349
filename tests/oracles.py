"""Independent oracles used by the tests.

These deliberately avoid the package's own differentiation and quadrature
paths: grid functions are differentiated with central stencils, the
complex Hessian is taken by nested real finite differences in the ambient
coordinates, and integrals are done with adaptive quadrature.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Central second difference of a grid function on interior nodes, with
    second-order one-sided stencils at the two ends; full-length array."""
    v = np.asarray(values, dtype=float)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


class DegenerateMetricError(RuntimeError):
    """A potential fails strict positivity of u' or u'' where it is required."""

    def __init__(self, message: str, node: int | None = None, coordinate: float | None = None):
        super().__init__(message)
        self.node = node
        self.coordinate = coordinate


def ricci_potential(u) -> np.ndarray:
    """-log of the reduced Monge-Ampere density of a grid potential u, on
    interior nodes.

    The curvature form of the metric defined by u is the complex Hessian of
    this potential. Raises DegenerateMetricError exactly when u is not
    Kahler, naming the node and condition of ``u.kahler_violation()``. In
    the far tails the true curvature of a smooth potential sits below what
    second differences of O(|u|) doubles can resolve; such nodes saturate
    the log instead of erroring, and consumers restrict to the resolvable
    range.

    Uses fourth-order stencils, central second order at the two nodes next
    to the ends: the curvature identities this feeds are checked at the
    1e-8 level, below the second-order truncation term.
    """
    node, which = u.kahler_violation()
    if node is not None:
        s_bad = float(u.grid.nodes[node])
        raise DegenerateMetricError(f"{which} fails positivity at node {node} (s = {s_bad:.6g})",
                                    node=node, coordinate=s_bad)
    v, h = u.values, u.grid.h
    d1, d2 = np.empty(v.size - 2), np.empty(v.size - 2)
    d1[[0, -1]] = (v[[2, -1]] - v[[0, -3]]) / (2.0 * h)
    d2[[0, -1]] = (v[[2, -1]] - 2.0 * v[[1, -2]] + v[[0, -3]]) / h**2
    d1[1:-1] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    d2[1:-1] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                + 16.0 * v[3:-1] - v[4:]) / (12.0 * h**2)
    s = u.grid.nodes[1:-1]
    tiny = np.finfo(float).tiny
    return -(np.log(np.maximum(d2, tiny)) + (u.n - 1) * np.log(np.maximum(d1, tiny))
             - u.n * s)


def ma_density_formula(n: int, s, d1, d2):
    """Pointwise reduced density e^{-ns} (u')^{n-1} u'' from given derivatives."""
    return np.exp(-n * np.asarray(s, dtype=float)) * np.asarray(d1) ** (n - 1) * np.asarray(d2)


def complex_hessian_det(func, z: np.ndarray, delta: float = 3e-4) -> float:
    """det of the complex Hessian of a real function of n complex variables.

    ``func`` takes the real coordinate vector (x1, y1, ..., xn, yn). Central
    second differences in each real direction are combined by

        d_{z_i} d_{zbar_j} = 1/4 [(d_{x_i x_j} + d_{y_i y_j})
                                  + i (d_{x_i y_j} - d_{y_i x_j})].
    """
    n = z.size
    x = np.empty(2 * n)
    x[0::2] = z.real
    x[1::2] = z.imag
    m = 2 * n
    hess = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            ei = np.zeros(m)
            ej = np.zeros(m)
            ei[i] = delta
            ej[j] = delta
            hess[i, j] = (func(x + ei + ej) - func(x + ei - ej)
                          - func(x - ei + ej) + func(x - ei - ej)) / (4 * delta**2)
    cmplx = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(n):
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            cmplx[i, j] = 0.25 * ((hess[xi, xj] + hess[yi, yj])
                                  + 1j * (hess[xi, yj] - hess[yi, xj]))
    return float(np.linalg.det(cmplx).real)


def weighted_average_quad(f, weight, a: float, b: float) -> float:
    """Adaptive-quadrature weighted mean of f against a positive weight."""
    num, _ = quad(lambda s: f(s) * weight(s), a, b, limit=400)
    den, _ = quad(weight, a, b, limit=400)
    return num / den


def dirac_density(a: float, r2) -> float:
    """Point-mass mollifier a^2 / (pi (|z|^2 + a^2)^2) on the complex line,
    a > 0.

    Integrates to 1 over C for every a and concentrates at the origin as
    a -> 0. Its negative log has positive Laplacian, which is the
    1-dimensional form of the curvature lower bound the magnifying
    construction needs.
    """
    r2 = np.asarray(r2, dtype=float)
    return a**2 / (np.pi * (r2 + a**2) ** 2)


def disc_mass_quad(density, radius: float) -> float:
    """Integral of a radial density over the disc |z| <= radius in C."""
    val, _ = quad(lambda r: density(r * r) * 2.0 * np.pi * r, 0.0, radius, limit=400)
    return val


def continuum_neutral_potential(model, slope_power, s_points):
    """Continuum neutral solution by adaptive quadrature of the first integral.

    ``slope_power`` maps s to (u'(s))^n in closed form; the potential is
    anchored at psi(s_max) on the right, matching the package convention.
    """
    import numpy as np
    n = model.n
    smax = model.grid.s_max
    anchor = float(model.degree * np.logaddexp(0.0, smax))

    def up(s):
        return slope_power(s) ** (1.0 / n)

    out = []
    for s in s_points:
        val, _ = quad(up, s, smax, limit=400, epsabs=1e-12, epsrel=1e-12)
        out.append(anchor - val)
    return np.array(out)



def orbit_phi(model, c: float) -> np.ndarray:
    """The perturbation of psi pulled back by the dilation s -> s + c, a
    solution of the magnifying equation for F = 1 at the Kahler-Einstein
    time t_b = (n + 1) / d, for every c:

        phi_c = d (softplus(s + c) - softplus(s)) - n c / t_b.

    The density of psi(s + c) is e^{nc - (n + 1) (softplus(s + c) -
    softplus(s))} times psi's, which the level -n c / t_b makes e^{-t_b phi_c}."""
    s, n, d = model.grid.nodes, model.n, model.degree
    t_b = (n + 1) / d
    return d * (np.logaddexp(0.0, s + c) - np.logaddexp(0.0, s)) - n * c / t_b

# ---------------------------------------------------------------------------
# Per-call closed forms: the right-hand side's logistic and softplus terms
# evaluated afresh on every call, the formulas the model's cached node-wise
# closed forms replace. Bitwise equality against these pins that caching
# changed no output.


def xi_eps_d1(s, eps):
    """d/ds xi_eps = logistic of s - 2 log eps."""
    from radialma.grid import expit

    return expit(np.asarray(s, dtype=float) - 2.0 * np.log(eps))


def xi_eps_d2(s, eps):
    """d^2/ds^2 xi_eps = expit(a) expit(-a), a = s - 2 log eps."""
    from radialma.grid import expit

    a = np.asarray(s, dtype=float) - 2.0 * np.log(eps)
    return expit(a) * expit(-a)


def dirac_rhs_per_call(gamma, eps, model):
    """(density, c_smooth, left_flux_offset) of ``build_dirac_rhs`` for
    gamma > 0."""
    m = model
    n, h = m.n, m.grid.h
    xi_slopes = np.log1p(np.expm1(h) * xi_eps_d1(m.grid.nodes[:-1], eps)) / h
    p_xi = np.diff(xi_slopes ** n) / (n * h)
    w = m.weight
    total = float(np.sum(w))
    sing = float(np.sum(p_xi))
    c = max((total - gamma**n * sing) / total, 0.0)
    density = gamma**n * p_xi + c * w
    p0 = m.psi_slopes[0]
    offset = (gamma**n * xi_slopes[0] ** n + c * p0**n) ** (1.0 / n) - p0
    return density, c, float(offset)


def manufactured_rhs(model, phi_star, kind):
    """The family whose discrete equation of ``kind`` has the exact solution
    phi_star, up to its level: a manufactured discrete solution of the
    package's own flux form, so it reads ``grid.cell_masses``.

    The cell masses are those of the half-node slopes w* of u* = psi +
    phi_star times e^{-sigma t phi_star}, rescaled so that n h sum R =
    W_last^n - w*_{1/2}^n, the flux the right row asks for; the left flux
    offset is phi_star's first slope, which u*'s first slope has over psi's.
    The rescaling moves the level only: with e^{sigma t kappa} times the
    scale equal to 1, phi_star + kappa meets every row."""
    from radialma.grid import cell_masses
    from radialma.rhs import MollifierProfile, RhsFamily

    n, h, W = model.n, model.grid.h, model.psi_slopes
    w = W + np.diff(phi_star) / h
    cells = cell_masses(w, n, h) * np.exp(-kind.exponent_rate * phi_star[1:-1])
    cells *= (W[-1] ** n - w[0] ** n) / (n * h * np.sum(cells))
    return RhsFamily(kind="manufactured", model=model,
                     profile=MollifierProfile(cells, float(np.sum(cells))),
                     profile_scale=1.0, c_smooth=0.0, left_flux_offset=float(w[0] - W[0]))


def reduced_mass(rhs) -> float:
    """Quadrature of the reduced mass element n R ds of a family over the
    domain."""
    m = rhs.model
    return float(m.n * m.grid.h * np.sum(rhs.density))


def singular_mass(rhs) -> float:
    """Mass carried by the point-mass part of a family, in slope units."""
    if rhs.kind != "dirac_approx":
        return 0.0
    m = rhs.model
    xp = xi_eps_d1(m.grid.nodes[[0, -1]], rhs.epsilon)
    return rhs.gamma**m.n * float(xp[1] ** m.n - xp[0] ** m.n)


def log_curvature_derivs_per_call(rhs):
    """``RhsFamily.log_curvature_derivs`` of a constant, divisor or
    point-mass family."""
    from radialma.grid import expit, softplus

    m = rhs.model
    n, d, s = m.n, m.degree, m.grid.nodes
    sig, sigm = expit(s), expit(-s)
    if rhs.kind == "constant":
        return (n + 1) * sig, (n + 1) * sig * sigm
    if rhs.kind == "divisor":
        xs = xi_eps_d1(s, rhs.epsilon)
        return ((n + 1) * sig + rhs.delta_prime * xs,
                (n + 1) * sig * sigm + rhs.delta_prime * xi_eps_d2(s, rhs.epsilon))
    a = s - 2.0 * np.log(rhs.epsilon)
    xs, xsm = expit(a), expit(-a)
    if rhs.c_smooth <= 0.0 or rhs.gamma <= 0.0:
        theta = np.ones_like(s) if rhs.c_smooth <= 0.0 else np.zeros_like(s)
    else:
        log_sing = n * np.log(rhs.gamma) - n * softplus(-a) - softplus(a)
        log_smooth = (np.log(rhs.c_smooth) + n * np.log(d)
                      - n * softplus(-s) - softplus(s))
        theta = expit(log_sing - log_smooth)
    thp = 1.0 - theta
    q1 = (n + 1) * (thp * sig + theta * xs)
    q2 = ((n + 1) * (thp * sig * sigm + theta * xs * xsm)
          - theta * thp * ((n + 1) * (sig - xs)) ** 2)
    return q1, q2


def lower_bound_per_call(rhs):
    """(eta, limiting_node) of ``check_lower_bound``."""
    from radialma.grid import expit

    s = rhs.model.grid.nodes
    q1, q2 = log_curvature_derivs_per_call(rhs)
    r1 = q1 / expit(s)
    r2 = q2 / (expit(s) * expit(-s))
    i1, i2 = int(np.argmin(r1)), int(np.argmin(r2))
    eta, node = (float(r1[i1]), i1) if r1[i1] <= r2[i2] else (float(r2[i2]), i2)
    return (0.0, node) if eta <= 0.0 else (eta, None)


def diagnostics_per_call(phi, rhs):
    """``diagnostics_for`` through a validated potential u = psi + phi on the
    whole grid: its windowed secants, and the mass from the whole array of
    the solver's half-node slopes psi_slopes + diff(phi) / h."""
    from radialma.grid import RadialPotential, average
    from radialma.rhs import LELONG_CAP, LELONG_WINDOW, LelongEstimate
    from radialma.solver import Diagnostics

    model = rhs.model
    grid, h = model.grid, model.grid.h
    u = RadialPotential(grid, model.psi + phi, model.n)
    window, a = min(max(LELONG_WINDOW, 4.0 * h), grid.s_max - grid.s_min), grid.s_min
    if rhs.pole_anchor is not None:
        cap = min(LELONG_CAP, grid.s_max - 4.0 * h)
        a0 = max(rhs.pole_anchor, grid.s_min)
        b = min(a0 + LELONG_WINDOW, cap)
        anchor = max(min(a0, b - max(4.0 * h, 1.0)), grid.s_min)
        if b - anchor >= 4.0 * h:
            window, a = b - anchor, anchor

    def secant(width):
        i, j = grid.index_of(a), grid.index_of(a + width)
        return float((u.values[j] - u.values[i]) / (grid.nodes[j] - grid.nodes[i]))

    v, v_half = secant(window), secant(window / 2.0)
    lelong = LelongEstimate(max(v, 0.0), window, abs(v - v_half))
    w = model.psi_slopes + np.diff(phi) / h
    mass = w[-1] ** model.n - w[0] ** model.n
    return Diagnostics(sup_phi=float(np.max(phi)), inf_phi=float(np.min(phi)),
                       avg_phi=average(phi, model), lelong=lelong, mass=mass)


K_CAP = 24


def stalk_per_germ(seq):
    """``stalk_from_sequence`` as a search through germ integrals: the
    least k <= K_CAP whose germ integral has a finite value against every
    entry, or None when no k up to K_CAP has."""
    from radialma.rhs import pole_lelong
    from radialma.multiplier import StalkDescriptor, germ_integral

    product = 0.0
    for vals, tau, rhs in seq.entries:
        product = max(product, tau * pole_lelong(vals, rhs).value)
    for k in range(K_CAP + 1):
        if all(math.isfinite(germ_integral(k, vals, tau, rhs).value)
               for vals, tau, rhs in seq.entries):
            return StalkDescriptor(k_min=k, tau_nu_product=product)
    return None


# ---------------------------------------------------------------------------
# The discrete comparison principle, a property of the package's own flux
# form, ``grid.cell_masses``, which these checks therefore read. The flux
# form is a monotone scheme, so for two grid potentials u, v of one
# dimension n on one grid and a subinterval [a, b]: u >= v at both ends and
# cell masses of u at most those of v inside imply u >= v on [a, b]. Every
# reading is held to its rounding, ``grid.rounding_floor``, never to a
# tolerance.


def density_floor(floor: float, slopes: np.ndarray, n: int) -> np.ndarray:
    """Rounding noise of the ``cell_masses`` of ``slopes``: ``floor``, a
    ``rounding_floor``, times the larger neighbouring slope magnitude to the
    power n - 1, as differences of slope powers w^n over n h carry it."""
    return floor * np.maximum(slopes[:-1], slopes[1:]) ** (n - 1)


class Comparison(NamedTuple):
    """``failed_hypothesis`` is None, "boundary domination" or "density
    domination"; ``holds`` claims the conclusion, and only when both
    hypotheses hold; ``margin`` is min(u - v) over [a, b], or at the
    failure."""

    failed_hypothesis: str | None
    holds: bool
    margin: float

    @property
    def hypotheses_ok(self) -> bool:
        return self.failed_hypothesis is None


def bt_compare(u, v, a: float, b: float) -> Comparison:
    """The comparison principle of u against v on [a, b] (nodes included).

    With F the larger ``rounding_floor`` of u and v, values are held to
    their rounding F h^2 and cell masses to their ``density_floor``, w the
    larger half-node slope magnitude of u and v. The reduced densities
    (u')^{n-1} u'' are compared without the common positive factor e^{-ns},
    which would amplify the floor exponentially at the pole side.
    """
    from radialma.grid import cell_masses, rounding_floor

    grid, h, n = u.grid, u.grid.h, u.n
    ia, ib = grid.index_of(a), grid.index_of(b)
    floor = max(rounding_floor(u.values, h), rounding_floor(v.values, h))
    tol = floor * h**2
    du = u.values - v.values
    if min(du[ia], du[ib]) < -tol:
        return Comparison("boundary domination", False, float(min(du[ia], du[ib])))
    # the slopes ia .. ib - 1 give the cell masses of the nodes ia + 1 .. ib - 1
    wu, wv = u.slopes[ia:ib], v.slopes[ia:ib]
    limit = density_floor(floor, np.maximum(np.abs(wu), np.abs(wv)), n)
    gap = cell_masses(wv, n, h) - cell_masses(wu, n, h)
    if np.any(gap < -limit):
        return Comparison("density domination", False, float(gap.min()))
    margin = float(du[ia:ib + 1].min())
    return Comparison(None, margin >= -tol, margin)
