"""Uniform grids in the log-radial coordinate, grid potentials, and the
reference model on them.

All fields are reduced to one dimension through the coordinate s = log|z|^2.
A rotationally symmetric potential on C^n (a chart of projective space) is a
function u(s); its complex Hessian has eigenvalues u'/e^s (multiplicity
n-1) and u''/e^s (multiplicity 1), so

    det(d_i d_jbar u) = e^{-ns} (u')^{n-1} u'',

which is what the rest of the package builds on. Mass and volume are
reported in slope units: the reference line bundle of degree d carries
total Monge-Ampere mass d^n, i.e. dimensional 2*pi factors are normalised
away. The reduced mass element of a potential u is d[(u')^n] =
n (u')^{n-1} u'' ds; a solution's total is read where its fluxes are, from
the solver's two boundary slopes (``solver.diagnostics_for``).

A grid potential is differentiated one way, the solver's: its half-node
slopes (differences of neighbouring node values over h, ``slopes``) and
the flux form's cell masses on the N - 2 interior nodes (``cell_masses``).
The model's weight, every right-hand side and the solver's interior rows
read ``cell_masses``. The flux form is monotone, so the discrete comparison
principle holds for it: boundary domination and cell-mass domination on a
subinterval, each to its rounding, imply domination inside. The two
boundary rows prescribe the first and last slope. Every sign check is made
against one noise floor, ``rounding_floor``, and Kahler positivity is
decided by one scan of the slopes, ``first_violation``. A grid function
passes one gate, ``grid_values``: the model's reference psi and every
perturbation phi are such arrays. ``RadialPotential`` is a solved potential
u = psi + phi, which adds the one dimension rule and the positivity check.

The reference metric of a ``KahlerModel`` is Fubini-Study: psi(s) =
d log(1 + e^s), whose derivatives are logistic functions. psi is the
model's fixed reference, a read-only array of node values, not a potential
the lab solves for: the continuity path is a sequence of perturbations
phi = u - psi, and a solved u is a ``RadialPotential``, built only where a
caller asks for one (``SolveResult.u``, ``neutral_oracle``). The half-node
slopes of psi and of the mollified pole are exact softplus steps,
``softplus_step``; the closed forms are evaluated where a quadrature
weight or curvature ratio that must be accurate below discretisation
noise reads them, such as the volume weights of ``average``, the
trapezoid rule against the analytic volume density. The geometry is
immutable; what is built on a model, its families and the mollifier
profiles they share, is kept in one bounded cache, ``KahlerModel.memoized``.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, require_finite, require_integer, require_positive

LOG_DBL_MAX = float(np.log(np.finfo(float).max))
MEMO_SIZE = 16


@dataclass(frozen=True)
class SGrid:
    """Uniform nodes in s = log|z|^2 on a finite interval s_min < s_max; the
    number of ``points`` is an integer >= 5 (``require_integer``)."""

    s_min: float
    s_max: float
    points: int

    def __post_init__(self):
        require_finite(s_min=self.s_min, s_max=self.s_max)
        if self.s_min >= self.s_max:
            raise ConfigurationError(f"s_min={self.s_min} must be < s_max={self.s_max}")
        # the pole secant needs a window of 4h, which takes 5 nodes
        require_integer(5, points=self.points)
        # the exact softplus steps of psi and the pole take e^h - 1
        if self.h >= LOG_DBL_MAX:
            raise ConfigurationError(
                f"grid spacing h = {self.h:.6g} must be below log(DBL_MAX) = "
                f"{LOG_DBL_MAX:.6g}; add points")

    @property
    def h(self) -> float:
        return (self.s_max - self.s_min) / (self.points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        s = np.linspace(self.s_min, self.s_max, self.points)
        s.flags.writeable = False
        return s

    def index_of(self, s: float) -> int:
        """Index of the node nearest to s (clamped to the grid)."""
        i = int(round((s - self.s_min) / self.h))
        return min(max(i, 0), self.points - 1)


DEFAULT_GRID = SGrid(-40.0, 40.0, 4001)


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """A solved potential u(s) = psi + phi together with the dimension it
    lives on; the package builds one only where a caller asks for a solved u
    (``SolveResult.u``, ``neutral_oracle``).

    The values pass ``grid_values`` and are copied; the dimension n is an
    integer >= 1. Immutable after construction; concurrent readers are safe.
    """

    grid: SGrid
    values: np.ndarray
    n: int

    def __post_init__(self):
        require_integer(1, dimension=self.n)
        v = grid_values(self.values, self.grid).copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def slopes(self) -> np.ndarray:
        """Half-node slopes (u_{i+1} - u_i) / h, N - 1 of them."""
        out = np.diff(self.values) / self.grid.h
        out.flags.writeable = False
        return out

    def kahler_violation(self) -> tuple[int | None, str | None]:
        """``first_violation`` of the slopes at their ``rounding_floor``, the
        condition named "u'" or "u''"; (None, None) for a Kahler potential."""
        h = self.grid.h
        node, which = first_violation(self.slopes, rounding_floor(self.values, h), h)
        return node, {"slope": "u'", "curvature": "u''"}.get(which)

    def is_kahler(self) -> bool:
        idx, _ = self.kahler_violation()
        return idx is None


def cell_masses(slopes: np.ndarray, n: int, h: float) -> np.ndarray:
    """Cell masses (w_{i+1/2}^n - w_{i-1/2}^n) / (n h) of half-node slopes w, the
    flux form's (u')^{n-1} u'' on the N - 2 interior nodes (i is node i + 1)."""
    return np.diff(slopes ** n) / (n * h)


def first_violation(slopes: np.ndarray, floor: float, h: float) -> tuple[int | None, str | None]:
    """The one positivity rule: the first node where the radial form with
    half-node slopes ``slopes`` on spacing h fails, and the condition,
    (node, "slope" or "curvature"), or (None, None). Against ``floor``, a
    ``rounding_floor``, a slope fails below -floor h, the rounding of a
    first difference, at its left node; a slope difference over h fails
    below -floor, at the node between. A slope failure wins a tie."""
    bad_slope = np.flatnonzero(slopes < -floor * h)
    bad_curvature = np.flatnonzero(np.diff(slopes) / h < -floor)
    none = slopes.size
    i = int(bad_slope[0]) if bad_slope.size else none
    j = int(bad_curvature[0]) + 1 if bad_curvature.size else none
    if min(i, j) == none:
        return None, None
    return (i, "slope") if i <= j else (j, "curvature")


def rounding_floor(values: np.ndarray, h: float) -> float:
    """Rounding noise of second differences of ``values``: an O(|v|) array
    carries noise of order ulp(|v|) / h^2, here 16 eps max(1, max|v|) / h^2,
    so a sign or a zero can only be asserted above it."""
    return 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(values)))) / h**2


def grid_values(values, grid: SGrid) -> np.ndarray:
    """The one gate for a grid function: ``values`` as one finite double per
    node of ``grid``, never broadcast, read from an integer or float array
    alone. A string, complex, bool or object array is rejected by its type:
    a ``RadialPotential`` u is an object array, never read as phi."""
    try:
        vals = np.asarray(values)
    except ValueError as exc:  # a ragged nesting
        raise ConfigurationError(f"potential values must be an array: {exc}") from None
    if vals.dtype.kind not in "iuf":
        raise ConfigurationError(f"potential values must be integers or floats, got "
                                 f"{type(values).__name__} of dtype {vals.dtype}")
    vals = vals.astype(float, copy=False)
    if vals.shape != (grid.points,):
        raise ConfigurationError(
            f"values shape {vals.shape} does not match grid with {grid.points} points")
    if not np.isfinite(vals).all():
        raise ConfigurationError("potential values must be finite")
    return vals


# ---------------------------------------------------------------------------
# The reference model


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
# Averages


def average(phi, model: KahlerModel) -> float:
    """Volume-weighted average of a perturbation phi, which passes ``grid_values``.

    Trapezoid rule against the analytic reduced volume density, with
    weights normalised to sum 1, so constants are reproduced to rounding.
    The integrand decays like e^{-|s|} at both ends, so the trapezoid sum
    is accurate far below the 1e-8 comparisons used in tests.
    """
    return float(np.dot(model._volume_quadrature, grid_values(phi, model.grid)))
