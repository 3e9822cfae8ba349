"""Uniform grids in the log-radial coordinate and grid potentials.

All fields are reduced to one dimension through the coordinate s = log|z|^2.
A rotationally symmetric potential on C^n (a chart of projective space) is a
function u(s); its complex Hessian has eigenvalue u'/e^s with multiplicity
n-1 and u''/e^s with multiplicity 1, which is what the rest of the package
builds on.

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
passes one gate, ``grid_values``; ``RadialPotential`` adds the one dimension rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, require_finite, require_integer

LOG_DBL_MAX = float(np.log(np.finfo(float).max))


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

    def require_same(self, other: "SGrid") -> None:
        if self != other:
            raise ConfigurationError("grids do not match")


DEFAULT_GRID = SGrid(-40.0, 40.0, 4001)


@dataclass(frozen=True, eq=False)
class RadialPotential:
    """A grid function u(s) together with the dimension it lives on.

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
