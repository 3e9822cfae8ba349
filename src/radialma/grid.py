"""Uniform grids in the log-radial coordinate and grid potentials.

All fields are reduced to one dimension through the coordinate s = log|z|^2.
A rotationally symmetric potential on C^n (a chart of projective space) is a
function u(s); its complex Hessian has eigenvalue u'/e^s with multiplicity
n-1 and u''/e^s with multiplicity 1, which is what the rest of the package
builds on.

Derivatives are second-order central differences on interior nodes with
second-order one-sided stencils at the two ends; they serve the diagnostics
(Kahler positivity, dominance, pole slopes). The solver works on half-node
slopes instead (differences of neighbouring node values over h): its
interior rows are in flux form and its two boundary rows prescribe the
first and last of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError


def derivative(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative of a grid function, full-length array."""
    v = np.asarray(values, dtype=float)
    if v.size < 3:
        raise ConfigurationError("need at least 3 nodes to differentiate")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return out


def second_derivative(values: np.ndarray, h: float) -> np.ndarray:
    """Second derivative of a grid function, full-length array."""
    v = np.asarray(values, dtype=float)
    if v.size < 4:
        raise ConfigurationError("need at least 4 nodes for a one-sided second derivative")
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return out


def derivative_o4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order first derivative; second-order fallback near the ends."""
    v = np.asarray(values, dtype=float)
    out = derivative(v, h)
    if v.size >= 5:
        out[2:-2] = (v[:-4] - 8.0 * v[1:-3] + 8.0 * v[3:-1] - v[4:]) / (12.0 * h)
    return out


def second_derivative_o4(values: np.ndarray, h: float) -> np.ndarray:
    """Fourth-order second derivative; second-order fallback near the ends."""
    v = np.asarray(values, dtype=float)
    out = second_derivative(v, h)
    if v.size >= 5:
        out[2:-2] = (-v[:-4] + 16.0 * v[1:-3] - 30.0 * v[2:-2]
                     + 16.0 * v[3:-1] - v[4:]) / (12.0 * h**2)
    return out


@dataclass(frozen=True)
class SGrid:
    """Uniform nodes in s = log|z|^2 on a truncated interval."""

    s_min: float
    s_max: float
    points: int

    def __post_init__(self):
        if not (np.isfinite(self.s_min) and np.isfinite(self.s_max)):
            raise ConfigurationError("grid endpoints must be finite")
        if self.s_min >= self.s_max:
            raise ConfigurationError(f"s_min={self.s_min} must be < s_max={self.s_max}")
        if self.points < 3:
            raise ConfigurationError(f"need at least 3 grid points, got {self.points}")

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

    Values are treated as immutable after construction; concurrent readers
    are safe.
    """

    grid: SGrid
    values: np.ndarray
    n: int

    def __post_init__(self):
        v = np.array(self.values, dtype=float, copy=True)
        if v.shape != (self.grid.points,):
            raise ConfigurationError(
                f"values shape {v.shape} does not match grid with {self.grid.points} points")
        if not np.all(np.isfinite(v)):
            raise ConfigurationError("potential values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def d1(self) -> np.ndarray:
        out = derivative(self.values, self.grid.h)
        out.flags.writeable = False
        return out

    @cached_property
    def d2(self) -> np.ndarray:
        out = second_derivative(self.values, self.grid.h)
        out.flags.writeable = False
        return out

    def shifted(self, c: float) -> "RadialPotential":
        return RadialPotential(self.grid, self.values + c, self.n)

    def positivity_floor(self) -> float:
        """Noise floor for sign checks on discrete derivatives: the
        ``rounding_floor`` of the values above the documented degeneracy
        tolerance 1e-12."""
        return 1e-12 + rounding_floor(self.values, self.grid.h)

    def kahler_violation(self) -> tuple[int | None, str | None]:
        """First interior node where u' or u'' fails positivity, if any."""
        floor = self.positivity_floor()
        d1 = self.d1[1:-1]
        d2 = self.d2[1:-1]
        bad1 = np.nonzero(d1 <= -floor)[0]
        bad2 = np.nonzero(d2 <= -floor)[0]
        candidates = []
        if bad1.size:
            candidates.append((int(bad1[0]) + 1, "u'"))
        if bad2.size:
            candidates.append((int(bad2[0]) + 1, "u''"))
        if not candidates:
            return None, None
        return min(candidates)

    def is_kahler(self) -> bool:
        idx, _ = self.kahler_violation()
        return idx is None


def rounding_floor(values: np.ndarray, h: float) -> float:
    """Rounding noise of second differences of ``values``: an O(|v|) array
    carries noise of order ulp(|v|) / h^2, here 16 eps max(1, max|v|) / h^2,
    so a sign or a zero can only be asserted above it."""
    return 16.0 * np.finfo(float).eps * max(1.0, float(np.max(np.abs(values)))) / h**2


def grid_values(phi, grid: SGrid) -> np.ndarray:
    """Node values of a potential or array on ``grid``; any other shape is
    rejected rather than broadcast."""
    vals = phi.values if isinstance(phi, RadialPotential) else np.asarray(phi, dtype=float)
    if vals.shape != (grid.points,):
        raise ConfigurationError(
            f"values shape {vals.shape} does not match grid with {grid.points} points")
    return vals
