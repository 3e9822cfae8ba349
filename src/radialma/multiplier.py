"""Integrability thresholds and the stalk of the dynamic multiplier ideal.

A germ vanishing to order k at the pole point contributes |z|^{2k} = e^{ks}
to the weighted integrals. With a potential of left slope nu and weight
e^{-tau*phi}, the reduced integrand near the pole behaves like
e^{(k + n - tau*nu) s} ds, so the germ is integrable exactly when
k + n > tau*nu (strict; the borderline diverges logarithmically).

The one rule is that inequality, with nu the secant ``pole_lelong``: a germ
is finite iff alpha = k + n - tau*nu > BORDERLINE_TOL, whatever its value
(which may pass the double range), and the stalk solves it for k.

Germ integrals are taken over the pole-side chart s <= 0 (|z| <= 1), which
is what makes them monotone in the vanishing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, require_finite
from .geometry import KahlerModel, pole_lelong
from .grid import grid_values
from .rhs import RhsFamily

BORDERLINE_TOL = 1e-9


def _integrable(alpha: float) -> bool:
    """The one integrability rule: e^{alpha s} on (-inf, 0], alpha > 0 by the tolerance."""
    return alpha > BORDERLINE_TOL


@dataclass(frozen=True)
class GermIntegral:
    """Outcome of a weighted germ integrability test."""

    value: float                 # math.inf when divergent or past the double range
    tail_exponent: float         # k + n - tau * nu_measured

    @property
    def finite(self) -> bool:
        return _integrable(self.tail_exponent)


def germ_integral(k: int, phi, tau: float, model: KahlerModel,
                  rhs: RhsFamily | None = None) -> GermIntegral:
    """Integrability of a germ of vanishing order k against e^{-tau phi}.

    Reduced integrand e^{ks} e^{-tau phi} e^{ns} ds over the pole-side
    chart s <= 0: the trapezoid rule on the grid plus the analytic tail
    e^{(k+n-tau*nu)s}, continued from phi(s_min) with the pole slope
    nu = ``pole_lelong``, on (-inf, s_min]. Finite iff k + n > tau*nu
    strictly (by BORDERLINE_TOL); the value is inf when not, or past 1e308.
    """
    if k < 0 or int(k) != k:
        raise ConfigurationError(f"vanishing order must be a nonnegative integer, got {k}")
    require_finite(tau=tau)
    grid = model.grid
    vals = grid_values(phi, grid)
    if not np.all(np.isfinite(vals)):
        raise ConfigurationError("potential values must be finite")
    nu = pole_lelong(vals, model, rhs).value
    alpha = k + model.n - tau * nu

    s = grid.nodes
    cut = s <= 0.0
    if not np.any(cut):
        raise ConfigurationError("grid has no pole-side nodes (s <= 0)")
    exponents = (k + model.n) * s[cut] - tau * vals[cut]
    peak = float(np.max(exponents))
    w = np.full(cut.sum(), grid.h)
    w[0] *= 0.5
    w[-1] *= 0.5
    base = float(np.exp(peak) * np.sum(w * np.exp(exponents - peak))) if peak <= 700.0 else math.inf

    # exact tail on (-inf, s_min] of the slope-nu continuation of phi
    tail_peak = (k + model.n) * grid.s_min - tau * float(vals[0])
    tail = math.exp(tail_peak) / alpha \
        if _integrable(alpha) and tail_peak <= 700.0 else math.inf
    return GermIntegral(value=base + tail, tail_exponent=alpha)


@dataclass(frozen=True)
class PotentialSequence:
    """A recorded sequence (phi_nu, tau_nu, F_nu) on a common model."""

    model: KahlerModel
    entries: tuple[tuple[np.ndarray, float, RhsFamily | None], ...]

    def __post_init__(self):
        if not self.entries:
            raise ConfigurationError("sequence must be nonempty")
        norm = []
        for vals, tau, rhs in self.entries:
            if not (0.0 < tau < 1.0):
                raise ConfigurationError(f"tau must lie in (0, 1), got {tau}")
            vals = grid_values(vals, self.model.grid)
            if not np.all(np.isfinite(vals)):
                raise ConfigurationError("potential values must be finite")
            norm.append((vals, float(tau), rhs))
        object.__setattr__(self, "entries", tuple(norm))


@dataclass(frozen=True)
class StalkDescriptor:
    """Stalk of the dynamic multiplier ideal at the pole point: the least
    integrable vanishing order and the sup of tau_nu times the pole slope."""

    k_min: int
    tau_nu_product: float

    @property
    def nontrivial(self) -> bool:
        """Some vanishing is forced: k_min >= 1."""
        return self.k_min >= 1

    @property
    def equals_maximal_ideal(self) -> bool:
        """The stalk is the maximal ideal of the pole point: k_min = 1."""
        return self.k_min == 1


def stalk_from_sequence(seq: PotentialSequence) -> StalkDescriptor:
    """Least vanishing order integrable against every entry: the least
    k >= 0 with k + n - tau_nu_product > BORDERLINE_TOL, found in O(1) for
    any product. ``tau_nu_product`` is the supremum of tau_nu times the pole
    slope ``pole_lelong``. Insensitive to the ordering of the entries.
    """
    model, n = seq.model, seq.model.n
    if model.grid.s_min > 0.0:
        raise ConfigurationError("grid has no pole-side nodes (s <= 0)")
    product = 0.0
    for vals, tau, rhs in seq.entries:
        product = max(product, tau * pole_lelong(vals, model, rhs).value)
    # the least such k is floor(product) + 1 - n, or one more when product
    # lies within BORDERLINE_TOL below an integer
    k = max(0, math.floor(product) + 1 - n)
    k_min = k if _integrable(k + n - product) else k + 1
    return StalkDescriptor(k_min=k_min, tau_nu_product=product)


@dataclass(frozen=True)
class TrivialLemmaReport:
    """Checklist of the numerically verifiable rationality hypotheses.

    The conclusion (a rational branch of the collapse locus) needs sheaf
    cohomology and is never asserted here; the report states which
    hypotheses hold for the computed stalk and curvature margin.
    """

    nontrivial_ok: bool
    curvature_bound_ok: bool
    not_maximal_ideal_ok: bool
    conclusion: str
    notes: tuple[str, ...]


def trivial_lemma_report(stalk: StalkDescriptor, curvature_margin: float) -> TrivialLemmaReport:
    """Evaluate the checkable hypotheses against a stalk and a margin eta."""
    notes: list[str] = []
    curvature_ok = curvature_margin > 0.0
    if not stalk.nontrivial:
        notes.append("stalk is trivial: no vanishing is forced at the pole point")
    if not curvature_ok:
        notes.append(
            "no common positive curvature lower bound (eta = 0): without it the "
            "collapse locus can be a smooth elliptic curve, so rationality fails")
    if stalk.equals_maximal_ideal:
        notes.append(
            "stalk equals the maximal ideal of the pole point; the rationality "
            "argument needs strict containment or a second point")
    return TrivialLemmaReport(
        nontrivial_ok=stalk.nontrivial,
        curvature_bound_ok=curvature_ok,
        not_maximal_ideal_ok=stalk.nontrivial and not stalk.equals_maximal_ideal,
        conclusion="deferred",
        notes=tuple(notes),
    )
