"""Integrability thresholds and the stalk of the dynamic multiplier ideal.

A germ vanishing to order k at the pole point contributes |z|^{2k} = e^{ks}
to the weighted integrals. With a potential of left slope nu and weight
e^{-tau*phi}, the reduced integrand near the pole behaves like
e^{(k + n - tau*nu) s} ds, so the germ is integrable exactly when
k + n > tau*nu (strict; the borderline diverges logarithmically).

Truncated quadratures are always finite, so divergence is operational: the
integral is evaluated with the measured analytic tail attached on nested
extensions of the domain, and declared divergent when the tail exponent is
nonpositive or the nested values grow by a factor of five per extension.

Germ integrals are taken over the pole-side chart s <= 0 (|z| <= 1), which
is what makes them monotone in the vanishing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .geometry import KahlerModel, average
from .grid import RadialPotential
from .rhs import RhsFamily
from .solver import diagnostics_for

GROWTH_FACTOR = 5.0
TAIL_EXTENSION = 10.0
BORDERLINE_TOL = 1e-9


def _phi_values(phi, model: KahlerModel) -> np.ndarray:
    vals = phi.values if isinstance(phi, RadialPotential) else np.asarray(phi, dtype=float)
    if vals.shape != (model.grid.points,):
        raise ConfigurationError("phi does not live on the model grid")
    return vals


def _left_slope_of(vals: np.ndarray, model: KahlerModel, rhs: RhsFamily | None) -> float:
    """Measured left slope of psi + phi, pole-anchored when rhs is singular."""
    return diagnostics_for(vals, model, rhs).lelong.value


def crucial_integral(phi, tau: float, rhs: RhsFamily, model: KahlerModel) -> float:
    """The normalised closedness integral: int e^{-tau (phi - avg)} F dmu.

    Computed in mass units (the measure of the whole model is d^n) and in
    log space, so deep potential wells report inf instead of overflowing.
    """
    vals = _phi_values(phi, model)
    phat = average(vals, model)
    # the discrete density carries sign noise in the flat tails where the
    # true values underflow; their contribution is below every tolerance
    dens = np.maximum(model.n * model.grid.h * rhs.interior_density, np.finfo(float).tiny)
    logs = -tau * (vals[1:-1] - phat) + np.log(dens)
    peak = float(np.max(logs))
    if peak > 700.0:
        return math.inf
    return float(np.exp(peak) * np.sum(np.exp(logs - peak)))


@dataclass(frozen=True)
class GermIntegral:
    """Outcome of a weighted germ integrability test."""

    value: float                 # math.inf when divergent
    finite: bool
    tail_exponent: float         # k + n - tau * nu_measured
    growth_factors: tuple[float, ...]


def germ_integral(k: int, phi, tau: float, model: KahlerModel,
                  rhs: RhsFamily | None = None) -> GermIntegral:
    """Integrability of a germ of vanishing order k against e^{-tau phi}.

    Reduced integrand e^{ks} e^{-tau phi} e^{ns} ds over the pole-side
    chart s <= 0, with the analytic tail e^{(k+n-tau*nu)s} attached below
    s_min on two nested extensions. Finite iff k + n > tau*nu strictly.
    """
    if k < 0 or int(k) != k:
        raise ConfigurationError(f"vanishing order must be a nonnegative integer, got {k}")
    vals = _phi_values(phi, model)
    grid = model.grid
    nu = _left_slope_of(vals, model, rhs)
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

    # analytic tail on [s_min - j*10, s_min], slope nu continuation of phi
    phi0 = float(vals[0])
    tail_peak = (k + model.n) * grid.s_min - tau * phi0
    values = [base]
    for j in (1, 2):
        width = j * TAIL_EXTENSION
        if abs(alpha) < 1e-14:
            tail = math.exp(tail_peak) * width if tail_peak <= 700.0 else math.inf
        else:
            tail = math.exp(tail_peak) * (1.0 - math.exp(-alpha * width)) / alpha \
                if tail_peak <= 700.0 else math.inf
        values.append(base + tail)
    growth = tuple(
        (values[j] / values[j - 1]) if 0.0 < values[j - 1] < math.inf else math.inf
        for j in (1, 2)
    )
    divergent = (alpha <= BORDERLINE_TOL
                 or not math.isfinite(base)
                 or any(g >= GROWTH_FACTOR for g in growth))
    return GermIntegral(
        value=math.inf if divergent else values[-1],
        finite=not divergent,
        tail_exponent=alpha,
        growth_factors=growth,
    )


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
            norm.append((_phi_values(vals, self.model), float(tau), rhs))
        object.__setattr__(self, "entries", tuple(norm))


@dataclass(frozen=True)
class StalkDescriptor:
    """Stalk of the dynamic multiplier ideal at the pole point."""

    k_min: int
    nontrivial: bool
    equals_maximal_ideal: bool
    tau_nu_product: float

    def __post_init__(self):
        if self.nontrivial != (self.k_min >= 1):
            raise ConfigurationError("nontrivial flag must match k_min >= 1")
        if self.equals_maximal_ideal and not self.nontrivial:
            raise ConfigurationError("maximal-ideal stalk is in particular nontrivial")


def stalk_from_sequence(seq: PotentialSequence, k_cap: int = 24) -> StalkDescriptor:
    """Least vanishing order whose germ integral is bounded over the sequence.

    Insensitive to the ordering of the entries. The reported
    ``tau_nu_product`` is the supremum of tau_nu times the measured pole
    slope, whose excess over n is what forces vanishing.
    """
    model = seq.model
    product = 0.0
    for vals, tau, rhs in seq.entries:
        product = max(product, tau * _left_slope_of(vals, model, rhs))
    for k in range(k_cap + 1):
        if all(germ_integral(k, vals, tau, model, rhs).finite
               for vals, tau, rhs in seq.entries):
            return StalkDescriptor(
                k_min=k,
                nontrivial=k >= 1,
                equals_maximal_ideal=k == 1,
                tau_nu_product=product,
            )
    raise ConfigurationError(f"no integrable vanishing order up to k = {k_cap}")


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
    all_checkable_pass: bool
    conclusion: str
    notes: tuple[str, ...]


def trivial_lemma_report(stalk: StalkDescriptor, curvature_margin: float) -> TrivialLemmaReport:
    """Evaluate the checkable hypotheses against a stalk and a margin eta."""
    notes: list[str] = []
    nontrivial_ok = stalk.nontrivial
    if not nontrivial_ok:
        notes.append("stalk is trivial: no vanishing is forced at the pole point")
    curvature_ok = curvature_margin > 0.0
    if not curvature_ok:
        notes.append(
            "no common positive curvature lower bound (eta = 0): without it the "
            "collapse locus can be a smooth elliptic curve, so rationality fails")
    not_maximal = stalk.nontrivial and not stalk.equals_maximal_ideal
    if stalk.equals_maximal_ideal:
        notes.append(
            "stalk equals the maximal ideal of the pole point; the rationality "
            "argument needs strict containment or a second point")
    return TrivialLemmaReport(
        nontrivial_ok=nontrivial_ok,
        curvature_bound_ok=curvature_ok,
        not_maximal_ideal_ok=not_maximal,
        all_checkable_pass=nontrivial_ok and curvature_ok and not_maximal,
        conclusion="deferred",
        notes=tuple(notes),
    )
