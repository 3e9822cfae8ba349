"""Exact normalized-slope arithmetic for direct sums of line-bundle powers.

Degrees are rationals so that fractional twists stay exact; a subbundle of
strictly larger normalized slope destabilizes. The standard example: the
tangent bundle of projective n-space restricted to a line splits as
O(2) + (n-1) O(1), and the O(2) piece destabilizes it for n >= 2 since
2 > (n+1)/n.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigurationError, require_finite, require_integer


@dataclass(frozen=True)
class BundleSpec:
    """A direct sum of (degree, rank) summands: each degree is a finite real
    (``require_finite``) read as a ``Fraction``, each rank is an integer
    >= 1 (``require_integer``)."""

    summands: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if not self.summands:
            raise ConfigurationError("bundle needs at least one summand")
        for degree, rank in self.summands:
            require_finite(degree=degree)
            require_integer(1, rank=rank)
        object.__setattr__(self, "summands", tuple((Fraction(d), r) for d, r in self.summands))

    @property
    def degree(self) -> Fraction:
        return sum((d * r for d, r in self.summands), Fraction(0))

    @property
    def rank(self) -> int:
        return sum(r for _, r in self.summands)


def normalized_slope(bundle: BundleSpec) -> Fraction:
    """Total degree over total rank, exactly."""
    return bundle.degree / bundle.rank


def destabilizes(sub: BundleSpec, ambient: BundleSpec) -> bool:
    """Strict slope excess of a proper subbundle, exact comparison."""
    if sub.rank >= ambient.rank:
        raise ConfigurationError(
            f"subbundle rank {sub.rank} must be below ambient rank {ambient.rank}")
    return normalized_slope(sub) > normalized_slope(ambient)


def tangent_on_line(n: int) -> BundleSpec:
    """Tangent bundle of projective n-space on a line, n >= 1: O(2) + O(1)^(n-1)."""
    require_integer(1, n=n)
    return BundleSpec(((Fraction(2), 1),) + (((Fraction(1), n - 1),) if n > 1 else ()))


def line_tangent() -> BundleSpec:
    """The degree-2 tangent piece along the line itself."""
    return BundleSpec(((Fraction(2), 1),))
