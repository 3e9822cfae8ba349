"""Exception types shared across the package, and the check that names a
non-finite parameter."""

import math


class ConfigurationError(ValueError):
    """Invalid grid, window, or run parameters."""


class ConstraintViolationError(ValueError):
    """A model constraint is violated (pole mass too large, non-normalizable family, ...)."""


class CurvatureMarginWarning(UserWarning):
    """A time at or above the family's curvature margin eta: the run goes on
    as an experimental probe."""


def require_finite(**params) -> None:
    """Raise ConfigurationError naming the first parameter that is not
    finite: a nan or an infinite one passes every sign check."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ConfigurationError(f"{name} must be finite, got {value}")
