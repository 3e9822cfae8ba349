"""Exception types shared across the package."""


class ConfigurationError(ValueError):
    """Invalid grid, window, or run parameters."""


class ConstraintViolationError(ValueError):
    """A model constraint is violated (pole mass too large, non-normalizable family, ...)."""


class CurvatureMarginWarning(UserWarning):
    """A time at or above the family's curvature margin eta: the run goes on
    as an experimental probe."""

