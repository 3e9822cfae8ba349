"""The one exception type for a rejected input, the one warning, and the
rules that admit a scalar parameter, a real number that is no bool: each
rule raises ConfigurationError naming the first parameter it rejects. A
rejected real number is printed in its str form, so a numpy float reads
0.5; any other value by repr, so the string '1e-2' reads as a string."""

import math
import numbers


class ConfigurationError(ValueError):
    """A rejected input, whichever layer rejects it."""


class CurvatureMarginWarning(UserWarning):
    """A time at or above the family's curvature margin eta: the run goes on
    as an experimental probe."""


def _shown(value) -> str:
    return str(value) if isinstance(value, numbers.Real) else repr(value)


def require_finite(**params) -> None:
    """Each parameter a finite real number and no bool: a nan or an infinite
    one passes every sign check, and True would be read as 1."""
    for name, value in params.items():
        real = isinstance(value, numbers.Real) and not isinstance(value, bool)
        if not (real and math.isfinite(value)):
            raise ConfigurationError(f"{name} must be finite, got {_shown(value)}")


def require_positive(**params) -> None:
    """Each parameter finite, then above 0."""
    require_finite(**params)
    for name, value in params.items():
        if value <= 0:
            raise ConfigurationError(f"{name} must be positive, got {value}")


def require_integer(least: int, **params) -> None:
    """Each parameter an integer >= ``least``: a ``numbers.Integral``, numpy
    integers included, that is no bool, so True and 2.0 are rejected."""
    for name, value in params.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise ConfigurationError(f"{name} must be an integer >= {least}, got {_shown(value)}")


def require_open_unit(**params) -> None:
    """Each parameter a real number strictly between 0 and 1, which no bool is."""
    for name, value in params.items():
        if not (isinstance(value, numbers.Real) and 0.0 < value < 1.0):
            raise ConfigurationError(f"{name} must lie in (0, 1), got {_shown(value)}")
