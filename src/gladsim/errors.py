"""Exception types shared across the simulator, and the integer and seed checks that raise them."""

import numbers


class GladsimError(Exception):
    """Base class for all simulator errors."""


class ParameterError(GladsimError, ValueError):
    """An argument violates an operation's precondition."""


class InsufficientDataError(GladsimError, ValueError):
    """Too few samples to run an estimator."""


class DegenerateDataError(GladsimError, ValueError):
    """Input carries no usable signal (e.g. zero variance or a single class)."""


class SaturationError(GladsimError, RuntimeError):
    """Offered load is at or beyond the stability limit of a queue."""


class ResourceLimitError(GladsimError, RuntimeError):
    """A simulation would exceed its event budget."""


class NotReadyError(GladsimError, RuntimeError):
    """A forecaster profile was used before it accumulated enough updates."""


class ConfigError(GladsimError, ValueError):
    """A scenario file is malformed or contains unknown keys."""


def integer(name: str, value, error: type = ParameterError) -> int:
    """`value` as a Python int; a bool or a non-integer raises `error` naming `name`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    return int(value)


def seed(name: str, value) -> int:
    """`value` as a Python int seed; a bool, a non-integer or a negative raises ParameterError."""
    if integer(name, value) < 0:
        raise ParameterError(f"{name} must be >= 0, got {value}")
    return int(value)
