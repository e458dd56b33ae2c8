"""Exception types shared across the simulator, and the input checks that raise them."""

import math
import numbers
import sys

import numpy as np


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


def real(name: str, value, *, above=None, at_least=None, below=None, at_most=None,
         error: type = ParameterError):
    """`value`, once it is a finite real, or an array of them, within the bounds.

    A Python float or int and an array come back as themselves, any other
    real as the Python float it equals, so that a numpy float32 runs the
    model as the Python float that a scenario hashes it as, not in float32.
    `above` and `below` are open bounds, `at_least` and `at_most` closed ones.
    A bool, a non-number, NaN, +-inf, a number beyond the float range or a
    value out of bounds raises `error` naming `name` and stating the rule.
    A Python float or int is checked in pure Python; an array by its two
    ends, a min and a max reduction, which NaN propagates to.
    """
    if type(value) is float or type(value) is int:
        ends = (value,)
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        ends = (value.min().item(), value.max().item()) if value.size else ()
    elif isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:    # a Fraction, say, beyond the float range
            pass
        ends = (value,)
    else:
        shown = f"an array of {value.dtype}" if isinstance(value, np.ndarray) else repr(value)
        raise error(f"{name} must be a real number, got {shown}")
    for x in ends:
        finite = math.isfinite(x) if type(x) is float else abs(x) <= sys.float_info.max
        if not (finite
                and (above is None or x > above) and (at_least is None or x >= at_least)
                and (below is None or x < below) and (at_most is None or x <= at_most)):
            bounds = ((">", above), (">=", at_least), ("<", below), ("<=", at_most))
            rule = " and ".join(["finite"] + [f"{op} {b}" for op, b in bounds if b is not None])
            # Python refuses to write out an int of more than 4300 digits.
            shown = x if finite or type(x) is float else "a number beyond the float range"
            raise error(f"{name} must be {rule}, got {shown}")
    return value


def sequence(name: str, values, error: type = ParameterError, *, distinct: bool = False) -> tuple:
    """`values` as a tuple; a scalar, no values or, if `distinct`, a repeat raises `error`."""
    try:
        items = tuple(values)
        repeats = distinct and len(set(items)) < len(items)
    except TypeError:
        raise error(f"{name} must be a sequence of numbers, got {values!r}") from None
    if not items:
        raise error(f"{name} must be nonempty")
    if repeats:
        raise error(f"{name} must not repeat a value, got {items}")
    return items


def integer(name: str, value, error: type = ParameterError, **bounds) -> int:
    """`value` as a Python int; a bool, a non-integer or one outside `bounds` raises `error`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        if isinstance(value, float):
            real(name, value, error=error)
        raise error(f"{name} must be an integer, got {value!r}")
    return real(name, int(value), error=error, **bounds)


def array(name: str, value, shape: tuple, error: type = ParameterError, **bounds) -> np.ndarray:
    """`value` as a float array of `shape`, where None matches any length, checked as `real`
    checks arrays; another shape raises `error`, e.g. `x must be (n, 5), got shape (4,)`."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nest of sequences
        arr = np.asarray(value, dtype=object)
    if arr.ndim != len(shape) or any(d not in (None, n) for d, n in zip(shape, arr.shape)):
        want = str(tuple("n" if d is None else d for d in shape)).replace("'", "")
        raise error(f"{name} must be {want}, got shape {arr.shape}")
    return real(name, arr, error=error, **bounds).astype(float, copy=False)
