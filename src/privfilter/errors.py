"""Shared exception types, and the integer and float checks the configs
share."""

import numbers
import operator


class ShapeError(ValueError):
    """Inputs have inconsistent or unexpected dimensions."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class DataError(ValueError):
    """A dataset, config, or file violates the expected format."""


def require_int(name, value, minimum) -> int:
    """``value`` as a Python int, at least ``minimum`` unless that is None;
    a float or other non-integer raises ``DataError`` naming ``name``."""
    try:
        value = operator.index(value)
    except TypeError:
        raise DataError(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and value < minimum:
        raise DataError(f"{name} must be at least {minimum}")
    return value


def require_float(name, value) -> float:
    """``value`` as a Python float; a string, bool or other non-number
    raises ``DataError`` naming ``name``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DataError(f"{name} must be a number, got {value!r}")
    return float(value)
