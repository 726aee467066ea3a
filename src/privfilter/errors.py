"""Shared exception types, and the config settings' declaration and
check."""

import dataclasses
import math
import numbers
import operator


class ShapeError(ValueError):
    """Inputs have inconsistent or unexpected dimensions."""


class NumericError(ArithmeticError):
    """A computation produced non-finite or otherwise unusable values."""


class DataError(ValueError):
    """A dataset, config, or file violates the expected format."""


@dataclasses.dataclass(frozen=True)
class Setting:
    """How ``check`` takes one config value: a ``kind`` of int, float, bool
    or str; a number at least ``minimum`` (above it when ``exclusive``, and
    finite if a float); a str among ``choices``; a non-empty tuple of such
    values when ``many``; None when ``optional``.  Any other value raises
    ``DataError`` naming the field.  A number comes back as a Python int
    or float."""

    kind: type
    minimum: float | None = None
    exclusive: bool = False
    choices: tuple = ()
    many: bool = False
    optional: bool = False

    def check(self, name, value):
        if value is None and self.optional:
            return None
        if not self.many:
            return self._one(name, value)
        try:
            if isinstance(value, (str, bytes)):
                raise TypeError
            values = tuple(value)
        except TypeError:
            raise DataError(f"{name} must be a sequence, got {value!r}") from None
        if not values:
            raise DataError(f"{name} must be non-empty")
        return tuple(self._one(name, v) for v in values)

    def _one(self, name, value):
        kind = self.kind
        if kind is str and not (isinstance(value, str) and value in self.choices):
            raise DataError(f"{name} must be one of {self.choices}, got {value!r}")
        if kind is bool and not isinstance(value, bool):
            raise DataError(f"{name} must be a bool, got {value!r}")
        if kind is int:
            try:
                value = operator.index(value)
            except TypeError:
                raise DataError(f"{name} must be an integer, got {value!r}") from None
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise DataError(f"{name} must be a number, got {value!r}")
            value = float(value)
        low = -math.inf if self.minimum is None else self.minimum
        if kind in (int, float) and not (
                math.isfinite(value) and (value > low if self.exclusive else value >= low)):
            if low == 0:
                bound = "positive" if self.exclusive else "non-negative"
            else:
                bound = f"{'above' if self.exclusive else 'at least'} {low}"
            finite = " and finite" if kind is float else ""
            raise DataError(f"{name} must be {bound}{finite}, got {value!r}")
        return value


def setting(default, kind, minimum=None, *, exclusive=False, choices=()):
    """A dataclass field that ``check_settings`` checks as a ``Setting``; a
    tuple ``default`` declares a tuple of values, a None one allows None."""
    spec = Setting(kind, minimum, exclusive, choices,
                   many=isinstance(default, tuple), optional=default is None)
    return dataclasses.field(default=default, metadata={"setting": spec})


def settings_of(cls) -> dict:
    """Field name -> ``Setting`` of every ``setting`` field of ``cls``."""
    return {f.name: f.metadata["setting"] for f in dataclasses.fields(cls)
            if "setting" in f.metadata}


def check_settings(config) -> None:
    """Check and normalize every ``setting`` field of the frozen dataclass
    instance ``config`` in place."""
    for name, spec in settings_of(config).items():
        object.__setattr__(config, name, spec.check(name, getattr(config, name)))
