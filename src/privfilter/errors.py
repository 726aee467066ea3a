"""Exception types and the argument checks of every public function: a
scalar is checked as a ``Setting`` (a config field declares one with
``setting``), a dimension by ``check_dim``, a feature matrix by
``check_features`` and a label vector by ``check_labels``."""

import dataclasses
import math
import numbers
import operator

import numpy as np


class ShapeError(ValueError):
    """An argument's shape is wrong, or a dimension exceeds its data's."""


class NumericError(ArithmeticError):
    """A value the package computed is non-finite or otherwise unusable."""


class DataError(ValueError):
    """An argument's value (a non-finite entry included), a dataset, a
    config or a file lies outside its domain; the message names it."""


@dataclasses.dataclass(frozen=True)
class Setting:
    """How ``check`` takes one value: a ``kind`` of int, float, bool or str;
    a number at least ``minimum`` and at most ``maximum``, if given with a
    minimum (strictly when ``exclusive``, and finite if a float); a str among
    ``choices``; a non-empty tuple of such values when ``many``; None when
    ``optional``.  Any other value raises ``DataError`` naming the
    argument.  A number comes back as a Python int or float."""

    kind: type
    minimum: float | None = None
    maximum: float | None = None
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
        if type(value) is not kind or kind is str:  # else nothing to convert
            if kind is str and not (isinstance(value, str) and value in self.choices):
                raise DataError(f"{name} must be one of {self.choices}, got {value!r}")
            if kind is bool and not isinstance(value, bool):
                raise DataError(f"{name} must be a bool, got {value!r}")
            if kind is not bool and isinstance(value, bool):
                raise DataError(f"{name} must be a {kind.__name__}, got {value!r}")
            if kind is int:
                try:
                    value = operator.index(value)
                except TypeError:
                    raise DataError(f"{name} must be an integer, got {value!r}") from None
            if kind is float:
                if not isinstance(value, numbers.Real):
                    raise DataError(f"{name} must be a number, got {value!r}")
                value = float(value)
        if kind in (int, float):
            low = -math.inf if self.minimum is None else self.minimum
            high = math.inf if self.maximum is None else self.maximum
            if not (math.isfinite(value) and (
                    low < value < high if self.exclusive else low <= value <= high)):
                raise DataError(f"{name} must {self._domain()}, got {value!r}")
        return value

    def _domain(self):
        if self.maximum is not None:
            return (f"lie {'strictly ' if self.exclusive else ''}between "
                    f"{self.minimum:g} and {self.maximum:g}")
        if self.minimum == 0:
            bound = "positive" if self.exclusive else "non-negative"
        else:
            bound = f"{'above' if self.exclusive else 'at least'} {self.minimum}"
        return f"be {bound}{' and finite' if self.kind is float else ''}"


def setting(default, kind, minimum=None, *, maximum=None, exclusive=False,
            choices=()):
    """A dataclass field that ``check_settings`` checks as a ``Setting``; a
    tuple ``default`` declares a tuple of values, a None one allows None."""
    spec = Setting(kind, minimum, maximum, exclusive, choices,
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


# the domains most scalar arguments share
POSITIVE = Setting(float, 0.0, exclusive=True)
NON_NEGATIVE = Setting(float, 0.0)
POSITIVE_INT = Setting(int, 1)
NON_NEGATIVE_INT = Setting(int, 0)


def check_dim(name, value, limit) -> int:
    """``value`` as a positive int (else ``DataError``) of at most ``limit``,
    the dimension of the data it is cut from (else ``ShapeError``)."""
    value = POSITIVE_INT.check(name, value)
    if value > limit:
        raise ShapeError(f"{name} must lie in 1..{limit}, got {value}")
    return value


def check_features(name, values, rows=1, dim=None, finite=True) -> np.ndarray:
    """``values`` as a float64 matrix of at least ``rows`` rows and one
    column, ``dim`` columns when given, else ``ShapeError``; with
    ``finite``, a non-finite entry raises ``DataError``."""
    values = np.asarray(values, dtype=np.float64)
    if (values.ndim != 2 or values.shape[0] < rows or values.shape[1] < 1
            or dim not in (None, values.shape[1])):
        raise ShapeError(f"{name} must be 2-d with at least {rows} row(s) and "
                         f"{dim or 'at least 1'} column(s), got {values.shape}")
    if finite and not np.all(np.isfinite(values)):
        raise DataError(f"{name} contains non-finite values")
    return values


def check_labels(name, values, num_classes=None) -> np.ndarray:
    """``values`` as a non-empty 1-d int64 array, else ``ShapeError``; an
    entry that is not an integer from 1 (to ``num_classes`` when given)
    raises ``DataError``."""
    values = np.asarray(values)
    if values.ndim != 1 or values.size == 0:
        raise ShapeError(f"{name} must be a non-empty 1-d array, got shape "
                         f"{values.shape}")
    labels = values.astype(np.int64)
    if not (np.issubdtype(values.dtype, np.integer) or np.all(values == labels)):
        raise DataError(f"{name} must hold integers")
    low, high = labels.min(), labels.max()
    if low < 1 or (num_classes is not None and high > num_classes):
        raise DataError(f"{name} must lie in 1..{num_classes or ''}, got range "
                        f"[{low}, {high}]")
    return labels
