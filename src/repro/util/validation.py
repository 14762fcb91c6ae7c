"""Small argument-validation helpers with consistent error messages."""

from __future__ import annotations

from dataclasses import MISSING, fields
from typing import Any, Callable, Mapping, TypeVar

__all__ = [
    "ConfigError",
    "check_index",
    "check_int",
    "check_non_negative",
    "check_positive",
    "check_probability",
    "decode",
    "decode_all",
]

T = TypeVar("T")


class ConfigError(ValueError):
    """A configuration field failed validation."""


def check_positive(name: str, value: int | float) -> None:
    """Raise ``ValueError`` unless ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_non_negative(name: str, value: int | float) -> None:
    """Raise ``ValueError`` unless ``value >= 0``."""
    if not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value!r}")


def check_probability(name: str, value: float) -> None:
    """Raise ``ValueError`` unless ``0 <= value <= 1``."""
    if not (0.0 <= value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")


def check_index(name: str, value: int, size: int) -> None:
    """Raise ``IndexError`` unless ``0 <= value < size``."""
    if not (0 <= value < size):
        raise IndexError(f"{name} must be in [0, {size}), got {value!r}")


def check_int(
    name: str, value: Any, *, minimum: int | None = None, optional: bool = False
) -> None:
    """Raise :class:`ConfigError` unless ``value`` is an int ``>= minimum``.

    A bool is rejected even though Python counts it as an int: ``True``
    is never a count or a seed.  ``optional`` also admits ``None``.
    """
    if value is None and optional:
        return
    if isinstance(value, int) and not isinstance(value, bool):
        if minimum is None or value >= minimum:
            return
    kind = {None: "an int", 0: "a non-negative int", 1: "a positive int"}.get(
        minimum, f"an int >= {minimum}"
    )
    raise ConfigError(f"{name} must be {kind}{' or None' if optional else ''}, got {value!r}")


def decode(cls: type[T], data: Any, **decoders: Callable[[Any], Any]) -> T:
    """Build the config dataclass ``cls`` from the mapping ``data``.

    ``decoders`` turn the raw value of a nested field into its typed form;
    ``None`` skips the decoder where it is the field's default (an unset
    optional section).  A non-mapping, an unknown key or a missing
    required field raises :class:`ConfigError` naming ``cls``.  The result
    is not validated: each ``from_dict`` does that.
    """
    if not isinstance(data, Mapping):
        raise ConfigError(f"{cls.__name__} needs a mapping, got {type(data).__name__}")
    declared = {f.name: f for f in fields(cls)}
    unknown = [repr(key) for key in data if key not in declared]
    if unknown:
        raise ConfigError(f"{cls.__name__} has no field {', '.join(unknown)}")
    missing = [
        name
        for name, f in declared.items()
        if name not in data and f.default is MISSING and f.default_factory is MISSING
    ]
    if missing:
        raise ConfigError(f"{cls.__name__} is missing field {', '.join(missing)}")
    return cls(
        **{
            key: decoders[key](value)
            if key in decoders and not (value is None and declared[key].default is None)
            else value
            for key, value in data.items()
        }
    )


def decode_all(cls: type[T], data: Any) -> tuple[T, ...]:
    """Decode a list of ``cls`` mappings (churn events, update batches)."""
    if not isinstance(data, (list, tuple)):
        raise ConfigError(f"expected a list of {cls.__name__}, got {type(data).__name__}")
    return tuple(decode(cls, item) for item in data)
