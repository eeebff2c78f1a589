"""Small argument-validation helpers shared by the public API surface.

Each helper raises :class:`repro.errors.ValidationError` with a message that
names the offending argument, so misconfiguration is caught at construction
time rather than deep inside a simulation run.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ValidationError


def check_type(
    name: str, value: Any, expected: type[Any] | tuple[type[Any], ...]
) -> None:
    """Raise unless ``value`` is an instance of ``expected``.

    ``bool`` is rejected wherever ``int`` is an accepted type (alone or in
    a tuple) and ``bool`` itself is not, since ``True`` silently behaving
    as ``1`` has caused real configuration bugs.
    """
    accepted = expected if isinstance(expected, tuple) else (expected,)
    is_stray_bool = (
        isinstance(value, bool) and int in accepted and bool not in accepted
    )
    if is_stray_bool or not isinstance(value, expected):
        names = " or ".join(t.__name__ for t in accepted)
        raise ValidationError(
            f"{name} must be {names}, got {type(value).__name__} {value!r}"
        )


def check_positive(name: str, value: int | float) -> None:
    """Raise unless ``value`` is strictly positive."""
    check_type(name, value, (int, float))
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")


def check_in_range(
    name: str, value: int | float, low: int | float, high: int | float
) -> None:
    """Raise unless ``low <= value <= high``."""
    check_type(name, value, (int, float))
    if not low <= value <= high:
        raise ValidationError(f"{name} must be in [{low}, {high}], got {value}")


def check_power_of_two(name: str, value: int) -> None:
    """Raise unless ``value`` is a positive power of two.

    Cache sizes, line sizes, and associativities must be powers of two for
    the index/tag arithmetic in :mod:`repro.cache` to be meaningful.
    """
    check_type(name, value, int)
    if value <= 0 or value & (value - 1):
        raise ValidationError(f"{name} must be a positive power of two, got {value}")
