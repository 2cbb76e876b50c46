"""Argument checks shared by the configuration classes."""

from __future__ import annotations

from numbers import Integral

__all__ = ["require_count"]


def require_count(name: str, value, minimum: int) -> None:
    """Raise ``ValueError`` unless ``value`` is an integer ``>= minimum``.

    A bare ``value < minimum`` test lets NaN through, because NaN compares
    false either way, and lets fractions through too; numpy integers pass.
    """
    if not (isinstance(value, Integral) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
