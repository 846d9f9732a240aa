"""Shared exception types, which the CLI maps to categorized exit lines,
and the one rule for the JSON type of a config value."""

import math


class RelrankError(Exception):
    """Base class for all toolkit errors."""

    category = "error"


class ConfigError(RelrankError):
    """Invalid or inconsistent configuration."""

    category = "config"


class DataError(RelrankError):
    """Malformed or missing input data."""

    category = "data"


def check_type(name: str, value, default) -> None:
    """Raise a ConfigError naming ``name`` unless ``value`` has the JSON type
    of ``default``: true or false, an integer, a finite number (a bool is
    neither) or a string."""
    number = not isinstance(value, bool) and isinstance(value, (int, float))
    if isinstance(default, bool):
        ok, want = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, want = number and isinstance(value, int), "an integer"
    elif isinstance(default, float):
        ok = number and -math.inf < value < math.inf  # any int, unlike isfinite
        want = "a finite number" if number else "a number"
    else:
        ok, want = isinstance(value, str), "a string"
    if not ok:
        raise ConfigError(f"{name} must be {want}, got {value!r}")
