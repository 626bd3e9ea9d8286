"""Exception types, and the one check of a count, shared across the package."""

import numbers


class ValidationError(ValueError):
    """Bad argument or malformed input data."""


class DimensionError(ValidationError):
    """Shape or size mismatch."""


class ParseError(ValueError):
    """Unparseable instance file; message carries file and line context."""


class TrivialInstanceError(ValidationError):
    """The cost matrix is identically zero, so every feasible point is optimal."""


class NumericalError(RuntimeError):
    """An iterative numerical routine failed to produce a usable result."""


def check_count(name: str, value, low: int) -> int:
    """Refuse a count or seed that is not a Python or numpy integer >= low;
    return it as a Python int, which JSON trace headers can hold."""
    if not isinstance(value, numbers.Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be >= {low}, got {value}")
    return int(value)
