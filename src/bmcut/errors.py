"""Exception types, and the one integer check, shared across the package."""

import operator


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


def check_count(name: str, value, low: int, high: int | None = None) -> int:
    """Refuse a count, seed or index that is not an integer in [low, high),
    unbounded above when high is None; numpy integers and 0-d integer arrays
    pass, bools do not.  Returns a Python int, which JSON headers can hold."""
    try:   # operator.index(None) refuses a bool as it refuses a float
        k = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None
    if k < low:
        raise ValidationError(f"{name} must be >= {low}, got {k}")
    if high is not None and k >= high:
        raise ValidationError(f"{name} must be < {high}, got {k}")
    return k
