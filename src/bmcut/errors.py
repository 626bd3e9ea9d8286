"""Exception types and the package's one integer, index-array and real check."""

import math
import numbers
import operator

import numpy as np


class ValidationError(ValueError):
    """Bad argument or malformed input data."""


class DimensionError(ValidationError):
    """Shape or size mismatch."""


class ParseError(ValueError):
    """Unparseable instance file; message carries file and line context."""


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


def check_indices(name: str, values, high: int) -> np.ndarray:
    """A 1-D integer array with every entry in [0, high), by one vectorised
    test; bools are refused as in check_count, an empty sequence passes."""
    idx = np.asarray(values)
    if idx.ndim != 1 or idx.size and (idx.dtype.kind not in "iu"
                                      or ((idx < 0) | (idx >= high)).any()):
        raise ValidationError(f"{name} must be a 1-D array of integers in "
                              f"[0, {high}), got {values!r}")
    return idx


def check_real(name: str, value, low: float, high: float = math.inf, *,
               open_low: bool = False) -> float:
    """A finite real in [low, high), or (low, high) when open_low, as a Python
    float; bools, strings, complex numbers, arrays and NaN are refused."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        x = float(value) if real else math.nan
    except OverflowError:   # an int beyond the float range
        x = math.nan
    if not (low < x if open_low else low <= x) or not x < high:   # NaN fails
        raise ValidationError(f"{name} must be a real number in "
                              f"{'(' if open_low else '['}{low:g}, {high:g}), got {value!r}")
    return x
