"""Exception types shared across the package, and the checks of numeric
options that raise them."""

import math
import numbers


class DataError(ValueError):
    """Input data violates a precondition (bad CSV, empty class, k out of range, ...)."""


class NumericalError(RuntimeError):
    """An iterative routine failed numerically (non-finite values, no bracket, ...)."""


class ResourceError(RuntimeError):
    """A worker process was killed by a signal (such as the kernel's OOM killer's)."""


def require_positive(name, value):
    """Raise DataError unless value is a finite number above zero (nan and
    inf slip through a plain `value <= 0` test)."""
    if not (math.isfinite(value) and value > 0):
        raise DataError(f"{name} must be a positive finite number, got {value}")


def require_integer(name, value, minimum):
    """Raise DataError unless value is an integer (a bool is not) of at
    least minimum."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise DataError(f"{name} must be an integer >= {minimum}, got {value!r}")
