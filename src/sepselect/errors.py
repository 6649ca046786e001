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


def require_integer(name, value, minimum, maximum=None):
    """Raise DataError unless value is an integer (a bool is not) of at
    least minimum and, if maximum is given, at most maximum."""
    integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
    if not (integral and minimum <= value and (maximum is None or value <= maximum)):
        bounds = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise DataError(f"{name} must be an integer {bounds}, got {value!r}")
