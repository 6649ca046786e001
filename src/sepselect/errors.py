"""Exception types shared across the package, and the check of positive
numeric options that raises them."""

import math


class DataError(ValueError):
    """Input data violates a precondition (bad CSV, empty class, k out of range, ...)."""


class NumericalError(RuntimeError):
    """An iterative routine failed numerically (non-finite values, no bracket, ...)."""


def require_positive(name, value):
    """Raise DataError unless value is a finite number above zero (nan and
    inf slip through a plain `value <= 0` test)."""
    if not (math.isfinite(value) and value > 0):
        raise DataError(f"{name} must be a positive finite number, got {value}")
