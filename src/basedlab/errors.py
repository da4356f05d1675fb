"""Exception types shared across the package, and the one integer rule."""

import numpy as np


class BasedLabError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(BasedLabError):
    """Operand shapes are incompatible; the message carries both shapes."""


class ParameterError(BasedLabError):
    """A scalar or structural argument is out of its documented range."""


class ConfigError(BasedLabError):
    """A config value or key is invalid; the message names the offending path."""


class InputError(BasedLabError):
    """Runtime data violates a precondition (e.g. out-of-vocab token)."""


class NumericError(BasedLabError):
    """Non-finite values where an operation requires finite input."""


class EncodingError(BasedLabError):
    """A bit-vector does not satisfy its encoding contract."""


class TrainingDiverged(BasedLabError):
    """Loss became non-finite; carries the step index where it happened."""

    def __init__(self, step: int, message: str):
        super().__init__(message)
        self.step = step


def integer(value, what: str, minimum: int = 1, error: type[BasedLabError] = ParameterError):
    """`value` when it is an int or a numpy integer, not a bool, and at least
    `minimum`; otherwise `error` naming `what`. Every size, count and
    position argument in the package is checked here."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        rule = "a positive integer" if minimum == 1 else f"an integer >= {minimum}"
        raise error(f"{what} must be {rule}, got {value!r}")
    return value
