"""Exception types shared across the package."""


class LevystError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(LevystError, ValueError):
    """An argument violates a documented precondition."""


class InvalidStateError(LevystError, RuntimeError):
    """An operation was invoked on an inconsistent or forbidden state."""


class ConfigError(LevystError, ValueError):
    """A configuration value is out of range or internally inconsistent."""


class ParseError(LevystError, ValueError):
    """A data file could not be parsed; message names the offending row."""


class DegenerateDataError(LevystError, ValueError):
    """Data has no usable variation (e.g. constant response)."""


class UnsupportedPredictionError(LevystError, ValueError):
    """Prediction requested outside the supported domain (off-grid time)."""


class NumericError(LevystError, ArithmeticError):
    """A numerical routine failed (non-finite values, factorization failure)."""
