"""Exception types shared across the package.

The CLI maps these onto distinct exit codes (config 2, data 3, compute 4).
"""


class CorrstnError(Exception):
    """Base class for all package errors."""


class ConfigError(CorrstnError):
    """Invalid configuration value or inconsistent option combination."""


class DimensionError(CorrstnError):
    """Array shapes or sequence lengths do not match the operation's contract."""


class DataError(CorrstnError):
    """Malformed, non-finite, or otherwise unusable input data."""


class OutOfRangeError(DataError):
    """Requested window reaches outside the available timestamp range."""


class EmptyAnchorError(DataError):
    """No valid anchor timestamps for a temporal-correlation average."""


class ComputeError(CorrstnError):
    """Numerical failure during a computation (NaN loss, divergence)."""


class GraphError(CorrstnError):
    """backward() reached an autograph node that an earlier backward()
    already consumed."""
