"""Exception hierarchy shared across the package.

The CLI maps these onto process exit codes, so keep the split between
configuration, data, and numerical failures intact.  Who chose the value
a check rejects decides its class.
"""


class MultiGGMError(Exception):
    """Base class for all package errors."""


class ConfigError(MultiGGMError):
    """An argument, flag or config field the caller chose is invalid (CLI exit code 1)."""


class DataFormatError(MultiGGMError):
    """Malformed input data, or a supplied matrix a computation cannot use (CLI exit code 2)."""


class DimensionMismatchError(DataFormatError):
    """Array shapes do not line up across populations or operations."""


class NotPositiveDefiniteError(MultiGGMError):
    """A matrix required to be positive definite failed its Cholesky check."""


class ConvergenceError(MultiGGMError):
    """An iterative solve did not reach its tolerance (CLI exit code 3)."""
