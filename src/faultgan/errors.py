"""Exception taxonomy shared across the package.

CLI exit codes map onto this hierarchy through each class's ``exit_code``:
UsageError (and subclasses) 1, DataFormatError 2, NumericalError 3.
"""


class FaultganError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(FaultganError):
    """The caller violated an API or CLI contract."""

    exit_code = 1


class ConfigError(UsageError):
    """A configuration file or option is invalid or missing."""


class DimensionError(UsageError):
    """Tensor or array shapes are incompatible with the operation."""


class DataFormatError(FaultganError):
    """An input file is empty, truncated, or otherwise unparseable."""

    exit_code = 2


class NumericalError(FaultganError):
    """A computation produced NaN or Inf and was aborted."""

    exit_code = 3
