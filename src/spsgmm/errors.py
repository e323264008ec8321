"""Exception hierarchy.

The CLI maps these onto exit codes: problems with user-supplied input or
configuration (DecodeError, ConfigError, InputError) exit with 2, anything
else derived from SpsgmmError exits with 1.
"""


class SpsgmmError(Exception):
    """Base class for all errors raised by this package."""


class DecodeError(SpsgmmError):
    """A file could not be decoded; the message names the offending chunk."""


class ConfigError(SpsgmmError):
    """Invalid parameter combination (frame/hop lengths, p, grids...)."""


class InputError(SpsgmmError):
    """Structurally or numerically invalid data (shapes, non-finite values,
    empty corpora)."""


class FitError(SpsgmmError):
    """Model training could not proceed (too few samples, infeasible grid)."""
