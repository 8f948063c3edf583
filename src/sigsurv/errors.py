"""Exception types shared across the package.

The CLI maps these onto process exit codes; library callers can catch
them individually.
"""


class SigsurvError(Exception):
    """Base class for all package errors."""


class InputError(SigsurvError):
    """Malformed user input: bad CSV, bad schema, invalid configuration."""


class NumericalError(SigsurvError):
    """A numerical routine produced non-finite or impossible values."""

