"""Exception types shared across the package.

A :class:`LogConsistencyError` is also a ``ValueError``: a log that is
empty or breaks its mode's rules is a bad value, so code that catches
``ValueError`` catches it too.
"""


class CflearnError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(CflearnError):
    """Dimensions or settings are inconsistent with each other."""


class LogConsistencyError(CflearnError, ValueError):
    """A log violates its contract: it is empty, or a stochastic estimator
    was pointed at data without logged propensities."""


class DegenerateSupportError(CflearnError):
    """Every importance weight is zero, so a self-normalized value is
    undefined (0/0) rather than zero."""


class ScoreOverflowError(DegenerateSupportError):
    """Policy scores or weights left the float range, so the softmax
    probabilities are undefined; training halts as on degenerate support."""


class FittingError(CflearnError):
    """The regression system is singular and no penalty is in place to
    make the solution unique."""
