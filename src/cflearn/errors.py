"""Exception types shared across the package.

A :class:`ConfigurationError` and a :class:`LogConsistencyError` are each
also a ``ValueError``: a setting out of its range or choices, inputs that do
not fit each other, and a log that is empty or breaks its mode's rules are
bad values, so code that catches ``ValueError`` catches them too.
"""


class CflearnError(Exception):
    """Base class for package-specific errors."""


class ConfigurationError(CflearnError, ValueError):
    """A setting breaks its rule, or dimensions or settings are inconsistent
    with each other."""


class LogConsistencyError(CflearnError, ValueError):
    """A log violates its contract: it is empty, or a stochastic estimator
    was pointed at data without logged propensities."""


class DegenerateSupportError(CflearnError):
    """Every importance weight is zero, so a self-normalized value is
    undefined (0/0) rather than zero."""


class ScoreOverflowError(DegenerateSupportError):
    """Policy scores, weights or importance weights left the float range, so
    the softmax probabilities or the estimates are undefined; training halts
    as on degenerate support."""


class FittingError(CflearnError):
    """The regression system is singular and no penalty is in place to
    make the solution unique."""
