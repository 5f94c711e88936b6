"""Exception types raised by the toolkit.

All domain-specific failures derive from :class:`ToolkitError` so callers can
catch the package's errors with a single handler while still distinguishing
the numeric failure modes the library contracts promise.
"""

from __future__ import annotations


class ToolkitError(Exception):
    """Base class for all errors raised by this package."""


class ParameterDomainError(ToolkitError, ValueError):
    """An argument lies outside the mathematical domain of an operation.

    Examples: lambda outside (-1, 1], a target mean radius below the
    admissible range, a nonpositive radius, or a violated normalization
    precondition.
    """


class NumericOverflowError(ToolkitError, ArithmeticError):
    """A computation produced a non-finite value from finite inputs."""


class QuadratureConvergenceError(ToolkitError, RuntimeError):
    """The radial rule that its error bound asks for would pass its node cap."""


class DegenerateSeriesError(ToolkitError, ValueError):
    """The series is degenerate for the requested operation.

    Typically the inner-circle quadratic mean vanishes, so a normalization
    or an initial-speed computation is undefined.
    """


class SpeedSignError(ToolkitError, ValueError):
    """The measured initial speed is negative, outside the admissible class."""
