"""Exception hierarchy shared across the package."""


class GpboundError(Exception):
    """Base class for all package errors."""


class UnsupportedRangeError(GpboundError):
    """Input lies outside the range for which the operation is guaranteed."""


class BudgetExceededError(GpboundError):
    """A search exceeded its candidate or time budget."""


class DomainError(GpboundError, ValueError):
    """Argument outside the mathematical domain of the operation."""


class ParameterError(GpboundError, ValueError):
    """Parameter set violates a stated precondition; message names the inequality."""


class ConfigError(GpboundError, ValueError):
    """Invalid sieve or certification configuration."""


class ConsistencyError(GpboundError):
    """Two independent evaluation routes disagreed beyond tolerance."""


class VerificationFailure(GpboundError):
    """A verified claim failed; the message names it."""
