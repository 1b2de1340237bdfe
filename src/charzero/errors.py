"""Exception types shared across the package."""


class SieveLimitError(ValueError):
    """An argument exceeded the configured prime-sieve limit."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation was requested exactly at a pole."""


class WindowError(DomainError):
    """A point or region lies outside an evaluator's supported window."""


class ContourError(RuntimeError):
    """Argument tracking along a contour could not be completed."""


class ConvergenceError(RuntimeError):
    """An iterative method hit its iteration cap before reaching its tolerance."""


class CountMismatchError(RuntimeError):
    """Located zeros disagree with the argument-principle count."""


class CoverageError(ValueError):
    """A supplied zero list does not cover the height range an identity needs."""
