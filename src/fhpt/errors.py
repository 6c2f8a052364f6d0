"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(RuntimeError):
    """Quadrature aborted; the message carries the offending node."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its budget."""
