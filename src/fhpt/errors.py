"""Exception types shared across the package, and the integer-argument check."""

from __future__ import annotations

import numpy as np

__all__ = ["ConvergenceError", "DomainError", "IntegrationError"]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IntegrationError(RuntimeError):
    """Quadrature aborted; the message carries the offending node."""


class ConvergenceError(RuntimeError):
    """An iteration failed to reach its tolerance within its budget."""


def _check_int(name: str, v, lo: int, hi: int | None = None) -> None:
    """Raise DomainError unless v is an integer (not a bool) in [lo, hi]; hi=None leaves it unbounded."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < lo or (hi is not None and v > hi):
        span = f"an integer >= {lo}" if hi is None else f"an integer in [{lo}, {hi}]"
        raise DomainError(f"{name} must be {span}, got {v!r}")


def _check_ints(name: str, values: list, lo: int, hi: int | None = None) -> None:
    """_check_int over a sequence in one pass; the first value it would reject names itself in the message."""
    kinds = set(map(type, values))
    ints = all(t is not bool and issubclass(t, (int, np.integer)) for t in kinds)
    if values and not (ints and min(values) >= lo and (hi is None or max(values) <= hi)):
        for v in values:
            _check_int(name, v, lo, hi)
