"""Exception types shared across the toolkit."""
from __future__ import annotations


class ValidationError(ValueError):
    """An input violates a documented invariant (bad matrix, bad file, bad range)."""


class DimensionMismatchError(ValidationError):
    """Operands live on spaces of different dimensions."""


class DomainError(ValidationError):
    """A scalar function was applied outside its domain (e.g. log of a zero eigenvalue)."""


class ResourceLimitError(RuntimeError):
    """A configured cap (matrix dimension, type count, permutation count) would be exceeded."""


def check_positive_int(name: str, value) -> None:
    """Raise ValidationError unless value is an int (not a bool) and >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations.

    Carries the best iterate so callers can inspect it.
    """

    def __init__(self, message: str, *, value: float | None = None,
                 iterations: int | None = None, witness=None):
        super().__init__(message)
        self.value = value
        self.iterations = iterations
        self.witness = witness
