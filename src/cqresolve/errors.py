"""Exception types, resource budgets and input checks shared across the toolkit.

A request past a budget raises ResourceLimitError (exit 3 from the CLI)
naming what it needs, before anything is allocated; `check_budget`, the one
place a budget is compared, refuses an absurd block length by its exponent.
"""
from __future__ import annotations

import math
import numbers
import sys


class ValidationError(ValueError):
    """An input violates a documented invariant (bad matrix, bad file, bad range)."""


class DimensionMismatchError(ValidationError):
    """Operands live on spaces of different dimensions."""


class ResourceLimitError(RuntimeError):
    """A request would exceed one of the resource budgets below."""


# Resource budgets, each compared with what a request needs before anything
# is allocated (the byte budgets in check_budget alone): int64 counts of an
# M-type count matrix or of codebook draws; complex product-space matrices,
# 4096² entries; rows of one M-type enumeration, candidates or grid points.
MAX_COUNT_BYTES = 2 ** 31
MAX_MATRIX_BYTES = 2 ** 28
MAX_TYPES = 10 ** 7


def check_budget(what: str, need, budget: int, unit: str = "bytes") -> None:
    """Raise ResourceLimitError, saying what needs how many units, if need > budget.

    need is an int, or a triple (factor, base, exponent) of positive ints
    for factor·base^exponent. With base ≥ 2 that is at least 2^exponent, so
    an exponent past L, the budget's bit length, is refused at once as
    "more than 2^L" without forming the power; any other triple is formed
    and compared as an int. An int need is named exactly up to 4096 bits,
    past that by the power of two below it, since str() of an int past the
    digit limit of int-to-str conversion raises.
    """
    if isinstance(need, tuple):
        factor, base, exponent = need
        if base >= 2 and exponent > budget.bit_length():
            raise ResourceLimitError(f"{what} needs more than 2^{budget.bit_length()} "
                                     f"{unit}, over the budget of {budget} {unit}")
        need = factor * base ** exponent
    if need > budget:
        bits = need.bit_length()
        size = need if bits <= 4096 else f"more than 2^{bits - 1}"
        raise ResourceLimitError(
            f"{what} needs {size} {unit}, over the budget of {budget} {unit}")


def check_positive_int(name: str, value) -> None:
    """Raise ValidationError unless value is an int (not a bool) and >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


def is_integer(value) -> bool:
    """Whether value is an int or a numpy integer, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf, *,
               open_lo: bool = False, open_hi: bool = False) -> None:
    """Raise ValidationError unless value is a finite int or float (not a bool) in [lo, hi].

    Finite means at most the largest float in magnitude (no int is converted
    to a float), so NaN, ±∞ and larger ints are rejected. open_lo and open_hi
    leave an end out; an infinite end is no bound. The message says "<name>
    must be positive" (or "nonnegative") for (0, ∞) and [0, ∞).
    """
    if (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and abs(value) <= sys.float_info.max
            and (lo < value if open_lo else lo <= value)
            and (value < hi if open_hi else value <= hi)):
        return
    if (lo, hi) == (0, math.inf):
        want = "positive" if open_lo else "nonnegative"
    else:
        left = "(" if open_lo or lo == -math.inf else "["
        right = ")" if open_hi or hi == math.inf else "]"
        want = f"in {left}{lo:.12g}, {hi:.12g}{right}"
    # repr of an int past the digit limit of int-to-str conversion raises
    huge = isinstance(value, int) and abs(value) > sys.float_info.max
    got = "an int too large for a float" if huge else repr(value)
    raise ValidationError(f"{name} must be {want} and finite, got {got}")


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
