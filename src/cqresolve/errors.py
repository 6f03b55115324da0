"""Exception types shared across the toolkit."""
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


def _log2_floor(factor: int, base: int, exponent: int) -> int:
    """⌊log₂(factor·base^exponent)⌋ for positive ints, exact up to 2¹⁶ bits.

    Past 2¹⁶ bits, for a base other than a power of two, the power is not
    formed: log₂ base and log₂ factor are taken from below as multiples of
    2⁻⁵² (a float logarithm less four ulps), so the result is a lower bound,
    and at most one below the floor while exponent·log₂ base < 2⁴⁸.
    """
    if base & (base - 1) == 0:
        return exponent * (base.bit_length() - 1) + factor.bit_length() - 1
    if exponent * base.bit_length() + factor.bit_length() <= 2 ** 16:
        return (factor * base ** exponent).bit_length() - 1
    below = [int(x * 2 ** 52) - 4 * (int(x) + 1) for x in map(math.log2, (base, factor))]
    return (exponent * below[0] + below[1]) >> 52


def check_budget(what: str, need, budget: int, unit: str = "bytes") -> None:
    """Raise ResourceLimitError, saying what needs how many units, if need > budget.

    need is an int, or a triple (factor, base, exponent) of positive ints
    for factor·base^exponent, whose bit length comes from its logarithm: past
    4096 bits, over every budget here, it is refused without being formed.
    """
    bits = _log2_floor(*need) + 1 if isinstance(need, tuple) else need.bit_length()
    if isinstance(need, tuple) and bits <= 4096:
        need = need[0] * need[1] ** need[2]
    if bits > 4096 or need > budget:
        # str() of an int past the digit limit of int-to-str conversion
        # raises: past 4096 bits the need is named by 2^e ≤ need, e = bits − 1,
        # and past 4096 bits e by 2^j < e
        e = bits - 1
        exponent = e if e.bit_length() <= 4096 else f"(2^{(e - 1).bit_length() - 1})"
        size = need if bits <= 4096 else f"more than 2^{exponent}"
        raise ResourceLimitError(
            f"{what} needs {size} {unit}, over the budget of {budget} {unit}")


def check_positive_int(name: str, value) -> None:
    """Raise ValidationError unless value is an int (not a bool) and >= 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


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
