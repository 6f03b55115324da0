"""Method-of-types machinery in a fixed orthonormal basis.

Empirical states, type projectors and pinchings, the twirling domination
margin, bad codewords, and the commuting types bound, all at finite block
length with exact integer rank arithmetic wherever counts are involved.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (CQChannel, Distribution, Word, empirical_output, m_type_counts,
                      output_state)
from .errors import (MAX_MATRIX_BYTES, DimensionMismatchError, ValidationError,
                     check_budget, check_positive_int, check_real)
from .info import SUPPORT_EIG_TOL, PinchingMap
from .linalg import tensor_power, trace_norm, validate_density

BASIS_GRAM_TOL = 1e-10


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of C^d, stored as the columns of a unitary matrix."""

    vectors: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"basis must be a square matrix, got {v.shape}")
        gram = v.conj().T @ v
        if float(np.max(np.abs(gram - np.eye(v.shape[0])))) > BASIS_GRAM_TOL:
            raise ValidationError("basis vectors are not orthonormal")
        object.__setattr__(self, "vectors", v)

    @classmethod
    def standard(cls, d: int) -> "Basis":
        return cls(np.eye(d, dtype=complex))

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def is_standard(self) -> bool:
        return bool(np.allclose(self.vectors, np.eye(self.dim), atol=1e-14))


@dataclass(frozen=True)
class EmpiricalState:
    """Letter-count profile of a length-n word over d basis indices."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        check_positive_int("n", self.n)
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValidationError(f"counts must be nonnegative, got {counts}")
        if sum(counts) != self.n:
            raise ValidationError(
                f"counts {counts} sum to {sum(counts)}, expected n = {self.n}")
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    def distribution(self) -> np.ndarray:
        return np.asarray(self.counts, dtype=float) / self.n

    def rank(self) -> int:
        """Exact number of words with this profile: n! / ∏ counts_j!."""
        num = math.factorial(self.n)
        for c in self.counts:
            num //= math.factorial(c)
        return num


def _empirical_state(w: Word, d: int) -> EmpiricalState:
    """Occurrence counts of the word's basis indices."""
    counts = [0] * d
    for sym in w.symbols:
        if not isinstance(sym, (int, np.integer)):
            raise ValidationError(f"word symbols must be basis indices, got {sym!r}")
        if not (0 <= int(sym) < d):
            raise ValidationError(f"basis index {sym} out of range for d = {d}")
        counts[int(sym)] += 1
    return EmpiricalState(tuple(counts), len(w.symbols))


def all_empirical_states(n: int, d: int) -> list[EmpiricalState]:
    """Every feasible count profile for (n, d): the C(n+d-1, d-1) rows of `m_type_counts(d, n)`."""
    check_positive_int("n", n)
    check_positive_int("d", d)
    return [EmpiricalState(tuple(int(c) for c in row), n)
            for row in m_type_counts(d, n)]


@dataclass(frozen=True)
class TypeProjector:
    """Projector onto all basis words with a fixed letter-count profile."""

    type: EmpiricalState
    basis: Basis
    matrix: np.ndarray
    rank: int


def _word_mask(t: EmpiricalState) -> np.ndarray:
    """Which basis words of length n, in C order, have the profile t."""
    letters = np.array(np.unravel_index(np.arange(t.dim ** t.n), (t.dim,) * t.n))
    counts = (letters[..., None] == np.arange(t.dim)).sum(axis=0)
    return np.all(counts == np.asarray(t.counts), axis=1)


def type_projector(t: EmpiricalState, basis: Basis) -> TypeProjector:
    """Σ over words with profile t of |v[x^n]⟩⟨v[x^n]|, with exact rank.

    A dⁿ×dⁿ projector of more than MAX_MATRIX_BYTES (dⁿ > 4096) raises
    ResourceLimitError before it is built.
    """
    if basis.dim != t.dim:
        raise DimensionMismatchError(f"basis dim {basis.dim} vs profile dim {t.dim}")
    d, n = t.dim, t.n
    check_budget(f"the {d}^{n} x {d}^{n} type projector",
                 d ** (2 * n) * np.dtype(complex).itemsize, MAX_MATRIX_BYTES)
    mask = _word_mask(t)
    rank = t.rank()
    if int(mask.sum()) != rank:
        raise ValidationError("word enumeration disagrees with the factorial rank")
    if basis.is_standard:
        matrix = np.diag(mask.astype(complex))
    else:
        cols = tensor_power(basis.vectors, n)[:, mask]
        matrix = cols @ cols.conj().T
    return TypeProjector(t, basis, matrix, rank)


def type_pinching(basis: Basis, n: int) -> PinchingMap:
    """Pinching map whose blocks are all type projectors for (n, basis)."""
    projectors = tuple(type_projector(t, basis).matrix
                       for t in all_empirical_states(n, basis.dim))
    return PinchingMap(projectors)


def ee31_margin(w: Word, d: int) -> float:
    """Min eigenvalue of (n+1)^{d-1}·e(x^n)^{⊗n} − twirl(|x^n⟩⟨x^n|).

    Nonnegative (within slack) certifies the twirling domination for the
    word; the word's letters are standard-basis indices. Twirling the word
    projector gives the projector onto the word's type class T_c divided by
    |T_c|, so both terms are diagonal in the word basis and the margin is
    the minimum over types m of (n+1)^{d-1}·∏_j (c_j/n)^{m_j} − [m = c]/|T_c|.
    No dⁿ matrix is built, so dⁿ has no cap; the types come from
    `m_type_counts(d, n)`, with its caps. d is a positive int.
    """
    check_positive_int("d", d)
    n = len(w.symbols)
    emp = _empirical_state(w, d)
    types = m_type_counts(d, n)
    diag = ((n + 1) ** (d - 1)) * np.prod(emp.distribution() ** types, axis=1)
    diag[np.all(types == np.asarray(emp.counts), axis=1)] -= 1.0 / emp.rank()
    return float(diag.min())


def bad_codeword_test(channel: CQChannel, w: Word, dist: Distribution,
                      delta: float) -> bool:
    """Whether ‖(1/n)Σ_j W_{x_j} − W(p)‖₁ ≥ δ (the word is a bad codeword)."""
    check_real("delta", delta, 0.0, open_lo=True)
    gap = trace_norm(empirical_output(channel, w) - output_state(channel, dist))
    return bool(gap >= delta)


@dataclass(frozen=True)
class TypesBoundCheck:
    """One row of the commuting types-bound sweep."""

    lhs: float
    rhs: float
    ok: bool


def commuting_types_bound_check(rho, rho_prime: EmpiricalState,
                                n: int) -> TypesBoundCheck:
    """Exact Tr ρ^{⊗n} T_{ρ'} vs 2^{−n D(ρ'‖ρ)} for diagonal ρ.

    The left side is multinomial(n; counts)·∏ ρ_i^{counts_i}, computed
    without building any n-fold matrix. A support violation (a counted
    letter with zero mass in ρ) zeroes both sides, so the bound holds
    vacuously.
    """
    m = validate_density(rho)
    off = m - np.diag(np.diag(m))
    if float(np.max(np.abs(off))) > 1e-10:
        raise ValidationError("the types bound check requires a diagonal state")
    if n != rho_prime.n:
        raise ValidationError(f"n = {n} differs from the profile's n = {rho_prime.n}")
    if m.shape[0] != rho_prime.dim:
        raise DimensionMismatchError(
            f"state dim {m.shape[0]} vs profile dim {rho_prime.dim}")
    probs = np.real(np.diag(m))
    counts = np.asarray(rho_prime.counts)
    active = counts > 0
    if np.any(probs[active] <= SUPPORT_EIG_TOL):
        return TypesBoundCheck(0.0, 0.0, True)
    lhs = float(rho_prime.rank()) * float(np.prod(probs[active] ** counts[active]))
    freq = counts[active] / n
    div = float(np.sum(freq * (np.log2(freq) - np.log2(probs[active]))))
    rhs = 2.0 ** (-n * div)
    return TypesBoundCheck(lhs, rhs, bool(lhs <= rhs * (1.0 + 1e-9)))
