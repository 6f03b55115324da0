"""Dense Hermitian-matrix kernel.

Eigendecompositions with degeneracy blocks, trace norm, support
projectors of non-negative parts, the one Kronecker product kernel,
which orders every product space, and the byte size of a batch of rows.
All operations are pure functions on numpy arrays and are safe to call
from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import (MAX_MATRIX_BYTES, DimensionMismatchError, ValidationError,
                     check_budget, check_positive_int)

HERMITICITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
BLOCK_GROUP_TOL = 1e-10
BOUNDARY_TOL = 1e-10
# Operand bytes per batch of candidate outputs. A row count alone would let
# a batch grow with the output dimension.
EIG_BATCH_BYTES = 4 * 2 ** 20


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2, of each matrix in the last two axes."""
    return (a + np.swapaxes(a.conj(), -1, -2)) / 2


def _check_hermitian(stack: np.ndarray) -> np.ndarray:
    """A (k, d, d) stack, checked finite and with A = A† entrywise within 1e-10."""
    if not np.isfinite(stack).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    # |A - A†| entrywise in real temporaries, half the size of complex ones
    gap = stack.real - stack.real.swapaxes(-1, -2)
    np.hypot(gap, stack.imag + stack.imag.swapaxes(-1, -2), out=gap)
    dev = float(gap.max(initial=0.0))
    if dev > HERMITICITY_TOL:
        raise ValidationError(
            f"matrix is not Hermitian: max |A - A†| = {dev:.3e} > {HERMITICITY_TOL:.0e}")
    return stack


def _check_densities(stack: np.ndarray) -> np.ndarray:
    """A (k, d, d) stack, checked Hermitian, of unit trace within 1e-10 and with
    eigenvalues ≥ -1e-10: one test of each kind, and one batched eigvalsh."""
    _check_hermitian(stack)
    traces = np.real(np.trace(stack, axis1=-2, axis2=-1))
    off = np.flatnonzero(np.abs(traces - 1.0) > DENSITY_TRACE_TOL)
    if off.size:
        raise ValidationError(
            f"trace {float(traces[off[0]])!r} is not 1 within {DENSITY_TRACE_TOL:.0e}")
    lo = float(npl.eigvalsh(stack)[:, 0].min())
    if lo < DENSITY_EIG_FLOOR:
        raise ValidationError(f"matrix has eigenvalue {lo:.3e} below {DENSITY_EIG_FLOOR:.0e}")
    return stack


def validate_hermitian(a) -> np.ndarray:
    """The input as a matrix, checked finite and with A = A† entrywise within 1e-10."""
    return _check_hermitian(as_matrix(a)[None])[0]


def validate_density(a) -> np.ndarray:
    """Check Hermiticity, unit trace within 1e-10, and eigenvalues ≥ -1e-10."""
    return _check_densities(as_matrix(a)[None])[0]


def _matrix_pair(a, b, check_a, check_b) -> tuple[np.ndarray, np.ndarray]:
    """a and b as matrices through their own checks, which must give one shape."""
    ma, mb = check_a(a), check_b(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes differ: {ma.shape} vs {mb.shape}")
    return ma, mb


def _group_blocks(eigenvalues: np.ndarray) -> list[list[int]]:
    # Consecutive descending eigenvalues join a block when their gap is within
    # the grouping tolerance at the operator's spectral scale; this keeps the
    # spectrum discrete (for pinching and distinct-eigenvalue counts) despite
    # floating-point noise, including noise around zero.
    if eigenvalues.size == 0:
        return []
    scale = max(1.0, float(np.max(np.abs(eigenvalues))))
    tol = BLOCK_GROUP_TOL * scale
    blocks: list[list[int]] = [[0]]
    for i in range(1, eigenvalues.size):
        if eigenvalues[i - 1] - eigenvalues[i] <= tol:
            blocks[-1].append(i)
        else:
            blocks.append([i])
    return blocks


@dataclass(frozen=True)
class SpectralDecomposition:
    """Descending eigenvalues, orthonormal eigenvector columns, degeneracy blocks."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    blocks: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return int(self.eigenvalues.size)

    def block_projectors(self) -> list[np.ndarray]:
        """Orthogonal projector onto each degeneracy block's eigenspace."""
        out = []
        for block in self.blocks:
            cols = self.eigenvectors[:, list(block)]
            out.append(cols @ cols.conj().T)
        return out


def eigh(op) -> SpectralDecomposition:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    numpy's ascending eigenvalues are reordered by argsort(...)[::-1]; every
    descending decomposition takes this order, ties included. Degenerate
    eigenvalues are grouped into blocks at the module's grouping tolerance.
    Raises ValidationError on non-Hermitian input.
    """
    vals, vecs = npl.eigh(validate_hermitian(op))
    order = np.argsort(vals)[::-1]
    vals, vecs = vals[order], vecs[:, order]
    return SpectralDecomposition(vals, vecs, tuple(tuple(b) for b in _group_blocks(vals)))


def trace_norm(op) -> float:
    """Trace norm of a Hermitian matrix, the sum of absolute eigenvalues."""
    m = validate_hermitian(op)
    return float(np.sum(np.abs(npl.eigvalsh(m))))


def positive_part_projector(a, b) -> np.ndarray:
    """Orthogonal projector onto the non-negative eigenspace of B - A.

    Implements the support projection {A ≤ B}; swap arguments for {A ≥ B}.
    Boundary convention: eigenvalues of B - A in [-1e-10, ∞) are included.
    """
    ma, mb = _matrix_pair(a, b, validate_hermitian, validate_hermitian)
    dec = eigh(mb - ma)
    keep = dec.eigenvalues >= -BOUNDARY_TOL
    cols = dec.eigenvectors[:, keep]
    return hermitianize(cols @ cols.conj().T)


def _batch_rows(row_bytes: int) -> int:
    """Rows per batch that keep a batch within EIG_BATCH_BYTES (at least one)."""
    return max(1, EIG_BATCH_BYTES // row_bytes)


def _kron_rows(stack: np.ndarray, n: int) -> np.ndarray:
    """Every n-fold Kronecker product of the rows of a stack, in C order of the row indices.

    Entry np.ravel_multi_index((i_1, …, i_n), (k,) * n) is stack[i_1] ⊗ … ⊗
    stack[i_n], for rows that are scalars, vectors or matrices. Each extra
    factor is one broadcast multiply, associating from the left as np.kron.
    """
    k, shape = stack.shape[0], stack.shape[1:]
    right = stack.reshape((1, k) + sum(((1, s) for s in shape), ()))
    out = stack
    for _ in range(n - 1):
        left = out.reshape((out.shape[0], 1) + sum(((s, 1) for s in out.shape[1:]), ()))
        out = (left * right).reshape(
            (out.shape[0] * k,) + tuple(a * b for a, b in zip(out.shape[1:], shape)))
    return out


def tensor_power(op, n: int) -> np.ndarray:
    """n-fold Kronecker power; n a positive int.

    The product basis is in C order of the factor indices, the first factor
    most significant, as in np.kron and np.ravel_multi_index. A power of
    more than MAX_MATRIX_BYTES (mⁿ > 4096 for an m×m matrix) raises
    ResourceLimitError before it is built.
    """
    m = as_matrix(op)
    check_positive_int("n", n)
    check_budget(f"the {n}-fold tensor power of a {m.shape[0]}x{m.shape[0]} matrix",
                 (m.itemsize, m.shape[0] ** 2, n), MAX_MATRIX_BYTES)
    return _kron_rows(m[None], n)[0]
