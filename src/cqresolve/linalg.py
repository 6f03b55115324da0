"""Dense Hermitian-matrix kernel.

Eigendecompositions with degeneracy blocks, spectral matrix functions,
trace norm, support projectors of non-negative parts, and Kronecker powers.
All operations are pure functions on numpy arrays and are safe to call
from multiple threads.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .errors import DimensionMismatchError, DomainError, ResourceLimitError, ValidationError

HERMITICITY_TOL = 1e-10
DENSITY_TRACE_TOL = 1e-10
DENSITY_EIG_FLOOR = -1e-10
BLOCK_GROUP_TOL = 1e-10
BOUNDARY_TOL = 1e-10
DEFAULT_MAX_DIM = 4096


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermitianize(a: np.ndarray) -> np.ndarray:
    """Project onto the Hermitian part, (A + A†)/2."""
    return (a + a.conj().T) / 2


def validate_hermitian(a, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Return the input as a matrix after checking it is finite and A = A† entrywise within tol."""
    m = as_matrix(a)
    if not np.isfinite(m).all():
        raise ValidationError("matrix has a NaN or infinite entry")
    dev = float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0
    if dev > tol:
        raise ValidationError(f"matrix is not Hermitian: max |A - A†| = {dev:.3e} > {tol:.0e}")
    return m


def validate_density(a, tol: float = DENSITY_TRACE_TOL) -> np.ndarray:
    """Check Hermiticity, unit trace within tol, and eigenvalues ≥ -1e-10."""
    m = validate_hermitian(a)
    tr = float(np.real(np.trace(m)))
    if abs(tr - 1.0) > tol:
        raise ValidationError(f"trace {tr!r} is not 1 within {tol:.0e}")
    lo = float(npl.eigvalsh(m)[0])
    if lo < DENSITY_EIG_FLOOR:
        raise ValidationError(f"matrix has eigenvalue {lo:.3e} below {DENSITY_EIG_FLOOR:.0e}")
    return m


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

    @property
    def num_distinct(self) -> int:
        """Number of degeneracy blocks (distinct eigenvalues at the grouping tolerance)."""
        return len(self.blocks)

    def matrix(self) -> np.ndarray:
        """Reassemble U diag(λ) U†."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T

    def block_projectors(self) -> list[np.ndarray]:
        """Orthogonal projector onto each degeneracy block's eigenspace."""
        out = []
        for block in self.blocks:
            cols = self.eigenvectors[:, list(block)]
            out.append(cols @ cols.conj().T)
        return out


def _decompose(eigenvalues: np.ndarray, vectors: np.ndarray) -> SpectralDecomposition:
    order = np.argsort(eigenvalues)[::-1]
    vals = np.real(eigenvalues[order]).astype(float)
    vecs = vectors[:, order]
    blocks = tuple(tuple(b) for b in _group_blocks(vals))
    return SpectralDecomposition(vals, vecs, blocks)


def eigh(op) -> SpectralDecomposition:
    """Hermitian eigendecomposition, eigenvalues sorted descending.

    Degenerate eigenvalues are grouped into blocks at the module's grouping
    tolerance. Raises ValidationError on non-Hermitian input.
    """
    m = validate_hermitian(op)
    vals, vecs = npl.eigh(m)
    return _decompose(vals, vecs)


def jacobi_eigh(op, rel_tol: float = 1e-13, max_sweeps: int = 60) -> SpectralDecomposition:
    """Cyclic Jacobi eigendecomposition for Hermitian matrices.

    Rotations sweep the strict upper triangle until the off-diagonal Frobenius
    norm falls below rel_tol times the Frobenius norm of the input. Slower than
    eigh but dependency-light; both satisfy the same contract and the test
    suite cross-validates them.
    """
    m = validate_hermitian(op)
    d = m.shape[0]
    a = m.astype(complex).copy()
    u = np.eye(d, dtype=complex)
    target = rel_tol * max(float(npl.norm(m)), np.finfo(float).tiny)

    def offdiag(x: np.ndarray) -> float:
        o = x - np.diag(np.diag(x))
        return float(npl.norm(o))

    for _ in range(max_sweeps):
        if offdiag(a) <= target:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if abs(apq) == 0.0:
                    continue
                app = float(np.real(a[p, p]))
                aqq = float(np.real(a[q, q]))
                # Phase-rotate to make the pivot real, then a real Jacobi rotation.
                phase = apq / abs(apq)
                r = abs(apq)
                if app == aqq:
                    theta = np.pi / 4
                else:
                    theta = 0.5 * np.arctan2(2 * r, app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                jp = np.array([c, s * np.conj(phase)], dtype=complex)
                jq = np.array([-s * phase, c], dtype=complex)
                # Columns update: [p q] <- [p q] @ J with J = [[c, -s*phase],[s*conj(phase), c]].
                col_p = a[:, p] * c + a[:, q] * s * np.conj(phase)
                col_q = -a[:, p] * s * phase + a[:, q] * c
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = np.conj(jp[0]) * a[p, :] + np.conj(jp[1]) * a[q, :]
                row_q = np.conj(jq[0]) * a[p, :] + np.conj(jq[1]) * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                vcol_p = u[:, p] * c + u[:, q] * s * np.conj(phase)
                vcol_q = -u[:, p] * s * phase + u[:, q] * c
                u[:, p] = vcol_p
                u[:, q] = vcol_q
    vals = np.real(np.diag(a))
    return _decompose(vals, u)


def mat_fn(op, f) -> np.ndarray:
    """Spectral calculus: apply the scalar function f to the eigenvalues.

    Eigenvectors are unchanged. Raises DomainError when f is undefined
    (raises, or returns a non-finite value) at some eigenvalue.
    """
    dec = eigh(op)
    mapped = []
    for lam in dec.eigenvalues:
        try:
            y = float(f(float(lam)))
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise DomainError(f"function undefined at eigenvalue {lam!r}: {exc}") from exc
        if not np.isfinite(y):
            raise DomainError(f"function returned {y!r} at eigenvalue {lam!r}")
        mapped.append(y)
    u = dec.eigenvectors
    return hermitianize((u * np.array(mapped)) @ u.conj().T)


def trace_norm(op) -> float:
    """Trace norm of a Hermitian matrix, the sum of absolute eigenvalues."""
    m = validate_hermitian(op)
    return float(np.sum(np.abs(npl.eigvalsh(m))))


def trace_distance(a, b) -> float:
    """Half the trace norm of the difference of two Hermitian matrices."""
    return 0.5 * trace_norm(as_matrix(a) - as_matrix(b))


def positive_part_projector(a, b) -> np.ndarray:
    """Orthogonal projector onto the non-negative eigenspace of B - A.

    Implements the support projection {A ≤ B}; swap arguments for {A ≥ B}.
    Boundary convention: eigenvalues of B - A in [-1e-10, ∞) are included.
    """
    ma = validate_hermitian(a)
    mb = validate_hermitian(b)
    if ma.shape != mb.shape:
        raise DimensionMismatchError(f"shapes differ: {ma.shape} vs {mb.shape}")
    dec = eigh(mb - ma)
    keep = dec.eigenvalues >= -BOUNDARY_TOL
    cols = dec.eigenvectors[:, keep]
    return hermitianize(cols @ cols.conj().T)


def tensor_power(op, n: int, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """n-fold Kronecker power, capped at max_dim total dimension."""
    m = as_matrix(op)
    if n < 1:
        raise ValidationError(f"power must be a positive integer, got {n}")
    if m.shape[0] ** n > max_dim:
        raise ResourceLimitError(
            f"dimension {m.shape[0]}^{n} exceeds the cap {max_dim}")
    out = m
    for _ in range(n - 1):
        out = np.kron(out, m)
    return out


def kron_all(mats) -> np.ndarray:
    """Kronecker product of a sequence of matrices, in order."""
    mats = list(mats)
    if not mats:
        raise ValidationError("empty Kronecker product")
    out = as_matrix(mats[0])
    for m in mats[1:]:
        out = np.kron(out, as_matrix(m))
    return out
