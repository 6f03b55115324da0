"""Exact and bounded resolution errors.

Exact errors brute-force the finite feasible set of M-types on the product
alphabet. When every product state is diagonal, the trace distances are ℓ₁
distances between real diagonals; otherwise they come from batched
eigvalsh. The worst-input search reports a certified lower bound from a
simplex grid plus local refinement. Soft-covering Monte Carlo draws each
codebook sample from its own counter-based stream keyed by (seed, sample
index), so a sample's letters do not depend on how many samples are drawn.
The one-shot error bounds are evaluated literally from their defining
expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.linalg as npl

from .channel import (CQChannel, Distribution, MType, m_type_counts,
                      output_state)
from .errors import ResourceLimitError, ValidationError
from .info import (SUPPORT_EIG_TOL, RenyiOrder, pinch, pinching_from_spectrum,
                   renyi_mutual_info)
from .linalg import (DEFAULT_MAX_DIM, eigh, hermitianize,
                     positive_part_projector, trace_norm, validate_density)

ARGMIN_TIE_TOL = 1e-12
WORST_REFINE_TOL = 1e-6
CEIL_GRID_SNAP = 1e-9
# Operand bytes per batch of candidate outputs. A row count alone would let
# a batch grow with the output dimension.
EIG_BATCH_BYTES = 4 * 2 ** 20
# 2.0 ** x overflows a float from here on.
MAX_RATE_EXPONENT = 1024


def _check_positive_int(name: str, value) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class ResolutionResult:
    """Exact (or certified-lower-bound) resolution error with its witnesses."""

    error: float
    argmin: MType
    M: int
    n: int
    approximate: str | None = None
    worst_input: Distribution | None = None

    def __post_init__(self):
        if not (0.0 <= self.error <= 1.0 + 1e-12):
            raise ValidationError(f"error must lie in [0,1], got {self.error}")


@dataclass(frozen=True)
class SmoothingParams:
    """Geometric-grid smoothing parameters: grid step λ, depth v, threshold L."""

    lam: float
    v: int
    L: float = 1.0

    def __post_init__(self):
        if not (self.lam > 0):
            raise ValidationError(f"lambda must be positive, got {self.lam}")
        _check_positive_int("v", self.v)
        if not (self.L > 0):
            raise ValidationError(f"L must be positive, got {self.L}")


@dataclass(frozen=True)
class SoftCoverReport:
    """Monte-Carlo codebook experiment summary plus the analytic bounds.

    ``renyi_converged`` and ``renyi_iterations`` carry, per order α, the
    evidence of the Rényi fixed point behind ``bounds[α]``.
    """

    samples: int
    mean_error: float
    bounds: dict[float, float]
    seed: int
    M: int
    n: int
    std_error: float
    distances: np.ndarray = field(repr=False)
    renyi_converged: dict[float, bool]
    renyi_iterations: dict[float, int]

    def __post_init__(self):
        if self.samples < 1:
            raise ValidationError("samples must be >= 1")
        if not (-1e-12 <= self.mean_error <= 1.0 + 1e-12):
            raise ValidationError(f"mean error must lie in [0,1], got {self.mean_error}")


def _batch_rows(row_bytes: int) -> int:
    """Rows per batch that keep a batch within EIG_BATCH_BYTES (at least one)."""
    return max(1, EIG_BATCH_BYTES // row_bytes)


def _batched_half_trace_distances(flat_outputs: np.ndarray, target_flat: np.ndarray,
                                  dim: int) -> np.ndarray:
    """½‖row − target‖₁ for each row of vectorized Hermitian outputs, chunked."""
    out = np.empty(flat_outputs.shape[0])
    step = _batch_rows(dim * dim * np.dtype(complex).itemsize)
    for lo in range(0, out.size, step):
        diffs = (flat_outputs[lo:lo + step] - target_flat).reshape(-1, dim, dim)
        out[lo:lo + step] = 0.5 * np.sum(np.abs(npl.eigvalsh(diffs)), axis=1)
    return out


def _half_l1_distances(diagonals: np.ndarray, target: np.ndarray) -> np.ndarray:
    """½‖row − target‖₁ for each row of real diagonals.

    Each difference is sorted first, so its absolute values are summed in the
    ascending order in which eigvalsh returns a diagonal matrix's eigenvalues.
    """
    return 0.5 * np.sum(np.abs(np.sort(diagonals - target, axis=1)), axis=1)


class _OutputRows:
    """Channel states as rows that mix into outputs, and the distances between them.

    When every off-diagonal entry is exactly 0, the rows are the real
    diagonals and ½‖·‖₁ is ½·Σ|sorted(difference)|. Otherwise the rows are
    the flattened matrices and ½‖·‖₁ comes from eigvalsh.
    """

    def __init__(self, states: np.ndarray):
        k, self.dim = states.shape[0], states.shape[1]
        self.flat = states.reshape(k, -1)
        self.diagonal = not np.any(states[:, ~np.eye(self.dim, dtype=bool)])
        self.rows = np.diagonal(states, axis1=1, axis2=2).real.copy() \
            if self.diagonal else self.flat

    def target(self, weights: np.ndarray) -> np.ndarray:
        """The row of Σ_x w_x W_x.

        It is mixed from the flattened states on both paths, so both paths
        see the same bits. A real matrix-vector product can round a diagonal
        entry one ulp differently, which changes printed errors near zero.
        """
        mixed = weights @ self.flat
        return mixed[::self.dim + 1].real if self.diagonal else mixed

    def distances(self, outputs: np.ndarray, target: np.ndarray) -> np.ndarray:
        """½‖row − target‖₁ for each row of outputs."""
        if self.diagonal:
            return _half_l1_distances(outputs, target)
        return _batched_half_trace_distances(outputs, target, self.dim)


def _first_argmin(errors: np.ndarray) -> tuple[float, int]:
    """The minimum, and the first index within ARGMIN_TIE_TOL of it."""
    best = float(errors.min())
    return best, int(np.flatnonzero(errors <= best + ARGMIN_TIE_TOL)[0])


def _product_masses(channel: CQChannel, dist: Distribution, n: int) -> np.ndarray:
    """Masses of p^{⊗n} in the product channel's label order."""
    masses = dist.masses
    out = masses
    for _ in range(n - 1):
        out = np.kron(out, masses)
    return out


def _resolve_target_masses(channel: CQChannel, product: CQChannel,
                           dist: Distribution, n: int) -> np.ndarray:
    """Accept either a base distribution (i.i.d. power) or a product one."""
    if dist.labels == channel.labels:
        return _product_masses(channel, dist, n)
    if dist.labels == product.labels:
        return dist.masses
    raise ValidationError(
        "distribution labels match neither the base alphabet nor the n-fold product")


def resolution_error_exact(channel: CQChannel, dist: Distribution, M: int,
                           n: int = 1, *, max_types: int | None = None,
                           max_dim: int = DEFAULT_MAX_DIM) -> ResolutionResult:
    """min over M-types q on X^n of ½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁, exactly.

    The M-types come from `m_type_counts` (stars and bars, lexicographic
    order), and ties within 1e-12 of the minimum resolve to the
    lexicographically first one. When every product state is diagonal, the
    outputs are real diagonals and each distance is ½·Σ|sorted(difference)|;
    otherwise the outputs are flattened matrices and each distance comes from
    eigvalsh. Outputs are formed in batches of about EIG_BATCH_BYTES.
    M and n must be positive ints.
    """
    _check_positive_int("M", M)
    _check_positive_int("n", n)
    product = channel.power(n, max_dim=max_dim)
    masses = _resolve_target_masses(channel, product, dist, n)
    outputs = _OutputRows(product.states)
    target = outputs.target(masses)
    kwargs = {} if max_types is None else {"max_types": max_types}
    counts = m_type_counts(product.size, M, **kwargs)
    errors = np.empty(counts.shape[0])
    step = _batch_rows(counts.shape[1] * np.dtype(float).itemsize
                       + outputs.rows[0].nbytes)
    for lo in range(0, counts.shape[0], step):
        mixed = (counts[lo:lo + step] / M) @ outputs.rows
        errors[lo:lo + step] = outputs.distances(mixed, target)
    best, idx = _first_argmin(errors)
    argmin = MType.from_counts(product.labels, counts[idx], M)
    return ResolutionResult(min(best, 1.0), argmin, M, n)


def resolution_error_worst(channel: CQChannel, M: int, n: int = 1, *,
                           grid: int = 20, max_types: int | None = None,
                           max_dim: int = DEFAULT_MAX_DIM) -> ResolutionResult:
    """Certified lower bound on sup_p min_{M-type q} ½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁.

    Evaluates the inner minimum on a simplex grid of step 1/grid, then
    refines the best grid point by coordinatewise mass moves with step
    halving down to 1e-6. Every reported value is attained by an explicit
    input, hence a true lower bound on the supremum. Candidates and grid
    points come from `m_type_counts` (stars and bars). When every product
    state is diagonal, the candidate outputs are real diagonals and each
    distance is ½·Σ|sorted(difference)|; otherwise they are flattened
    matrices and the distances come from eigvalsh in batches of about
    EIG_BATCH_BYTES. M, n and grid must be positive ints.
    """
    _check_positive_int("M", M)
    _check_positive_int("n", n)
    _check_positive_int("grid", grid)
    product = channel.power(n, max_dim=max_dim)
    k = product.size
    outputs = _OutputRows(product.states)
    kwargs = {} if max_types is None else {"max_types": max_types}
    cand_counts = m_type_counts(k, M, **kwargs)
    cand = (cand_counts / M) @ outputs.rows

    def inner(p_vec: np.ndarray) -> tuple[float, int]:
        return _first_argmin(outputs.distances(cand, outputs.target(p_vec)))

    best_val = -1.0
    best_p = None
    for counts in m_type_counts(k, grid, **kwargs):
        row = counts / grid
        val, _ = inner(row)
        if val > best_val:
            best_val, best_p = val, row

    step = 1.0 / grid
    while step >= WORST_REFINE_TOL:
        improved = False
        for i in range(k):
            for j in range(k):
                if i == j or best_p[j] < step:
                    continue
                trial = best_p.copy()
                trial[j] -= step
                trial[i] += step
                val, _ = inner(trial)
                if val > best_val + 1e-15:
                    best_val, best_p = val, trial
                    improved = True
        if not improved:
            step /= 2.0
    final_val, q_idx = inner(best_p)
    argmin = MType.from_counts(product.labels, cand_counts[q_idx], M)
    worst = Distribution(product.labels, best_p)
    return ResolutionResult(max(final_val, 0.0), argmin, M, n,
                            approximate="lower bound", worst_input=worst)


def soft_cover_bound(order: RenyiOrder, channel: CQChannel, dist: Distribution,
                     M: int) -> float:
    """2^{2/α − 2} · 2^{((α−1)/α)·(I_α(X;B) − log₂ M)}, the mean-error bound.

    The −log₂ M term sits inside the (α−1)/α factor: at α = 2 the bound is
    ½·√(2^{I₂}/M), the familiar χ²-style covering bound with the 1/√M decay
    that the codebook average actually exhibits.  Placing −log₂ M outside the
    factor would claim a 1/M decay, which the sample mean provably exceeds
    for any nondegenerate channel once M is large.
    """
    _check_positive_int("M", M)
    info = renyi_mutual_info(order, channel, dist)
    return _soft_cover_from_info(order.alpha, info.value, M)


def _soft_cover_from_info(alpha: float, info_bits: float, M: int) -> float:
    """The soft-covering bound given I_α in bits."""
    exponent = (2.0 / alpha - 2.0) \
        + ((alpha - 1.0) / alpha) * (info_bits - math.log2(M))
    return 2.0 ** exponent


def soft_cover_simulate(channel: CQChannel, dist: Distribution, M: int, n: int,
                        samples: int, seed: int, *,
                        orders: tuple[RenyiOrder, ...] = (RenyiOrder(2.0),),
                        workers: int = 1,
                        max_dim: int = DEFAULT_MAX_DIM) -> SoftCoverReport:
    """Monte-Carlo mean of ½‖W_C − W^{⊗n}(q^{⊗n})‖₁ over i.i.d. codebooks.

    Codebook sample i consists of M codewords drawn i.i.d. from q^{⊗n}
    out of its own Philox stream keyed by (seed, i), so sample i's letters
    are the same for any ``samples`` ≥ i + 1. The seed must lie in
    [0, 2¹²⁸). ``workers`` is validated (≥ 1) and has no effect.

    The bound for each order uses I_α(X^n;B^n) = n·I_α(X;B), since the
    sandwiched Rényi mutual information is additive for α ≥ 1/2; the
    fixed point runs on the k-letter channel, not on its kⁿ-letter power.
    """
    channel._check_alphabet(dist)
    _check_positive_int("M", M)
    _check_positive_int("n", n)
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    if not (isinstance(seed, int) and 0 <= seed < 2 ** 128):
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed}")
    product = channel.power(n, max_dim=max_dim)
    k, size = channel.size, product.size
    flat = product.states.reshape(size, -1)
    target_flat = _product_masses(channel, dist, n) @ flat

    u = np.stack([np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, i]))
                  .random((M, n)) for i in range(samples)])
    letters = np.minimum(np.searchsorted(np.cumsum(dist.masses), u, side="right"), k - 1)
    words = letters @ (k ** np.arange(n - 1, -1, -1, dtype=np.int64))
    # One product per row: a single matmul over all rows may round a row
    # differently as the row count changes, which would break prefixes.
    outs = np.stack([(np.bincount(w, minlength=size) / M) @ flat for w in words])
    distances = _batched_half_trace_distances(outs, target_flat, product.dim)

    bounds, converged, iterations = {}, {}, {}
    for order in orders:
        info = renyi_mutual_info(order, channel, dist)
        bounds[order.alpha] = _soft_cover_from_info(order.alpha, n * info.value, M)
        converged[order.alpha] = info.converged
        iterations[order.alpha] = info.iterations
    mean = float(distances.mean())
    std = float(distances.std(ddof=1)) if samples > 1 else 0.0
    return SoftCoverReport(samples=samples, mean_error=mean, bounds=bounds,
                           seed=seed, M=M, n=n, std_error=std,
                           distances=distances, renyi_converged=converged,
                           renyi_iterations=iterations)


def ceil_operator(rho, params: SmoothingParams) -> np.ndarray:
    """Spectral rounding of ρ up onto the geometric grid s₁·2^{λk}, k ≥ −v.

    Each eigenvalue s maps to s₁·2^{λ·max(−v, ⌈log₂(s/s₁)/λ⌉)}; eigenvalues
    at (or below) the grid floor — including zeros — map to s₁·2^{−vλ}, so
    the result is full rank with at most v+1 distinct eigenvalues and
    satisfies ρ ≤ ⌈ρ⌉ ≤ 2^λρ + 2^{−vλ}I.
    """
    m = validate_density(rho)
    dec = eigh(m)
    top = float(dec.eigenvalues[0])
    if top <= 0.0:
        raise ValidationError("cannot smooth the zero operator")
    levels = np.empty_like(dec.eigenvalues)
    for i, s in enumerate(dec.eigenvalues):
        if s <= 0.0:
            levels[i] = -params.v
            continue
        ratio = math.log2(s / top) / params.lam
        nearest = round(ratio)
        k = nearest if abs(ratio - nearest) <= CEIL_GRID_SNAP else math.ceil(ratio)
        levels[i] = max(-params.v, k)
    new_vals = top * np.exp2(params.lam * levels)
    u = dec.eigenvectors
    return hermitianize((u * new_vals) @ u.conj().T)


def _support_violation(states: np.ndarray, masses: np.ndarray,
                       sigma_dec) -> None:
    kernel = sigma_dec.eigenvalues <= SUPPORT_EIG_TOL
    if not np.any(kernel):
        return
    cols = sigma_dec.eigenvectors[:, kernel]
    for w, mass in zip(states, masses):
        if mass <= 0.0:
            continue
        leak = float(np.real(np.einsum("ia,ij,ja->", cols.conj(), w, cols)))
        if leak > 1e-10:
            raise ValidationError(
                "a channel state with positive mass leaks outside the reference support")


def ll2_bound(channel: CQChannel, dist: Distribution, sigma, Cthr: float,
              M: int) -> float:
    """4√(Σ_x p(x) Tr W_x{E_σ(W_x) ≥ Cσ}) + √((v′/M)Σ_x p(x) Tr σ⁻¹E_σ(W_x)²{E_σ(W_x) < Cσ}).

    E_σ is the pinching onto σ's spectral blocks and v′ their count; σ⁻¹ is
    the pseudo-inverse on σ's support.
    """
    channel._check_alphabet(dist)
    if Cthr <= 0:
        raise ValidationError(f"threshold must be positive, got {Cthr}")
    _check_positive_int("M", M)
    s = validate_density(sigma)
    if s.shape[0] != channel.dim:
        raise ValidationError("reference state dimension does not match the channel")
    dec = eigh(s)
    _support_violation(channel.states, dist.masses, dec)
    pmap = pinching_from_spectrum(s)
    v_prime = pmap.num_blocks
    support = dec.eigenvalues > SUPPORT_EIG_TOL
    inv_vals = np.where(support, 1.0 / np.where(support, dec.eigenvalues, 1.0), 0.0)
    u = dec.eigenvectors
    sigma_inv = (u * inv_vals) @ u.conj().T

    term1 = 0.0
    term2 = 0.0
    for w, mass in zip(channel.states, dist.masses):
        if mass <= 0.0:
            continue
        pinched = pinch(pmap, w)
        high = positive_part_projector(Cthr * s, pinched)
        low = np.eye(channel.dim) - high
        term1 += float(mass) * max(0.0, float(np.real(np.trace(w @ high))))
        quad = float(np.real(np.trace(sigma_inv @ pinched @ pinched @ low)))
        term2 += float(mass) * max(0.0, quad)
    return 4.0 * math.sqrt(term1) + math.sqrt(v_prime / M * term2)


def ll1b_bound(channel: CQChannel, dist: Distribution, params: SmoothingParams,
               M: int) -> float:
    """4√(Σ_x p(x) Tr W_x{E_τ(W_x) ≥ Lτ}) + √(vL/M) with τ = ⌈W(p)⌉_{λ,v}."""
    channel._check_alphabet(dist)
    _check_positive_int("M", M)
    tau = ceil_operator(output_state(channel, dist), params)
    pmap = pinching_from_spectrum(tau)
    term1 = 0.0
    for w, mass in zip(channel.states, dist.masses):
        if mass <= 0.0:
            continue
        pinched = pinch(pmap, w)
        high = positive_part_projector(params.L * tau, pinched)
        term1 += float(mass) * max(0.0, float(np.real(np.trace(w @ high))))
    return 4.0 * math.sqrt(term1) + math.sqrt(params.v * params.L / M)


def converse_trend(channel: CQChannel, dist: Distribution, R: float, n_max: int,
                   *, max_types: int | None = None,
                   max_dim: int = DEFAULT_MAX_DIM) -> list[tuple[int, int, float]]:
    """Exact ε(p^{⊗n}, W^{⊗n}, ⌊2^{nR}⌋) for n = 1…n_max, as (n, M, error) rows.

    Raises ResourceLimitError when n_max·R ≥ 1024: ⌊2^{nR}⌋ no longer fits a
    float there, and its M-types are far past any enumeration cap.
    """
    if not (math.isfinite(R) and R >= 0):
        raise ValidationError(f"rate must be finite and nonnegative, got {R}")
    _check_positive_int("n_max", n_max)
    channel._check_alphabet(dist)
    if n_max * R >= MAX_RATE_EXPONENT:
        raise ResourceLimitError(
            f"M = 2^(n*R) at n = {n_max}, R = {R} exceeds 2^{MAX_RATE_EXPONENT}; "
            "its M-types are far past any enumeration cap")
    rows = []
    for n in range(1, n_max + 1):
        M = max(1, math.floor(2.0 ** (n * R)))
        res = resolution_error_exact(channel, dist, M, n,
                                     max_types=max_types, max_dim=max_dim)
        rows.append((n, M, res.error))
    return rows
