"""Relative entropy, mutual information, Rényi quantities, and pinching.

All logarithms are base 2. Eigenvalues below the support threshold are
treated as zero wherever divergences are computed; infinite divergences are
returned as the float infinity sentinel, never as an overflow.

Two spectral kernels live here and nowhere else. `_divergences` gives
D(W_x‖W(p)) for every input from one eigendecomposition of W(p); relative
entropy, mutual information and the capacity ascent all read it.
`_renyi_sandwiches` decomposes every A_x = σ^γ W_x σ^γ of every order in one
batched eigh and gives the Rényi fixed point both its objective and its next
proposal; `_renyi_fixed_points` runs that fixed point for all orders as one
stack.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channel import CQChannel, Distribution, output_state
from .errors import DimensionMismatchError, ValidationError, check_real
from .linalg import (SpectralDecomposition, _check_hermitian, _matrix_pair, as_matrix, eigh,
                     hermitianize, validate_density, validate_hermitian)

SUPPORT_EIG_TOL = 1e-12
KERNEL_MASS_TOL = 1e-10
PINCH_COMPLETENESS_TOL = 1e-9
RENYI_MAX_ITER = 500
RENYI_DAMPING = 0.5
RENYI_STEP_TOL = 1e-10


@dataclass(frozen=True)
class RenyiOrder:
    """Rényi order α in (1, 2], equivalently s = α - 1 in (0, 1]."""

    alpha: float

    def __post_init__(self):
        check_real("order", self.alpha, 1.0, 2.0, open_lo=True)

    @property
    def s(self) -> float:
        return self.alpha - 1.0


def _kernel_mass(rho: np.ndarray, dec_sigma: SpectralDecomposition) -> float:
    kernel = dec_sigma.eigenvalues <= SUPPORT_EIG_TOL
    if not np.any(kernel):
        return 0.0
    cols = dec_sigma.eigenvectors[:, kernel]
    return float(np.real(np.einsum("ia,ij,ja->", cols.conj(), rho, cols)))


def _entropy_terms(states: np.ndarray) -> np.ndarray:
    """Tr W_x log₂ W_x per input, restricted to each state's support."""
    spectra = [vals[vals > SUPPORT_EIG_TOL] for vals in npl.eigvalsh(states)]
    return np.array([float(np.sum(vals * np.log2(vals))) for vals in spectra])


def _divergences(states: np.ndarray, p: np.ndarray, target: np.ndarray,
                 tr_w_log_w: np.ndarray) -> np.ndarray:
    """D(W_x ‖ target) for every x, where target = W(p), from one eigh of it.

    The target's support is its eigenvectors with eigenvalue above
    SUPPORT_EIG_TOL, plus each eigenvector below it on which an input of
    positive mass puts weight above KERNEL_MASS_TOL. On those the
    eigenvalue is read as the Rayleigh quotient Σ_x p_x⟨a|W_x|a⟩, which
    W(p) ≥ p_x W_x keeps positive, so every input of positive mass has a
    finite divergence. An input of mass 0 with weight above
    KERNEL_MASS_TOL off the support reads +inf.
    """
    dec = eigh(target)
    support = dec.eigenvalues > SUPPORT_EIG_TOL
    cols = dec.eigenvectors[:, support]
    weights = np.real(np.einsum("ia,xij,ja->xa", cols.conj(), states, cols))
    cross = weights @ np.log2(dec.eigenvalues[support])
    div = tr_w_log_w - cross
    if not np.all(support):
        kcols = dec.eigenvectors[:, ~support]
        kweights = np.real(np.einsum("ia,xij,ja->xa", kcols.conj(), states, kcols))
        live = p > 0.0
        reached = np.any(kweights[live] > KERNEL_MASS_TOL, axis=0)
        if np.any(reached):
            rayleigh = p @ np.maximum(kweights[:, reached], 0.0)
            div = div - kweights[:, reached] @ np.log2(rayleigh)
        leak = np.sum(kweights[:, ~reached], axis=1)
        div = np.where(~live & (leak > KERNEL_MASS_TOL), math.inf, div)
    return div


def qrel_entropy(rho, sigma) -> float:
    """Relative entropy D(ρ‖σ) = Tr ρ(log ρ - log σ) in bits.

    Returns float('inf') when the support of ρ leaks outside the support
    of σ by more than the kernel-mass tolerance. This is the divergence
    vector's one-input case, with the input at mass 0.
    """
    r, s = _matrix_pair(rho, sigma, validate_density, validate_density)
    states = r[None]
    return float(_divergences(states, np.zeros(1), s, _entropy_terms(states))[0])


def mutual_info(channel: CQChannel, dist: Distribution) -> float:
    """Mutual information Σ_x p(x) D(W_x ‖ W(p)) of the joint state, in bits.

    All divergences come from one eigendecomposition of W(p), so an input
    of positive mass always has a finite one.
    """
    states = channel.states
    p = dist.masses
    div = _divergences(states, p, output_state(channel, dist), _entropy_terms(states))
    live = p > 0.0
    return float(np.sum(p[live] * div[live]))


def _power_on_support(vals: np.ndarray, vecs: np.ndarray, exponent: float,
                      scale: float = 1.0) -> np.ndarray:
    """U diag((λ/scale)^exponent) U† over the λ above SUPPORT_EIG_TOL, 0 elsewhere."""
    support = vals > SUPPORT_EIG_TOL
    powed = np.zeros_like(vals)
    powed[support] = (vals[support] / scale) ** exponent
    return (vecs * powed) @ vecs.conj().T


def _phi_general(s: float, rho: np.ndarray, sigma: np.ndarray) -> float | None:
    """log₂ Tr (σ^{s/2(1-s)} ρ σ^{s/2(1-s)})^{1-s} on σ's support.

    Returns None when ρ's support leaks outside σ's support (the caller maps
    this to the appropriate ±∞ sentinel). Valid for s in (-1, 1), s ≠ 0.
    σ's largest eigenvalue λ is factored out, φ = s·log₂λ + log₂ Tr
    ((σ/λ)^γ ρ (σ/λ)^γ)^{1-s} with γ = s/2(1-s): near s = 1, γ is huge and
    σ^γ underflows to zero, while the top block of (σ/λ)^γ stays 1.
    """
    dec_s = eigh(sigma)
    if _kernel_mass(rho, dec_s) > KERNEL_MASS_TOL:
        return None
    lam = float(dec_s.eigenvalues[0])  # eigh sorts descending
    half = _power_on_support(dec_s.eigenvalues, dec_s.eigenvectors,
                             s / (2.0 * (1.0 - s)), scale=lam)
    sandwich = hermitianize(half @ rho @ half)
    vals = npl.eigvalsh(sandwich)
    vals = np.clip(vals, 0.0, None)
    vals = vals[vals > 0.0]
    q = float(np.sum(vals ** (1.0 - s)))
    return s * math.log2(lam) + math.log2(q)


def phi(s: float, rho, sigma) -> float:
    """The Rényi exponent function φ(s|ρ‖σ) for s in (0, 1), in bits.

    φ(s|ρ‖ρ) = 0. Support violations return -inf, matching the convention
    that the corresponding divergence is +∞.
    """
    check_real("s", s, 0.0, 1.0, open_lo=True, open_hi=True)
    out = _phi_general(s, *_matrix_pair(rho, sigma, validate_density, validate_density))
    return -math.inf if out is None else out


def sandwiched_renyi(order: RenyiOrder, rho, sigma) -> float:
    """Sandwiched Rényi divergence D_α(ρ‖σ) = φ(-s|ρ‖σ)/s with s = α-1, in bits."""
    s = order.s
    out = _phi_general(-s, *_matrix_pair(rho, sigma, validate_density, validate_density))
    return math.inf if out is None else out / s


@dataclass(frozen=True)
class RenyiMutualInfo:
    """Minimized Rényi mutual information with its minimizer and iteration count."""

    value: float
    sigma: np.ndarray
    iterations: int
    converged: bool


def _floor_and_normalize(mixes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per matrix of a (r, d, d) stack: the eigenpairs of its Hermitian part in
    descending order, with the eigenvalues floored at SUPPORT_EIG_TOL and
    renormalized, and the matrix they make. eigh returns ascending
    eigenvalues, so reversing them sorts them as `linalg.eigh` does."""
    vals, vecs = npl.eigh(_check_hermitian(hermitianize(mixes)))
    vals = np.clip(vals[:, ::-1], SUPPORT_EIG_TOL, None)
    vals = vals / vals.sum(axis=-1, keepdims=True)
    vecs = vecs[..., ::-1]
    return vals, vecs, (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _renyi_sandwiches(alphas: tuple[float, ...], vals: np.ndarray, vecs: np.ndarray,
                      states: np.ndarray, masses: np.ndarray) -> tuple[list, list]:
    """The Rényi objective at each σ_j = U_j diag(vals_j) U_j† and the fixed point's proposal.

    With γ = (1−α_j)/(2α_j) and A_x = σ_j^γ W_x σ_j^γ over the given (live)
    letters, one batched eigh decomposes every A_x of every order. The
    objective is log₂(Σ_x p_x Tr A_x^α)/(α−1), and the proposal is
    Σ_x p_x A_x^α over its trace, or None when that trace is not positive.
    The powers are taken one order at a time, with a scalar exponent as in
    `_power_on_support`.
    """
    support = vals > SUPPORT_EIG_TOL
    powed = np.zeros_like(vals)
    for j, alpha in enumerate(alphas):
        powed[j, support[j]] = vals[j, support[j]] ** ((1.0 - alpha) / (2.0 * alpha))
    half = ((vecs * powed[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2))[:, None]
    a_vals, a_vecs = npl.eigh(hermitianize(half @ states @ half))
    a_vals = np.clip(a_vals, 0.0, None)
    for j, alpha in enumerate(alphas):
        a_vals[j] = masses[:, None] * a_vals[j] ** alpha
    acc = np.sum((a_vecs * a_vals[:, :, None, :]) @ np.swapaxes(a_vecs.conj(), -1, -2), axis=1)
    values, proposals = [], []
    for j, alpha in enumerate(alphas):
        total = float(np.sum(a_vals[j]))
        if total > 0.0:
            values.append(math.log2(total) / (alpha - 1.0))
            proposals.append(acc[j] / total)
        else:
            values.append(math.inf)
            proposals.append(None)
    return values, proposals


def _renyi_fixed_points(alphas: tuple[float, ...], channel: CQChannel,
                        dist: Distribution) -> list[RenyiMutualInfo]:
    """The damped fixed point of `renyi_mutual_info` for every order at once.

    The iterates of all orders still running form one (r, d, d) stack, so
    each iteration makes one batched eigh of the floored mixes, one batched
    eigvalsh of the steps and one batched eigh of the r×k sandwiches. Every
    order gets the bits it gets when run alone.
    """
    channel._check_alphabet(dist)
    live = dist.masses > 0.0
    states, masses = channel.states[live], dist.masses[live]
    r = len(alphas)
    start = _floor_and_normalize(output_state(channel, dist)[None])
    vals, vecs, sigma = (np.repeat(a, r, axis=0) for a in start)
    best, proposals = _renyi_sandwiches(alphas, vals, vecs, states, masses)
    best_sigma = [start[2][0]] * r
    iterations, converged = [0] * r, [False] * r
    running = list(range(r))
    for iteration in range(1, RENYI_MAX_ITER + 1):
        for j in running:
            iterations[j] = iteration
        running = [j for j in running if proposals[j] is not None]
        if not running:
            break
        rows = np.array(running)
        mixes = (1.0 - RENYI_DAMPING) * sigma[rows] \
            + RENYI_DAMPING * np.stack([proposals[j] for j in running])
        vals, vecs, nxt = _floor_and_normalize(mixes)
        steps = 0.5 * np.sum(np.abs(npl.eigvalsh(_check_hermitian(nxt - sigma[rows]))),
                             axis=-1)
        sigma[rows] = nxt
        values, fresh = _renyi_sandwiches(tuple(alphas[j] for j in running),
                                          vals, vecs, states, masses)
        for i, j in enumerate(running):
            proposals[j] = fresh[i]
            if values[i] < best[j]:
                best[j], best_sigma[j] = values[i], nxt[i]
            converged[j] = bool(steps[i] < RENYI_STEP_TOL)
        running = [j for j in running if not converged[j]]
    return [RenyiMutualInfo(float(best[j]), best_sigma[j], iterations[j], converged[j])
            for j in range(r)]


def renyi_mutual_info(order: RenyiOrder, channel: CQChannel,
                      dist: Distribution) -> RenyiMutualInfo:
    """Sandwiched Rényi mutual information I_α(X;B) of the joint state.

    The infimum over output states σ is approached by a damped fixed-point
    iteration; each iterate keeps full support by flooring eigenvalues at
    the support threshold and renormalizing, and is kept as the eigenpairs
    of that floor step. Each iteration then makes one batched eigh of the
    sandwiches σ^γ W_x σ^γ of the inputs of positive mass, which gives both
    the objective at σ and the next proposal. Returns the best value seen,
    the matching σ, the iteration count, and whether successive iterates
    came within RENYI_STEP_TOL in trace distance. This is the one-order
    case of `_renyi_fixed_points`, which runs several orders as one stack.
    The d = 2 grid search in the test suite is the correctness oracle for
    this heuristic.
    """
    return _renyi_fixed_points((order.alpha,), channel, dist)[0]


@dataclass(frozen=True)
class PinchingMap:
    """Complete family of orthogonal projectors; application deletes cross blocks."""

    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        if not self.projectors:
            raise ValidationError("a pinching map needs at least one block")
        dim = self.projectors[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for p in self.projectors:
            q = validate_hermitian(p)
            if q.shape[0] != dim:
                raise DimensionMismatchError("pinching blocks have mixed dimensions")
            if float(np.max(np.abs(q @ q - q))) > PINCH_COMPLETENESS_TOL:
                raise ValidationError("pinching block is not idempotent")
            total += q
        if float(np.max(np.abs(total - np.eye(dim)))) > PINCH_COMPLETENESS_TOL:
            raise ValidationError("pinching blocks do not sum to the identity")

    @property
    def num_blocks(self) -> int:
        return len(self.projectors)

    @property
    def dim(self) -> int:
        return int(self.projectors[0].shape[0])


def pinch(pmap: PinchingMap, op) -> np.ndarray:
    """Σ_b P_b X P_b: delete the off-diagonal blocks of X."""
    m = as_matrix(op)
    if m.shape[0] != pmap.dim:
        raise DimensionMismatchError(f"operator dim {m.shape[0]} vs map dim {pmap.dim}")
    out = np.zeros_like(m)
    for p in pmap.projectors:
        out += p @ m @ p
    return out


def pinching_from_spectrum(sigma) -> PinchingMap:
    """Pinching onto the degeneracy blocks of a Hermitian operator's spectrum.

    The block count equals the number of distinct eigenvalues at the
    grouping tolerance.
    """
    dec = eigh(sigma)
    return PinchingMap(tuple(hermitianize(p) for p in dec.block_projectors()))
