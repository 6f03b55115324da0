"""Relative entropy, mutual information, Rényi quantities, and pinching.

All logarithms are base 2. Eigenvalues below the support threshold are
treated as zero wherever divergences are computed; infinite divergences are
returned as the float infinity sentinel, never as an overflow.

Two spectral kernels live here and nowhere else. `_divergences` gives
D(W_x‖W(p)) for every input of every row of a stack of channels, from one
batched eigendecomposition of the W(p), its support rule masks over the
stack; relative entropy and mutual information read it as one row, the
capacity ascents and the fixed-input rate as many. `_renyi_sandwiches`
decomposes every A_x = σ^γ W_x σ^γ of every order in one batched eigh and
gives the Rényi fixed point both its objective and its next proposal;
`_renyi_fixed_points` runs that fixed point for all orders as one stack, and
keeps the last RENYI_MEMO_ENTRIES results in-process, keyed on the bytes of
the states, the law and the orders. The stack carries no per-order
bookkeeping beyond the floating-point steps: the powers σ^γ of all running
orders are one np.power with a column of exponents, the proposals are one
stacked array, an order leaves the stack when it converges, and the floor
step tests its Hermitian part for finiteness only, as a Hermitian part is
Hermitian bit for bit.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import numpy.linalg as npl

from .channel import CQChannel, Distribution, output_state
from .errors import DimensionMismatchError, ValidationError, check_real
from .linalg import (_check_finite, _check_hermitian, _matrix_pair, as_matrix, eigh,
                     hermitianize, validate_density)

SUPPORT_EIG_TOL = 1e-12
KERNEL_MASS_TOL = 1e-10
PINCH_COMPLETENESS_TOL = 1e-9
RENYI_MAX_ITER = 500
RENYI_DAMPING = 0.5
RENYI_STEP_TOL = 1e-10
# Fixed points kept in-process by `_renyi_fixed_points`: a command, a pass of
# commands or a sweep over n reuses one channel, law and order list.
RENYI_MEMO_ENTRIES = 16


@dataclass(frozen=True)
class RenyiOrder:
    """Rényi order α in (1, 2], equivalently s = α - 1 in (0, 1]."""

    alpha: float

    def __post_init__(self):
        check_real("order", self.alpha, 1.0, 2.0, open_lo=True)

    @property
    def s(self) -> float:
        return self.alpha - 1.0


def _kernel_masses(rotated: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """The weight of each matrix U†AU of a stack on the eigenvectors of eigenvalue
    at or below SUPPORT_EIG_TOL: its diagonal entries there, summed."""
    return np.real(np.diagonal(rotated, axis1=-2, axis2=-1)[..., vals <= SUPPORT_EIG_TOL]
                   .sum(axis=-1))


def _entropy_terms(states: np.ndarray) -> np.ndarray:
    """Tr W_x log₂ W_x per input, restricted to each state's support."""
    vals = npl.eigvalsh(states)
    on = vals > SUPPORT_EIG_TOL
    return np.add.reduce(np.where(on, vals * np.log2(np.where(on, vals, 1.0)), 0.0), axis=1)


def _divergences(states: np.ndarray, p: np.ndarray, targets: np.ndarray,
                 tr_w_log_w: np.ndarray) -> np.ndarray:
    """D(W_x ‖ target) for every row and input: states (r, k, d, d), p and
    tr_w_log_w (r, k), targets W(p) (r, d, d); a row's bits do not depend on
    the other rows. The target's support is its eigenvectors with eigenvalue
    above SUPPORT_EIG_TOL, plus each eigenvector below it on which an input
    of positive mass puts weight above KERNEL_MASS_TOL. On those the
    eigenvalue is read as the Rayleigh quotient Σ_x p_x⟨a|W_x|a⟩, which
    W(p) ≥ p_x W_x keeps positive, so every input of positive mass has a
    finite divergence; a level below it that no such input reaches adds
    log₂ 1 = 0. An input of mass 0 with weight above KERNEL_MASS_TOL off the
    support reads +inf. These rules are masks over the whole stack, formed
    only when some row has a level at or below SUPPORT_EIG_TOL.

    Every caller's W(p) mixes states checked Hermitian at the boundary, so it
    is Hermitian within their tolerance: of `_check_hermitian` only the
    finiteness test can fail here, and only it runs.
    """
    vals, vecs = npl.eigh(_check_finite(targets))
    order = np.argsort(vals)[:, ::-1]
    rows = np.arange(len(vals))[:, None]
    # vecs[r, a], eigenvector a of row r, sits in memory as one matrix's
    # descending eigenvector columns do; einsum sums in memory order.
    vals, vecs = vals[rows, order], vecs[rows, :, order]
    weights = np.real(np.einsum("rai,rxij,raj->rxa", vecs.conj(), states, vecs))
    logs, kernel, leaks = np.log2(np.maximum(vals, SUPPORT_EIG_TOL)), vals <= SUPPORT_EIG_TOL, False
    if kernel.any():
        live = p > 0.0
        reached = kernel & np.any(live[..., None] & (weights > KERNEL_MASS_TOL), axis=1)
        logs[kernel] = 0.0
        np.log2((p[:, None] @ np.maximum(weights, 0.0))[:, 0], out=logs, where=reached)
        leaks = ~live & (np.sum(weights * (kernel & ~reached)[:, None], axis=-1) > KERNEL_MASS_TOL)
    return np.where(leaks, math.inf, tr_w_log_w - (weights @ logs[..., None])[..., 0])


def qrel_entropy(rho, sigma) -> float:
    """Relative entropy D(ρ‖σ) = Tr ρ(log ρ - log σ) in bits.

    Returns float('inf') when the support of ρ leaks outside the support
    of σ by more than the kernel-mass tolerance. This is the divergence
    vector's one-input case, with the input at mass 0.
    """
    r, s = _matrix_pair(rho, sigma, validate_density, validate_density)
    return float(_divergences(r[None, None], np.zeros((1, 1)), s[None],
                              _entropy_terms(r[None])[None])[0, 0])


def mutual_info(channel: CQChannel, dist: Distribution) -> float:
    """Mutual information Σ_x p(x) D(W_x ‖ W(p)) of the joint state, in bits.

    All divergences come from one eigendecomposition of W(p), so an input
    of positive mass always has a finite one. A point mass gives exactly 0.
    """
    states = channel.states
    p = dist.masses
    div = _divergences(states[None], p[None], output_state(channel, dist)[None],
                       _entropy_terms(states)[None])
    return float(_information(p[None], div)[0])


def _information(p: np.ndarray, div: np.ndarray) -> np.ndarray:
    """Σ_x p_x D_x over the inputs of positive mass, for each row of (r, k) masses
    and divergences: I(X;B) from the divergence vector. A point mass gives
    exactly 0: a deterministic X shares nothing with B."""
    live = p > 0.0
    total = np.add.reduce(p * np.where(live, div, 0.0), axis=1)
    total[np.add.reduce(live, axis=1) == 1] = 0.0
    return total


def _phi_general(s: float, rho: np.ndarray, sigma: np.ndarray) -> float | None:
    """log₂ Tr (σ^{s/2(1-s)} ρ σ^{s/2(1-s)})^{1-s} on σ's support.

    Returns None when ρ's support leaks outside σ's support (the caller maps
    this to the appropriate ±∞ sentinel). Valid for s in (-1, 1), s ≠ 0.
    σ's largest eigenvalue λ is factored out, φ = s·log₂λ + log₂ Tr
    ((σ/λ)^γ ρ (σ/λ)^γ)^{1-s} with γ = s/2(1-s), and the sandwich is formed
    in σ's eigenbasis U as h_i (U†ρU)_ij h_j with h = (λ_i/λ)^γ on the
    support, 0 off it: each entry keeps its relative precision however far
    the h_i spread, where a dense U diag(h) U† would lose the small ones.
    """
    dec_s = eigh(sigma)
    vals, u = dec_s.eigenvalues, dec_s.eigenvectors
    rotated = u.conj().T @ rho @ u
    if _kernel_masses(rotated, vals) > KERNEL_MASS_TOL:
        return None
    lam = float(vals[0])  # eigh sorts descending
    support = vals > SUPPORT_EIG_TOL
    h = np.zeros_like(vals)
    h[support] = (vals[support] / lam) ** (s / (2.0 * (1.0 - s)))
    mu = npl.eigvalsh(hermitianize(h[:, None] * rotated * h))
    q = float(np.sum(mu[mu > 0.0] ** (1.0 - s)))
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
    eigenvalues, so reversing them sorts them as `linalg.eigh` does.

    A Hermitian part is Hermitian bit for bit in IEEE arithmetic (entry
    (j, i) is the conjugate of entry (i, j) as computed), so of
    `_check_hermitian` only its finiteness test can fail, and only it runs.
    """
    vals, vecs = npl.eigh(_check_finite(hermitianize(mixes)))
    vals = np.maximum(vals[:, ::-1], SUPPORT_EIG_TOL)
    vals = vals / vals.sum(axis=-1, keepdims=True)
    vecs = vecs[..., ::-1]
    return vals, vecs, (vecs * vals[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2)


def _renyi_sandwiches(alphas: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                      states: np.ndarray, masses: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Rényi objective at each σ_j = U_j diag(vals_j) U_j† and the fixed point's proposal.

    With γ = (1−α_j)/(2α_j) and A_x = σ_j^γ W_x σ_j^γ over the given (live)
    letters, one batched eigh decomposes every A_x of every order. The
    objective is log₂(Σ_x p_x Tr A_x^α)/(α−1), and the proposal is
    Σ_x p_x A_x^α over its trace; the third array marks the orders whose
    trace is positive, and an order without one has objective +inf. The
    powers σ^γ of all orders are one np.power with a column of exponents,
    as each entry's bits do not depend on its neighbours; the powers A^α
    are taken one order at a time, with a scalar exponent, since α = 2 is
    numpy's square.
    """
    support = vals > SUPPORT_EIG_TOL
    powed = np.zeros_like(vals)
    np.power(vals, ((1.0 - alphas) / (2.0 * alphas))[:, None], out=powed, where=support)
    half = ((vecs * powed[:, None, :]) @ np.swapaxes(vecs.conj(), -1, -2))[:, None]
    a_vals, a_vecs = npl.eigh(hermitianize(half @ states @ half))
    a_vals = np.maximum(a_vals, 0.0)
    orders = alphas.tolist()
    for j, alpha in enumerate(orders):
        a_vals[j] = masses[:, None] * a_vals[j] ** alpha
    acc = np.sum((a_vecs * a_vals[:, :, None, :]) @ np.swapaxes(a_vecs.conj(), -1, -2), axis=1)
    totals = a_vals.reshape(-1, a_vals.shape[1] * a_vals.shape[2]).sum(axis=1)
    alive = totals > 0.0
    values = np.array([math.log2(total) / (alpha - 1.0) if total > 0.0 else math.inf
                       for total, alpha in zip(totals.tolist(), orders)])
    return values, acc / np.where(alive, totals, 1.0)[:, None, None], alive


def _renyi_fixed_points(alphas: tuple[float, ...], channel: CQChannel,
                        dist: Distribution) -> list[RenyiMutualInfo]:
    """The damped fixed point of `renyi_mutual_info` for every order at once.

    The alphabets are checked on every call. The results are memoized in
    `_renyi_memo`, keyed on the orders and the exact bytes of the states and
    the masses, not on the labels, which the value does not read; every call
    gets σ arrays of its own.
    """
    channel._check_alphabet(dist)
    states, masses = channel.states, dist.masses
    found = _renyi_memo(tuple(alphas), states.shape, states.tobytes(), masses.tobytes())
    return [replace(info, sigma=info.sigma.copy()) for info in found]


@functools.lru_cache(maxsize=RENYI_MEMO_ENTRIES)
def _renyi_memo(alphas: tuple[float, ...], shape: tuple[int, ...], states: bytes,
                masses: bytes) -> tuple[RenyiMutualInfo, ...]:
    """`_renyi_stack` of the states and masses given as the bytes of their arrays."""
    return tuple(_renyi_stack(alphas, np.frombuffer(states, dtype=complex).reshape(shape),
                              np.frombuffer(masses, dtype=float)))


def _renyi_stack(alphas: tuple[float, ...], states: np.ndarray,
                 masses: np.ndarray) -> list[RenyiMutualInfo]:
    """The damped fixed point for every order at once, on (k, d, d) states and k masses.

    The iterates of all orders still running form one (r, d, d) stack, so
    each iteration makes one batched eigh of the floored mixes, one batched
    eigvalsh of the steps and one batched eigh of the r×k sandwiches. An
    order leaves the stack when it converges or its proposal has no
    positive trace. Every order gets the bits it gets when run alone.
    """
    # W(p) as `output_state` forms it, over every letter
    start = _floor_and_normalize(np.einsum("x,xij->ij", masses, states)[None])
    live = masses > 0.0
    states, masses = states[live], masses[live]
    r = len(alphas)
    vals, vecs, sigma = (np.repeat(a, r, axis=0) for a in start)
    orders = np.array(alphas, dtype=float)
    best, proposals, alive = _renyi_sandwiches(orders, vals, vecs, states, masses)
    best_sigma = sigma.copy()
    iterations, converged = np.zeros(r, dtype=int), np.zeros(r, dtype=bool)
    # the order of each row of sigma, proposals and alive
    rows = np.arange(r)
    for iteration in range(1, RENYI_MAX_ITER + 1):
        iterations[rows] = iteration
        if not alive.all():
            rows, sigma, proposals = rows[alive], sigma[alive], proposals[alive]
        if not rows.size:
            break
        mixes = (1.0 - RENYI_DAMPING) * sigma + RENYI_DAMPING * proposals
        vals, vecs, nxt = _floor_and_normalize(mixes)
        steps = 0.5 * np.sum(np.abs(npl.eigvalsh(_check_hermitian(nxt - sigma))), axis=-1)
        values, proposals, alive = _renyi_sandwiches(orders[rows], vals, vecs, states, masses)
        better = values < best[rows]
        best[rows[better]] = values[better]
        best_sigma[rows[better]] = nxt[better]
        done = steps < RENYI_STEP_TOL
        converged[rows] = done
        sigma = nxt
        if done.any():
            rows, sigma, proposals, alive = (a[~done] for a in (rows, sigma, proposals, alive))
    return [RenyiMutualInfo(float(best[j]), best_sigma[j], int(iterations[j]),
                            bool(converged[j])) for j in range(r)]


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
        """Each block Hermitian with Q² = Q, and the blocks summing to I, entrywise
        within PINCH_COMPLETENESS_TOL. A diagonal block is checked on its
        diagonal, where A − A†, Q² − Q and the sum have all their nonzero
        entries: as a (d, 1, 1) stack, its Hermiticity gap is |2·Im qᵢᵢ|."""
        if not self.projectors:
            raise ValidationError("a pinching map needs at least one block")
        dim = self.projectors[0].shape[0]
        diagonal_sum, off_diagonal_sum = np.zeros(dim, dtype=complex), None
        for p in self.projectors:
            q = as_matrix(p)
            diagonal = np.diagonal(q)
            is_diagonal = np.count_nonzero(q) == np.count_nonzero(diagonal)
            _check_hermitian(diagonal[:, None, None] if is_diagonal else q[None])
            if q.shape[0] != dim:
                raise DimensionMismatchError("pinching blocks have mixed dimensions")
            if is_diagonal:
                excess = diagonal * diagonal - diagonal
            else:
                excess = q @ q - q
                if off_diagonal_sum is None:
                    off_diagonal_sum = np.zeros_like(q)
                off_diagonal_sum += q
            if float(np.max(np.abs(excess))) > PINCH_COMPLETENESS_TOL:
                raise ValidationError("pinching block is not idempotent")
            diagonal_sum += diagonal
        deviation = np.abs(diagonal_sum - 1.0)
        if off_diagonal_sum is not None:
            np.fill_diagonal(off_diagonal_sum, 0.0)
            deviation = np.append(deviation, np.abs(off_diagonal_sum))
        if float(np.max(deviation)) > PINCH_COMPLETENESS_TOL:
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
