"""Independent reference implementations used to pin expected test values.

Nothing in this file imports the package's numerics. Every function is a
direct, brute-force, or closed-form evaluation of the quantity it names,
kept deliberately separate from the library's algorithms: singular values
instead of the library's Hermitian decomposition for norms, explicit
enumeration instead of vectorized batching, classical formulas for
commuting cases, and dense grid searches where the library iterates.

Some functions here left the package because no command reads them; they
keep their argument checks, from `cqresolve.errors`, so their tests still
see the package's exception types.
"""
from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from cqresolve.errors import (DimensionMismatchError, ResourceLimitError, ValidationError,
                              check_positive_int, check_real)


# ---------------------------------------------------------------------------
# classical probability


def entropy_bits(p) -> float:
    p = np.asarray(p, dtype=float)
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def kl_bits(p, q) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    total = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0:
            continue
        if qi <= 0:
            return math.inf
        total += pi * math.log2(pi / qi)
    return total


def classical_renyi_div(p, q, alpha: float) -> float:
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    acc = 0.0
    for pi, qi in zip(p, q):
        if pi <= 0:
            continue
        if qi <= 0:
            return math.inf
        acc += pi ** alpha * qi ** (1.0 - alpha)
    return math.log2(acc) / (alpha - 1.0)


def commuting_phi(rho_diag, sigma_diag, s: float) -> float:
    """log2 Σ ρ_i^{1-s} σ_i^s on the common support (s in (-1,1), s != 0)."""
    acc = 0.0
    for r, g in zip(np.asarray(rho_diag, float), np.asarray(sigma_diag, float)):
        if r <= 0:
            continue
        if g <= 0:
            return -math.inf
        acc += r ** (1.0 - s) * g ** s
    return math.log2(acc)


def binary_entropy_ref(e: float) -> float:
    """h(e) in bits, with 0·log(1/0) = 0, for e in [0, 1]."""
    check_real("e", e, 0.0, 1.0)
    out = 0.0
    for t in (e, 1.0 - e):
        if t > 0:
            out -= t * math.log2(t)
    return out


# ---------------------------------------------------------------------------
# matrix norms via singular values (independent of any eigh path)


def trace_norm_svd(a) -> float:
    return float(np.sum(np.linalg.svd(np.asarray(a, dtype=complex),
                                      compute_uv=False)))


def half_trace_distance_svd(a, b) -> float:
    return 0.5 * trace_norm_svd(np.asarray(a, complex) - np.asarray(b, complex))


# ---------------------------------------------------------------------------
# Hermitian eigendecomposition by Jacobi rotations (no LAPACK eigensolver)


class JacobiDecomposition(NamedTuple):
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def jacobi_eigh(op, rel_tol: float = 1e-13, max_sweeps: int = 60) -> JacobiDecomposition:
    """Cyclic Jacobi eigendecomposition of a Hermitian matrix, eigenvalues descending.

    Rotations sweep the strict upper triangle until the off-diagonal Frobenius
    norm falls below rel_tol times the Frobenius norm of the input; no LAPACK
    eigensolver is involved.
    """
    m = np.asarray(op, dtype=complex)
    d = m.shape[0]
    a = m.copy()
    u = np.eye(d, dtype=complex)
    target = rel_tol * max(float(np.linalg.norm(m)), np.finfo(float).tiny)

    def offdiag(x: np.ndarray) -> float:
        return float(np.linalg.norm(x - np.diag(np.diag(x))))

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
                theta = np.pi / 4 if app == aqq else 0.5 * np.arctan2(2 * r, app - aqq)
                c = np.cos(theta)
                s = np.sin(theta)
                # Columns: [p q] <- [p q] @ J with J = [[c, -s*phase], [s*conj(phase), c]];
                # rows: [p q] <- J^dagger @ [p q].
                col_p = a[:, p] * c + a[:, q] * s * np.conj(phase)
                col_q = -a[:, p] * s * phase + a[:, q] * c
                a[:, p] = col_p
                a[:, q] = col_q
                row_p = c * a[p, :] + s * phase * a[q, :]
                row_q = -s * np.conj(phase) * a[p, :] + c * a[q, :]
                a[p, :] = row_p
                a[q, :] = row_q
                vcol_p = u[:, p] * c + u[:, q] * s * np.conj(phase)
                vcol_q = -u[:, p] * s * phase + u[:, q] * c
                u[:, p] = vcol_p
                u[:, q] = vcol_q
    vals = np.real(np.diag(a))
    order = np.argsort(vals)[::-1]
    return JacobiDecomposition(vals[order], u[:, order])


# ---------------------------------------------------------------------------
# classical channels (row-stochastic matrices T[x, y])


def classical_output(T, p) -> np.ndarray:
    return np.asarray(p, float) @ np.asarray(T, float)


def classical_mutual_info(T, p) -> float:
    T = np.asarray(T, float)
    p = np.asarray(p, float)
    out = classical_output(T, p)
    total = 0.0
    for x in range(T.shape[0]):
        if p[x] <= 0:
            continue
        total += p[x] * kl_bits(T[x], out)
    return total


def classical_mutual_infos(T, Q) -> np.ndarray:
    """classical_mutual_info(T, q) for every row q of Q, in one array expression."""
    T = np.asarray(T, float)
    Q = np.asarray(Q, float)
    out = Q @ T
    with np.errstate(divide="ignore"):
        logs = np.log2(T[None, :, :] / out[:, None, :])
    kl = np.sum(np.where(T > 0, T * logs, 0.0), axis=2)
    return np.sum(np.where(Q > 0, Q * kl, 0.0), axis=1)


# ---------------------------------------------------------------------------
# cq channel capacity by the plain (unaccelerated) multiplicative ascent


def neg_entropies(states) -> np.ndarray:
    """Tr W_x log₂ W_x for every x, over eigenvalues above 1e-12."""
    return np.array([-entropy_bits(v[v > 1e-12])
                     for v in map(np.linalg.eigvalsh, np.asarray(states, dtype=complex))])


def output_divergences(states, p, tr_w_log_w) -> np.ndarray:
    """D(W_x‖W(p)) for every x, one eigendecomposition of W(p).

    W(p)'s support is its eigenvalues above 1e-12, plus each eigenvector
    below it on which an input of positive mass puts weight above 1e-10,
    with ⟨a|W(p)|a⟩ as its eigenvalue there. An input of mass 0 with weight
    above 1e-10 off that support has D = +inf.
    """
    states = np.asarray(states, dtype=complex)
    p = np.asarray(p, float)
    s_vals, s_vecs = np.linalg.eigh(np.einsum("x,xij->ij", p, states))
    weights = np.real(np.einsum("ia,xij,ja->xa", s_vecs.conj(), states, s_vecs))
    on = s_vals > 1e-12
    if on.all():
        return tr_w_log_w - weights @ np.log2(s_vals)
    reached = ~on & np.any(weights[p > 0] > 1e-10, axis=0)
    s_vals = np.where(reached, p @ np.clip(weights, 0.0, None), s_vals)
    on |= reached
    div = tr_w_log_w - weights[:, on] @ np.log2(s_vals[on])
    div[(p <= 0) & (weights[:, ~on].sum(axis=1) > 1e-10)] = math.inf
    return div


def capacity_gap(states, p) -> tuple[float, float]:
    """(I(X;B), max_x D(W_x‖W(p)) − I(X;B)) at the input law p."""
    p = np.asarray(p, float)
    div = output_divergences(states, p, neg_entropies(states))
    info = float(sum(px * dx for px, dx in zip(p, div) if px > 0))
    return info, float(div.max() - info)


class AscentResult(NamedTuple):
    value: float
    gap: float
    steps: int
    p: np.ndarray


def plain_capacity_ascent(states, tol: float, max_steps: int = 100000) -> AscentResult:
    """p_x ← p_x·2^{D(W_x‖W(p))} from the uniform law, masses below 1e-15 pruned.

    Stops at the first p whose gap max_x D − I is at most tol; ``steps``
    counts the points evaluated, the last one included.
    """
    states = np.asarray(states, dtype=complex)
    tr_w_log_w = neg_entropies(states)
    p = np.full(len(states), 1.0 / len(states))
    for step in range(1, max_steps + 1):
        div = output_divergences(states, p, tr_w_log_w)
        live = p > 0
        info = float(np.sum(p[live] * div[live]))
        gap = float(div.max() - info)
        if gap <= tol:
            return AscentResult(info, gap, step, p)
        nxt = np.zeros_like(p)
        nxt[live] = p[live] * np.exp2(div[live] - div[live].max())
        nxt /= nxt.sum()
        nxt[nxt < 1e-15] = 0.0
        p = nxt / nxt.sum()
    raise RuntimeError(f"plain ascent gap {gap:.3e} > {tol:.3e} after {max_steps} steps")


@functools.lru_cache(maxsize=None)
def _simplex_counts(k: int, total: int) -> tuple:
    if k == 1:
        return ((total,),)
    rows = []
    for c in range(total + 1):
        for rest in _simplex_counts(k - 1, total - c):
            rows.append((c,) + rest)
    return tuple(rows)


@functools.lru_cache(maxsize=None)
def simplex_grid(k: int, denominator: int) -> np.ndarray:
    """All distributions on k letters with masses that are multiples of 1/den.

    The array is cached and read-only.
    """
    grid = np.asarray(_simplex_counts(k, denominator), dtype=float) / denominator
    grid.setflags(write=False)
    return grid


def fixed_rate_grid_search(T, p, denominator: int, slack: float) -> float:
    """min I(q) over grid q with ||T(q) - T(p)||_1 <= slack (brute force)."""
    T = np.asarray(T, float)
    grid = simplex_grid(T.shape[0], denominator)
    target = classical_output(T, p)
    outs = grid @ T
    feas = np.sum(np.abs(outs - target), axis=1) <= slack
    best = math.inf
    for q in grid[feas]:
        best = min(best, classical_mutual_info(T, q))
    return best


def fixed_rate_projected_grid(T, p, denominator: int = 50,
                              pre_slack: float = 0.08,
                              n_descend: int = 40) -> float:
    """min I(q) subject to T(q) = T(p) exactly, via grid seeding.

    Grid points near the feasible polytope are projected onto it exactly
    (alternating projections between the affine output-match set and the
    positive orthant), then walked downhill to a vertex: I is concave in q,
    so along any feasible line the minimum sits at an endpoint.  Entirely
    independent of any polytope vertex enumeration.
    """
    T = np.asarray(T, float)
    k = T.shape[0]
    target = classical_output(T, p)
    A = np.vstack([T.T, np.ones((1, k))])
    b = np.concatenate([target, [1.0]])
    A_pinv = np.linalg.pinv(A)
    # null-space directions of the constraint map
    _, sv, vt = np.linalg.svd(A)
    nnz = int(np.sum(sv > 1e-11 * sv[0])) if sv.size else 0
    null_dirs = vt[nnz:]
    grid = simplex_grid(k, denominator)
    near = grid[np.sum(np.abs(grid @ T - target), axis=1) <= pre_slack]
    if near.size == 0:
        near = np.asarray(p, float)[None, :]
    # alternating projections: affine set <-> positive orthant; a row stops
    # once its own residual is below 1e-12
    Q = near.copy()
    active = np.ones(Q.shape[0], dtype=bool)
    for _ in range(400):
        R = Q[active]
        R = np.maximum(R - (R @ A.T - b) @ A_pinv.T, 0.0)
        Q[active] = R
        active[active] = np.max(np.abs(R @ A.T - b), axis=1) >= 1e-12
        if not active.any():
            break
    resid = np.max(np.abs(Q @ A.T - b), axis=1)
    Q = Q[resid <= 1e-9]
    if Q.shape[0] == 0:
        Q = np.asarray(p, float)[None, :]
    vals = classical_mutual_infos(T, Q)
    order = np.argsort(vals)[:n_descend]
    best = float(vals[order[0]]) if order.size else math.inf

    def descend(q):
        val = classical_mutual_info(T, q)
        for _ in range(200):
            improved = False
            for d in null_dirs:
                for sgn in (1.0, -1.0):
                    step = sgn * d
                    with np.errstate(divide="ignore"):
                        ratios = np.where(step < -1e-14, q / -step, math.inf)
                    t = float(np.min(ratios))
                    if not math.isfinite(t) or t <= 1e-13:
                        continue
                    cand = np.maximum(q + t * step, 0.0)
                    cval = classical_mutual_info(T, cand)
                    if cval < val - 1e-12:
                        q, val, improved = cand, cval, True
            if not improved:
                break
        return val

    for idx in order:
        best = min(best, descend(Q[idx].copy()))
    return best


def sibson_renyi_mi(T, q, alpha: float) -> float:
    """Classical order-α mutual information: (α/(α−1)) log Σ_y (Σ_x q T^α)^{1/α}."""
    T = np.asarray(T, float)
    q = np.asarray(q, float)
    inner = np.sum(q[:, None] * T ** alpha, axis=0) ** (1.0 / alpha)
    return (alpha / (alpha - 1.0)) * math.log2(float(np.sum(inner)))


# ---------------------------------------------------------------------------
# quantum Renyi mutual information, d = 2 brute force over the Bloch ball


def bloch_grid_renyi_mi(states, masses, alpha: float, step: float = 0.02) -> float:
    """min over Bloch-ball grid σ of (1/(α−1)) log Σ q(x)‖σ^e W_x σ^e‖_α^α.

    Every grid point strictly inside the ball (|r| ≤ 1 − 1e-9, smallest
    eigenvalue ≥ 1e-9) is evaluated: one batched eigh over the grid, then one
    batched eigvalsh per letter.
    """
    masses = np.asarray(masses, float)
    exp = (1.0 - alpha) / (2.0 * alpha)
    axis = np.arange(-1.0, 1.0 + step / 2, step)
    x, y, z = (g.ravel() for g in np.meshgrid(axis, axis, axis, indexing="ij"))
    inside = x * x + y * y + z * z <= (1.0 - 1e-9) ** 2
    x, y, z = x[inside], y[inside], z[inside]
    sigma = 0.5 * np.array([[1.0 + z, x - 1j * y],
                            [x + 1j * y, 1.0 - z]]).transpose(2, 0, 1)
    vals, vecs = np.linalg.eigh(sigma)
    keep = vals[:, 0] >= 1e-9
    vals, vecs = vals[keep], vecs[keep]
    half = (vecs * vals[:, None, :] ** exp) @ vecs.conj().transpose(0, 2, 1)
    total = np.zeros(len(vals))
    for w, mass in zip(states, masses):
        if mass <= 0:
            continue
        sand = half @ np.asarray(w, complex) @ half
        sand = (sand + sand.conj().transpose(0, 2, 1)) / 2
        ev = np.linalg.eigvalsh(sand)
        total += mass * np.sum(np.clip(ev, 0, None) ** alpha, axis=1)
    return float(np.min(np.log2(total))) / (alpha - 1.0)


# ---------------------------------------------------------------------------
# quantum Renyi mutual information, the damped fixed point letter by letter


class RenyiFixedPoint(NamedTuple):
    value: float
    iterations: int
    converged: bool


def renyi_fixed_point(states, masses, alpha: float, max_iter: int = 500,
                      damping: float = 0.5, step_tol: float = 1e-10) -> RenyiFixedPoint:
    """The damped fixed point for I_α(X;B), one eigendecomposition per letter.

    σ starts at W(p) and every iterate has its eigenvalues floored at 1e-12
    and renormalized. From σ, with A_x = σ^γ W_x σ^γ and γ = (1−α)/(2α)
    over the eigenvalues above 1e-12, the proposal is Σ_x p_x A_x^α over its
    trace; the next σ is the floored mix (1 − damping)σ + damping·proposal.
    The objective log₂(Σ_x p_x Tr A_x^α)/(α−1) is recomputed from a fresh
    decomposition of each new σ, and the least value seen is returned. It
    stops when σ moves less than step_tol in trace distance (converged) or
    after max_iter iterations.
    """
    states = np.asarray(states, dtype=complex)
    masses = np.asarray(masses, float)
    live = [(w, float(m)) for w, m in zip(states, masses) if m > 0]
    gamma = (1.0 - alpha) / (2.0 * alpha)

    def floored(m):
        vals, vecs = np.linalg.eigh((m + m.conj().T) / 2)
        vals = np.clip(vals, 1e-12, None)
        vals = vals / vals.sum()
        return (vecs * vals) @ vecs.conj().T

    def half_power(sigma):
        vals, vecs = np.linalg.eigh(sigma)
        powed = np.zeros_like(vals)
        powed[vals > 1e-12] = vals[vals > 1e-12] ** gamma
        return (vecs * powed) @ vecs.conj().T

    def sandwich_eigh(half, w):
        a = half @ w @ half
        vals, vecs = np.linalg.eigh((a + a.conj().T) / 2)
        return np.clip(vals, 0.0, None) ** alpha, vecs

    def objective(sigma):
        half = half_power(sigma)
        total = sum(m * float(np.sum(sandwich_eigh(half, w)[0])) for w, m in live)
        return math.log2(total) / (alpha - 1.0)

    sigma = floored(np.einsum("x,xij->ij", masses, states))
    best = objective(sigma)
    iterations, converged = 0, False
    for iterations in range(1, max_iter + 1):
        half = half_power(sigma)
        acc = np.zeros_like(sigma)
        for w, m in live:
            powed, vecs = sandwich_eigh(half, w)
            acc = acc + m * ((vecs * powed) @ vecs.conj().T)
        tr = float(np.real(np.trace(acc)))
        if tr <= 0.0:
            break
        nxt = floored((1.0 - damping) * sigma + damping * acc / tr)
        step = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(nxt - sigma))))
        sigma = nxt
        best = min(best, objective(sigma))
        if step < step_tol:
            converged = True
            break
    return RenyiFixedPoint(best, iterations, converged)


class RenyiIterate(NamedTuple):
    value: float
    sigma: np.ndarray
    iterations: int
    converged: bool


def renyi_fixed_point_one_order(states, masses, alpha: float, max_iter: int = 500,
                                damping: float = 0.5, step_tol: float = 1e-10,
                                floor: float = 1e-12) -> RenyiIterate:
    """The iteration of `renyi_fixed_point` with the floating-point steps of
    the library's one-order loop, the reference for its stacked kernel bit
    for bit.

    Each floored iterate is kept as its eigenpairs in descending order, and
    its half power is taken on them. One batched eigh of the sandwiches of
    the letters of positive mass gives both the objective at σ and the next
    proposal; the step is half the sum of |eigvalsh(next − σ)|. Returns the
    least value seen with its σ, the iteration count and whether a step fell
    below step_tol.
    """
    states = np.asarray(states, dtype=complex)
    masses = np.asarray(masses, dtype=float)
    live_states, live_masses = states[masses > 0], masses[masses > 0]

    def hermitian(a):
        return (a + np.swapaxes(a.conj(), -1, -2)) / 2

    def floored(m):
        vals, vecs = np.linalg.eigh(hermitian(m))
        vals, vecs = np.clip(vals[::-1], floor, None), vecs[:, ::-1]
        vals = vals / vals.sum()
        return vals, vecs, (vecs * vals) @ vecs.conj().T

    def objective_and_proposal(vals, vecs):
        powed = np.zeros_like(vals)
        powed[vals > floor] = vals[vals > floor] ** ((1.0 - alpha) / (2.0 * alpha))
        half = (vecs * powed) @ vecs.conj().T
        a_vals, a_vecs = np.linalg.eigh(hermitian(half @ live_states @ half))
        weights = live_masses[:, None] * np.clip(a_vals, 0.0, None) ** alpha
        total = float(np.sum(weights))
        if not total > 0.0:
            return math.inf, None
        acc = np.sum((a_vecs * weights[:, None, :]) @ np.swapaxes(a_vecs.conj(), -1, -2),
                     axis=0)
        return math.log2(total) / (alpha - 1.0), acc / total

    vals, vecs, sigma = floored(np.einsum("x,xij->ij", masses, states))
    best, proposal = objective_and_proposal(vals, vecs)
    best_sigma, iterations, converged = sigma, 0, False
    for iterations in range(1, max_iter + 1):
        if proposal is None:
            break
        vals, vecs, nxt = floored((1.0 - damping) * sigma + damping * proposal)
        step = 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(nxt - sigma))))
        sigma = nxt
        value, proposal = objective_and_proposal(vals, vecs)
        if value < best:
            best, best_sigma = value, sigma
        if step < step_tol:
            converged = True
            break
    return RenyiIterate(float(best), best_sigma, iterations, converged)


def soft_cover_bound(states, masses, alpha: float, M: int) -> float:
    """2^{2/α − 2} · 2^{((α−1)/α)·(I_α − log₂ M)} with I_α from `renyi_fixed_point`.

    Run on the kⁿ-letter product channel, it is the reference for the
    library's single-letter bound n·I_α.
    """
    check_positive_int("M", M)
    info = renyi_fixed_point(states, masses, alpha).value
    return 2.0 ** ((2.0 / alpha - 2.0) + ((alpha - 1.0) / alpha) * (info - math.log2(M)))


# ---------------------------------------------------------------------------
# word and codebook states by explicit Kronecker products


def word_state(states, word) -> np.ndarray:
    """W_{x_1} ⊗ … ⊗ W_{x_n} for a word given as letter indices into states."""
    out = np.ones((1, 1), dtype=complex)
    for x in word:
        out = np.kron(out, np.asarray(states[x], complex))
    return out


def codebook_state(states, words) -> np.ndarray:
    """Uniform average of the word states of the codewords, in order."""
    return sum(word_state(states, w) for w in words) / len(words)


# ---------------------------------------------------------------------------
# resolution errors by explicit enumeration


def all_m_type_count_vectors(k: int, M: int) -> list[tuple[int, ...]]:
    out = []
    for counts in itertools.product(range(M + 1), repeat=k - 1):
        rest = M - sum(counts)
        if rest >= 0:
            out.append(counts + (rest,))
    return sorted(out)


def stars_and_bars_compositions(total: int, parts: int) -> np.ndarray:
    """All length-`parts` nonnegative int vectors summing to `total`, lexicographic.

    Stars and bars: a row is a choice of parts−1 bar positions among the
    total+parts−1 slots of a row of stars, and each count is the number of
    stars between neighbouring bars. `itertools.combinations` yields the bar
    positions in lexicographic order, so the rows are in lexicographic
    order too. Shape (C(total+parts-1, parts-1), parts), int64. This was
    the library's enumeration before the level-by-level kernel.
    """
    slots = total + parts - 1
    rows = math.comb(slots, parts - 1)
    out = np.empty((rows, parts), dtype=np.int64)
    if parts == 1:
        out[0, 0] = total
        return out
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64, count=rows * (parts - 1)).reshape(rows, parts - 1)
    out[:, 0] = bars[:, 0]
    np.subtract(bars[:, 1:], bars[:, :-1], out=out[:, 1:-1])
    out[:, 1:-1] -= 1
    out[:, -1] = slots - 1 - bars[:, -1]
    return out


def brute_force_resolution_error(states, p, M: int) -> float:
    """min over M-types q of half trace distance, one candidate at a time."""
    states = [np.asarray(w, complex) for w in states]
    p = np.asarray(p, float)
    target = sum(pi * w for pi, w in zip(p, states))
    best = math.inf
    for counts in all_m_type_count_vectors(len(states), M):
        mix = sum((c / M) * w for c, w in zip(counts, states))
        best = min(best, half_trace_distance_svd(mix, target))
    return best


def rational_half_l1(diagonals, n: int, word_masses, counts, M: int) -> float:
    """½‖Σ_w (p(w) − c_w/M)·W_w‖₁ for diagonal letter states, rounded once.

    ``diagonals`` are the letters' diagonals; ``word_masses`` and ``counts``
    have one entry per word of length n, with the words in C order. Every
    word state is summed in exact rationals of the float inputs; masses may
    be floats or fractions.
    """
    rows = [[Fraction(v) for v in row] for row in np.asarray(diagonals, float).tolist()]
    total = collections.Counter()
    for word, mass, c in zip(itertools.product(range(len(rows)), repeat=n),
                             word_masses, counts):
        weight = Fraction(mass) - Fraction(int(c), M)
        for j, entries in enumerate(itertools.product(*(rows[x] for x in word))):
            total[j] += weight * math.prod(entries)
    return float(sum(abs(v) for v in total.values()) / 2)


class WorstSearch(NamedTuple):
    error: float
    worst_input: np.ndarray
    argmin_counts: np.ndarray


def grid_refine_worst(states, M: int, grid: int) -> WorstSearch:
    """The worst-input search one grid point at a time: grid scan, then refinement.

    ``states`` are the product channel's states in label order. Candidates
    and grid points are the M-types and grid-types in ascending
    lexicographic order. Each point's output is mixed from the rows (the
    real diagonals when every state is exactly diagonal, the flattened
    states otherwise) by one matrix-vector product, and its inner minimum
    is taken over every candidate: ½·Σ|difference| in float arithmetic on
    diagonals, eigvalsh otherwise. The first grid point with the largest
    inner minimum is refined by coordinatewise mass moves with step halving
    down to 1e-6; the argmin is the first candidate within 1e-12 of the
    final minimum.
    """
    states = np.asarray(states, dtype=complex)
    k, dim = states.shape[0], states.shape[1]
    diagonal = not np.any(states[:, ~np.eye(dim, dtype=bool)])
    rows = np.diagonal(states, axis1=1, axis2=2).real.copy() if diagonal \
        else states.reshape(k, -1)
    cand_counts = np.asarray(_simplex_counts(k, M), dtype=np.int64)
    cand = (cand_counts / M) @ rows

    def inner(p_vec):
        mixed = p_vec @ rows
        if diagonal:
            dist = 0.5 * np.sum(np.abs(cand - mixed), axis=1)
        else:
            diffs = (cand - mixed).reshape(-1, dim, dim)
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diffs)), axis=1)
        best = float(dist.min())
        return best, int(np.flatnonzero(dist <= best + 1e-12)[0])

    best_val, best_p = -1.0, None
    for counts in np.asarray(_simplex_counts(k, grid), dtype=np.int64):
        row = counts / grid
        val, _ = inner(row)
        if val > best_val:
            best_val, best_p = val, row
    step = 1.0 / grid
    while step >= 1e-6:
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
    return WorstSearch(max(final_val, 0.0), best_p, cand_counts[q_idx])


def binary_flip_exact_error(eps: float, n: int) -> float:
    """Exact ε(p^{⊗n}, W^{⊗n}, 1) for the binary ε-flip channel, p uniform.

    With a single codeword every word state is diagonal with entries
    (1−ε)^{n−k} ε^k over outputs at Hamming distance k from the word, and
    the target is uniform 2^{−n}; the distance is word-independent.
    """
    total = 0.0
    for k in range(n + 1):
        total += math.comb(n, k) * abs(2.0 ** (-n) - (1 - eps) ** (n - k) * eps ** k)
    return 0.5 * total


# ---------------------------------------------------------------------------
# smoothing, spectra, and types


def ceil_diag_reference(values, lam: float, v: int) -> list[float]:
    """Piecewise rounding of diagonal entries: s → s1·2^{λ·max(−v, ⌈log2(s/s1)/λ⌉)}."""
    vals = sorted((float(t) for t in values), reverse=True)
    s1 = vals[0]
    out = []
    for s in vals:
        if s <= s1 * 2.0 ** (-v * lam) + 1e-15:
            out.append(s1 * 2.0 ** (-v * lam))
            continue
        ratio = math.log2(s / s1) / lam
        nearest = round(ratio)
        k = nearest if abs(ratio - nearest) <= 1e-9 else math.ceil(ratio)
        out.append(s1 * 2.0 ** (lam * max(-v, k)))
    return out


def spectral_cdf(rho, sigma, a: float) -> float:
    """Tr ρ {ρ ≤ 2^a σ} for a density ρ, a PSD reference σ and a finite a < 1024.

    {ρ ≤ 2^a σ} projects onto the eigenvalues of 2^a σ − ρ in [−1e-10, ∞).
    """
    # 2.0 ** a overflows a float from a = 1024 on.
    check_real("a", a, hi=1024.0, open_hi=True)
    rho, sigma = np.asarray(rho, complex), np.asarray(sigma, complex)
    if rho.shape != sigma.shape:
        raise DimensionMismatchError(f"shapes differ: {rho.shape} vs {sigma.shape}")
    s_vals = np.linalg.eigvalsh(sigma)
    if float(s_vals[0]) < -1e-10:
        raise ValidationError("reference operator must be positive semidefinite")
    # Python floats: the product is inf, not a warning, when it overflows.
    if not math.isfinite(2.0 ** a * float(s_vals[-1])):
        raise ValidationError(f"a must be small enough that 2^a times the largest "
                              f"eigenvalue of the reference is finite, got {a!r}")
    vals, vecs = np.linalg.eigh((2.0 ** a) * sigma - rho)
    cols = vecs[:, vals >= -1e-10]
    val = float(np.real(np.trace(rho @ cols @ cols.conj().T)))
    return min(1.0, max(0.0, val))


def spectral_cdf_classical(rho_diag, sigma_diag, a: float) -> float:
    total = 0.0
    for r, g in zip(np.asarray(rho_diag, float), np.asarray(sigma_diag, float)):
        if r <= 2.0 ** a * g:
            total += r
    return total


def multinomial_exact(n: int, counts) -> int:
    num = math.factorial(n)
    for c in counts:
        num //= math.factorial(int(c))
    return num


TWIRL_MAX_PERMUTATIONS = 5040


def twirl(op, n: int) -> np.ndarray:
    """(1/n!) Σ_g U_g X U_g†, summed explicitly over all permutations of the n factors."""
    m = np.asarray(op)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"operator must be square, got {m.shape}")
    check_positive_int("n", n)
    total = m.shape[0]
    d = round(total ** (1.0 / n))
    while d ** n < total:
        d += 1
    if d ** n != total:
        raise ValidationError(f"dimension {total} is not a perfect n = {n} tensor power")
    if math.factorial(n) > TWIRL_MAX_PERMUTATIONS:
        raise ResourceLimitError(f"n! = {math.factorial(n)} exceeds the "
                                 f"permutation cap {TWIRL_MAX_PERMUTATIONS}")
    tensor = m.reshape((d,) * (2 * n))
    acc = np.zeros_like(tensor)
    for g in itertools.permutations(range(n)):
        acc = acc + tensor.transpose(list(g) + [n + i for i in g])
    return (acc / math.factorial(n)).reshape(total, total)


def twirl_word_margin(symbols, d: int) -> float:
    """Min eigenvalue of (n+1)^{d-1}·e(x^n)^{⊗n} − (1/n!)Σ_g U_g|x^n⟩⟨x^n|U_g†.

    Brute force: the n-fold Kronecker power of the empirical density, the
    `twirl` sum over all n! permutations of tensor factors, and eigvalsh of
    the dense d^n × d^n difference.
    """
    n = len(symbols)
    counts = np.bincount(np.asarray(symbols, dtype=int), minlength=d)
    dens = np.diag(counts / n)
    rhs = dens
    for _ in range(n - 1):
        rhs = np.kron(rhs, dens)
    flat_index = 0
    for sym in symbols:
        flat_index = flat_index * d + int(sym)
    word = np.zeros((d ** n, d ** n))
    word[flat_index, flat_index] = 1.0
    lhs = twirl(word, n)
    return float(np.linalg.eigvalsh((n + 1) ** (d - 1) * rhs - lhs)[0])


def ee31_margin_exact(symbols, d: int) -> Fraction:
    """The twirl-domination margin of a word, in rational arithmetic.

    The closed form min over types m of (n+1)^{d-1}·∏_j q_j^{m_j} − [m = c]/|T_c|,
    with q_j the float c_j/n taken exactly and |T_c| from `multinomial_exact`;
    the types are the rows of `stars_and_bars_compositions(n, d)`.
    """
    n = len(symbols)
    counts = np.bincount(np.asarray(symbols, dtype=int), minlength=d).tolist()
    freqs = [Fraction(c / n) for c in counts]
    scale = (n + 1) ** (d - 1)
    best = None
    for m in stars_and_bars_compositions(n, d).tolist():
        value = scale * math.prod(freqs[j] ** mj for j, mj in enumerate(m) if mj)
        if m == counts:
            value -= Fraction(1, multinomial_exact(n, counts))
        best = value if best is None else min(best, value)
    return best


# ---------------------------------------------------------------------------
# the Sanov exponent set, parked here until a command prints a number from it

MAJORIZATION_TOL = 1e-12


def majorizes(p, q) -> bool:
    """Prefix-sum dominance of descending-sorted copies of p over q."""
    pv, qv = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    if pv.shape != qv.shape or pv.ndim != 1:
        raise DimensionMismatchError(
            f"majorization needs equal-length vectors, got {pv.shape} vs {qv.shape}")
    cp = np.cumsum(np.sort(pv)[::-1])
    cq = np.cumsum(np.sort(qv)[::-1])
    return bool(np.all(cp >= cq - MAJORIZATION_TOL))


@dataclass(frozen=True)
class SanovQuery:
    """Membership query for the exponent set {(p', ρ') : D+H-H ≤ r}.

    ``p_prime`` is a sorted candidate spectrum; ``rho_prime`` is the
    empirical profile (an EmpiricalState), read as a density diagonal in
    the descending eigenbasis of ``rho`` (count i pairs with the i-th
    largest eigenvalue).
    """

    p_prime: np.ndarray
    rho_prime: object
    rho: np.ndarray
    r: float

    def __post_init__(self):
        p = np.asarray(self.p_prime, dtype=float).ravel()
        if np.any(p < -1e-12):
            raise ValidationError("candidate spectrum has negative entries")
        if abs(float(p.sum()) - 1.0) > 1e-10:
            raise ValidationError(f"candidate spectrum sums to {p.sum()}, expected 1")
        diffs = np.diff(p)
        if not (np.all(diffs >= -1e-12) or np.all(diffs <= 1e-12)):
            raise ValidationError("candidate spectrum must be sorted")
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape[0] != self.rho_prime.dim or p.shape[0] != self.rho_prime.dim:
            raise DimensionMismatchError("query components have mismatched dimensions")
        check_real("radius", self.r, 0.0, open_lo=True)
        object.__setattr__(self, "p_prime", p)
        object.__setattr__(self, "rho", rho)


def sanov_exponent(query: SanovQuery) -> float:
    """D(ρ'‖ρ) + H(ρ') − H(p'), requiring p' to majorize ρ''s spectrum."""
    spectrum = query.rho_prime.distribution()
    if not majorizes(query.p_prime, spectrum):
        raise ValidationError(
            "candidate spectrum does not majorize the empirical profile")
    lam = np.sort(np.linalg.eigvalsh(query.rho))[::-1]
    div = 0.0
    for freq, base in zip(spectrum, lam):
        if freq <= 0.0:
            continue
        if base <= 1e-12:
            return math.inf
        div += freq * (math.log2(freq) - math.log2(base))
    return div + entropy_bits(spectrum) - entropy_bits(query.p_prime)


def sanov_member(query: SanovQuery) -> bool:
    """Whether the query point lies in the radius-r exponent set."""
    return sanov_exponent(query) <= query.r


def random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return m / np.real(np.trace(m))


def random_projector(rng: np.random.Generator, d: int, rank: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, _ = np.linalg.qr(g)
    cols = q[:, :rank]
    return cols @ cols.conj().T
