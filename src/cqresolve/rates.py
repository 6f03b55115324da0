"""Capacity and fixed-input resolvability rates, for one channel or a stack.

Both run over a stack of channels of one alphabet and dimension, and a
row's bits do not depend on the other rows: the capacity ascent makes one
batch of numpy calls per round across the rows still running, and the
fixed-input rate is one linear program per row, its costs, row reduction
and witness values each one batched call. `capacity` and
`fixed_input_rate` are the one-row case, and `separation-figure` runs its
ε grid as one stack. D(W_x‖W(p)) for every input is `info._divergences`,
the vector `info.mutual_info` sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channel import CQChannel, Distribution
from .errors import ConvergenceError, check_real
from .info import _divergences, _entropy_terms, _information

CAPACITY_DEFAULT_TOL = 1e-9
CAPACITY_MAX_ITER = 100000
CAPACITY_PRUNE = 1e-15
CAPACITY_EXTRAPOLATION_FLOOR = 1e-12
LP_PIVOT_TOL = 1e-9


@dataclass(frozen=True)
class RateResult:
    """A rate value plus the evidence for it.

    For the capacity, ``certificate`` is the final ascent gap (the value is
    within that gap of the supremum), ``distribution`` is the achieving
    input and ``iterations`` is the number of points evaluated. For the
    fixed-input rate, ``certificate`` is the linear program's duality gap
    at the final basis (the value is within that gap of the infimum, up to
    the rounding of I(X;B)), ``distribution`` is the minimizing vertex and
    ``iterations`` is 1 + the phase II pivots.
    """

    value: float
    certificate: float
    iterations: int
    distribution: Distribution | None = None


def _ascent_step(p: np.ndarray, div: np.ndarray) -> np.ndarray:
    """One plain step p_x ∝ p_x·2^{D(W_x‖W(p))}, pruning masses below CAPACITY_PRUNE."""
    live = p > 0.0
    nxt = np.zeros(p.size)
    nxt[live] = p[live] * np.exp2(div[live] - div[live].max())
    nxt /= nxt.sum()
    nxt[nxt < CAPACITY_PRUNE] = 0.0
    return nxt / nxt.sum()


def _extrapolate(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray) -> np.ndarray | None:
    """Squared extrapolation of the steps p0 → p1 → p2; None if they do not bend.

    Each mass is floored at CAPACITY_EXTRAPOLATION_FLOOR times its value in
    p2, so the extrapolation never drops an input that p2 keeps.
    """
    r = p1 - p0
    v = p2 - 2.0 * p1 + p0
    v_norm = math.sqrt(v.dot(v))
    if not v_norm > 0.0:
        return None
    alpha = min(-math.sqrt(r.dot(r)) / v_norm, -1.0)
    trial = p0 - 2.0 * alpha * r + alpha * alpha * v
    trial = np.where(p2 > 0.0,
                     np.maximum(trial, CAPACITY_EXTRAPOLATION_FLOOR * p2), 0.0)
    return trial / trial.sum()


def _squarem_points(p: np.ndarray):
    """Yield each point to evaluate; receive (divergences, I(X;B)) at it.

    A cycle takes two plain steps p1 = F(p), p2 = F(p1), then evaluates the
    extrapolated point and starts the next cycle from it if its mutual
    information is at least p2's, and from p2 otherwise.
    """
    div, _ = yield p
    while True:
        p1 = _ascent_step(p, div)
        div1, _ = yield p1
        p2 = _ascent_step(p1, div1)
        div2, info2 = yield p2
        trial = _extrapolate(p, p1, p2)
        p, div = p2, div2
        if trial is not None:
            div_t, info_t = yield trial
            if info_t >= info2:
                p, div = trial, div_t


def _capacities(labels: tuple, states: np.ndarray, tol: float) -> list[RateResult]:
    """`capacity` of each channel of an (r, k, d, d) stack of checked states.

    A round evaluates the point of every row still running with one einsum
    and one `_divergences` call; a row leaves at its own gap ≤ tol, and the
    first row still running after CAPACITY_MAX_ITER rounds raises.
    """
    check_real("tol", tol, 0.0, open_lo=True)
    r, k = states.shape[:2]
    tr_w_log_w = _entropy_terms(states.reshape(r * k, *states.shape[2:])).reshape(r, k)
    ascents = [_squarem_points(np.full(k, 1.0 / k)) for _ in range(r)]
    points = {row: next(ascent) for row, ascent in enumerate(ascents)}
    best = {row: (-math.inf, p, math.inf) for row, p in points.items()}
    results: list = [None] * r
    for iteration in range(1, CAPACITY_MAX_ITER + 1):
        stack = np.array(list(points.values()))
        divs = _divergences(states, stack, np.einsum("rx,rxij->rij", stack, states), tr_w_log_w)
        running = {}
        for (row, p), div in zip(points.items(), divs):
            info = _information(p, div)
            gap = float(div.max() - info)
            if info > best[row][0]:
                best[row] = (info, p, gap)
            if gap <= tol:
                results[row] = RateResult(info, max(gap, 0.0), iteration, Distribution(labels, p))
            else:
                running[row] = ascents[row].send((div, info))
        if not running:
            return results
        if len(running) < len(points):
            keep = np.isin(list(points), list(running))
            states, tr_w_log_w = states[keep], tr_w_log_w[keep]
        points = running
    best_value, best_p, best_gap = best[min(points)]
    raise ConvergenceError(
        f"capacity ascent gap {best_gap:.3e} > tol {tol:.3e} after {CAPACITY_MAX_ITER} "
        "iterations", value=best_value, iterations=CAPACITY_MAX_ITER,
        witness=Distribution(labels, best_p))


def capacity(channel: CQChannel, *, tol: float = CAPACITY_DEFAULT_TOL) -> RateResult:
    """sup_p I(X;B) for the joint input-output state, in bits.

    Multiplicative ascent from the uniform distribution with squared
    extrapolation (SQUAREM, Varadhan & Roland 2008) after every two plain
    steps; an extrapolated point is kept only if it does not lower I(X;B),
    and its masses are floored at a fraction of the plain step's, so no
    input is dropped by it. The first point whose gap max_x D(W_x‖W(p)) −
    I(X;B) ≥ C − I(X;B) is at most tol is returned. ``iterations`` counts
    the points evaluated, plain and extrapolated alike; ConvergenceError,
    carrying the best point evaluated, if none of the first
    CAPACITY_MAX_ITER reaches tol.
    """
    return _capacities(channel.labels, channel.states[None], tol)[0]


def _constraint_matrix(states: np.ndarray) -> np.ndarray:
    """Real matrices whose columns are the stacked (Re, Im) output states, per channel."""
    flat = np.swapaxes(states.reshape(*states.shape[:-2], states.shape[-1] ** 2), -1, -2)
    return np.concatenate([flat.real, flat.imag], axis=-2)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    """One Gauss–Jordan step: column col becomes basic in row."""
    pivot = tableau[row] / tableau[row, col]
    tableau -= tableau[:, col, None] * pivot
    tableau[row] = pivot
    basis[row] = col


def _bland(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, k: int) -> int:
    """Pivot until none of the first k columns has a reduced cost below
    −LP_PIVOT_TOL; the pivots made. Bland's rule (Math. Oper. Res. 2, 1977):
    the first such column enters and, among the rows of least ratio, the one
    of least basic column leaves, so no basis repeats."""
    pivots = 0
    while True:
        improving = cost[:k] - cost[basis] @ tableau[:, :k] < -LP_PIVOT_TOL
        if not improving.any():
            return pivots
        col = improving.argmax()
        column = tableau[:, col]
        ratios = np.divide(tableau[:, -1], column, out=np.full(len(basis), np.inf),
                           where=column > LP_PIVOT_TOL)
        least = ratios <= ratios.min() + LP_PIVOT_TOL
        _pivot(tableau, basis, np.where(least, basis, len(cost)).argmin(), col)
        pivots += 1


def _fixed_input_rates(labels: tuple, states: np.ndarray, masses: np.ndarray) -> list[RateResult]:
    """`fixed_input_rate` of each row of a stack: (r, k, d, d) checked states, (r, k) laws.

    One `_divergences` call gives every row's costs c_x = D(W_x‖W(p)) and one
    batched SVD the orthonormal rows V of [A; 1ᵀ] with the columns of letters
    of infinite cost zeroed: such a letter, at cost 0, never enters a basis,
    so it is held at q_x = 0. Each row runs a phase I / phase II simplex on
    V q = V p, q ≥ 0 from a tableau [±V | I | ±V p], signed so its last
    column starts nonnegative; its witness is the lstsq solution of [A_S; 1ᵀ]
    q_S = [A p; 1] on the final basis's positive support S, clipped at 0 and
    normalized, and one more `_divergences` call gives every witness's
    I(X;B). With the final basis's duals y, any q on the fibre has c·q ≥
    y·Vp + min(0, minₓ (c − Vᵀy)ₓ), since 1ᵀq = 1 is in the span of V: the
    certificate is c·q less that bound, floored at 0.
    """
    r, k = masses.shape
    terms = _entropy_terms(states.reshape(r * k, *states.shape[2:])).reshape(r, k)
    costs = _divergences(states, masses, np.einsum("rx,rxij->rij", masses, states), terms)
    finite = np.isfinite(costs)
    amat = _constraint_matrix(states)
    rhs = np.concatenate([amat @ masses[..., None], np.ones((r, 1, 1))], axis=1)[..., 0]
    augmented = np.concatenate([amat, np.ones((r, 1, k))], axis=1)
    _, sing, vt = npl.svd(augmented * finite[:, None, :], full_matrices=False)
    witnesses, gaps, pivots = np.zeros((r, k)), [], []
    for row in range(r):
        rows = vt[row, sing[row] > LP_PIVOT_TOL * sing[row, 0]]
        m, b = len(rows), rows @ masses[row]
        sign = np.where(b < 0.0, -1.0, 1.0)
        tableau = np.hstack([rows * sign[:, None], np.eye(m), (b * sign)[:, None]])
        basis, cost = np.arange(k, k + m), np.repeat([0.0, 1.0], [k, m])
        _bland(tableau, basis, cost, k)  # phase I: the artificial columns' sum
        for i in (basis >= k).nonzero()[0]:
            # an artificial column left basic at level 0 leaves for any letter
            out = (np.abs(tableau[i, :k]) > LP_PIVOT_TOL).nonzero()[0]
            if out.size:
                _pivot(tableau, basis, i, out[0])
        cost[:k], cost[k:] = np.where(finite[row], costs[row], 0.0), 0.0
        pivots.append(_bland(tableau, basis, cost, k))
        support = np.sort(basis[(basis < k) & (tableau[:, -1] > LP_PIVOT_TOL)])
        sol, *_ = npl.lstsq(augmented[row][:, support], rhs[row], rcond=None)
        q = witnesses[row]
        q[support] = np.clip(sol, 0.0, None)
        q /= q.sum()
        y = cost[basis] @ tableau[:, k:-1] * sign
        bound = y @ b + min(0.0, (cost[:k] - y @ rows).min())
        gaps.append(max(float(cost[:k] @ q - bound), 0.0))
    divs = _divergences(states, witnesses, np.einsum("vx,vxij->vij", witnesses, states), terms)
    return [RateResult(_information(q, div), gap, 1 + steps, Distribution(labels, q))
            for q, div, gap, steps in zip(witnesses, divs, gaps, pivots)]


def fixed_input_rate(channel: CQChannel, dist: Distribution) -> RateResult:
    """inf_{q : W(q) = W(p)} I(X;B) of the joint state under q, in bits.

    On that fibre the output W(q) = W(p) is fixed, so I(X;B) = Σ_x q_x
    D(W_x‖W(p)) is linear in q: the rate is the linear program min c·q
    subject to A q = A p, 1ᵀq = 1, q ≥ 0, with c_x = D(W_x‖W(p)) and A the
    real and imaginary parts of the output states. A letter of infinite
    cost puts weight off the support of W(p), so it has q_x = 0 on the
    fibre. The witness is the simplex's optimal vertex and the value is
    its I(X;B) with the bits of `mutual_info`; where several vertices are
    optimal, which one is returned follows Bland's pivoting, so it can
    differ from another of values within about 1e-12. ``certificate`` is
    the duality gap of the final basis and ``iterations`` is 1 + the
    phase II pivots, the bases examined.
    """
    channel._check_alphabet(dist)
    return _fixed_input_rates(channel.labels, channel.states[None], dist.masses[None])[0]
