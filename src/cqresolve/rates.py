"""Capacity and fixed-input resolvability rates, for one channel or a stack.

Both run over a stack of channels of one alphabet and dimension, and a
row's bits do not depend on the other rows; the kernels return arrays
(`RateRows`), and `capacity` and `fixed_input_rate`, the one-row case, wrap
their row in a `RateResult`. The capacity ascent is phase-masked: each
round evaluates one point of every row still running, with one batch of
numpy calls, and each row's phase (start, first or second plain step, or
extrapolated trial) says with masks what the round makes of that point,
so rows whose steps do not bend fall out of phase without leaving the
batch. The fixed-input rate is a linear program per row; the rows are
grouped by their constraint count m (the rank of [A; 1ᵀ]), and each group
runs one Bland simplex on a (g, m, k + m + 1) stack of tableaux, a row
leaving it when it has no improving column. Only the witnesses' lstsq and
the rare drive-out of artificial columns after phase I go one row at a
time. `separation-figure` runs its ε grid as one stack and reads the
arrays. D(W_x‖W(p)) for every input is `info._divergences`, the vector
`info.mutual_info` sums.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

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


class RateRows(NamedTuple):
    """`RateResult`'s fields for every row of a stack: r values, certificates and
    iterations, and the (r, k) masses of the rows' distributions."""

    values: np.ndarray
    certificates: np.ndarray
    iterations: np.ndarray
    masses: np.ndarray


def _first_row(labels: tuple, rows: RateRows) -> RateResult:
    """The `RateResult` of a stack's first row, its masses a `Distribution` of labels."""
    return RateResult(float(rows.values[0]), float(rows.certificates[0]),
                      int(rows.iterations[0]), Distribution(labels, rows.masses[0]))


def _ascent_steps(p: np.ndarray, div: np.ndarray) -> np.ndarray:
    """One plain step p_x ∝ p_x·2^{D(W_x‖W(p))} of each row, pruning masses below
    CAPACITY_PRUNE; an input of mass 0 stays at 0 whatever its divergence."""
    live = p > 0.0
    top = np.maximum.reduce(div, axis=1, keepdims=True, where=live, initial=-np.inf)
    nxt = p * np.exp2(div - top, out=np.zeros(p.shape), where=live)
    nxt /= np.add.reduce(nxt, axis=1, keepdims=True)
    nxt[nxt < CAPACITY_PRUNE] = 0.0
    return nxt / np.add.reduce(nxt, axis=1, keepdims=True)


def _extrapolate(p0: np.ndarray, p1: np.ndarray, p2: np.ndarray, rows: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Squared extrapolation of the steps p0 → p1 → p2 of the given rows, where
    they bend (p2 − 2p1 + p0 ≠ 0): those rows' indices and trial points.

    Each mass is floored at CAPACITY_EXTRAPOLATION_FLOOR times its value in
    p2, so the extrapolation never drops an input that p2 keeps. The norms
    are (1, k) @ (k, 1) matmuls, which numpy takes as a row's 1-D dot.
    """
    r = p1 - p0
    v = p2 - 2.0 * p1 + p0
    v_norm = np.sqrt(v[:, None] @ v[..., None])[:, 0]
    bent = rows & (v_norm[:, 0] > 0.0)
    if False in bent.tolist():
        p0, p2, r, v, v_norm = p0[bent], p2[bent], r[bent], v[bent], v_norm[bent]
    alpha = np.minimum(-np.sqrt(r[:, None] @ r[..., None])[:, 0] / v_norm, -1.0)
    trial = p0 - 2.0 * alpha * r + alpha * alpha * v
    np.maximum(trial, CAPACITY_EXTRAPOLATION_FLOOR * p2, out=trial)
    trial[p2 <= 0.0] = 0.0
    return bent.nonzero()[0], trial / np.add.reduce(trial, axis=1, keepdims=True)


# The phase of a row of the capacity ascent, what its point is: the start, the
# first or second plain step of a cycle, or an extrapolated trial; and the
# phase of its next point, unless that is a trial.
_START, _FIRST_STEP, _SECOND_STEP, _TRIAL = range(4)
_NEXT_PHASE = np.array([_FIRST_STEP, _SECOND_STEP, _FIRST_STEP, _FIRST_STEP])


def _capacities(labels: tuple, states: np.ndarray, tol: float) -> RateRows:
    """`capacity` of each channel of an (r, k, d, d) stack of checked states.

    Every round evaluates one point of each row still running, with one
    einsum and one `_divergences` call, and then advances every row by its
    phase with masks. A start point or a kept trial starts a cycle p → p1 =
    F(p) → p2 = F(p1); at p2, a row whose steps bend evaluates their
    extrapolation next, a trial, and the others start the next cycle from
    p2; a trial is kept if its I(X;B) is at least p2's, and otherwise the
    cycle starts from p2, which then takes the trial's place as the point
    of its round. So a cycle's start is always the point two rounds before
    its p2. A row leaves at its own gap ≤ tol, and the first row in stack
    order still running after CAPACITY_MAX_ITER rounds raises, with the best
    point it evaluated.
    """
    check_real("tol", tol, 0.0, open_lo=True)
    r, k = states.shape[:2]
    terms = _entropy_terms(states.reshape(r * k, *states.shape[2:])).reshape(r, k)
    out = RateRows(np.zeros(r), np.zeros(r), np.zeros(r, dtype=int), np.zeros((r, k)))
    # Each running row: its index and phase; its point, D and I there, and
    # those of the round before; the point two rounds before; the best point
    # (no array is written in place once it holds a point).
    rows, phase, point = np.arange(r), np.full(r, _START), np.full((r, k), 1.0 / k)
    prev = prev2 = prev_div = point
    prev_info = np.zeros(r)
    best, best_gap, best_p = np.full(r, -np.inf), np.full(r, np.inf), point
    for iteration in range(1, CAPACITY_MAX_ITER + 1):
        div = _divergences(states, point, np.einsum("rx,rxij->rij", point, states), terms)
        info = _information(point, div)
        gap = np.maximum.reduce(div, axis=1) - info
        better = info > best
        if False in better.tolist():
            best, best_gap = np.where(better, info, best), np.where(better, gap, best_gap)
            best_p = np.where(better[:, None], point, best_p)
        else:  # every row's best point is this round's
            best, best_gap, best_p = info, gap, point
        done = gap <= tol
        if True in done.tolist():
            left = rows[done]
            out.values[left], out.iterations[left] = info[done], iteration
            out.certificates[left] = np.where(0.0 > gap[done], 0.0, gap[done])
            out.masses[left] = point[done]
            if False not in done.tolist():
                return out
            keep = ~done
            (rows, states, terms, phase, point, div, info, prev, prev_div, prev_info, prev2, best,
             best_gap, best_p) = (a[keep] for a in (rows, states, terms, phase, point, div, info,
                                                     prev, prev_div, prev_info, prev2, best,
                                                     best_gap, best_p))
        phases = set(phase.tolist())
        if _TRIAL in phases:  # a trial below p2: p2 takes its place
            back = (phase == _TRIAL) & (info < prev_info)
            if True in back.tolist():
                point = np.where(back[:, None], prev, point)
                div = np.where(back[:, None], prev_div, div)
        tried = ()
        if _SECOND_STEP in phases:
            tried, trials = _extrapolate(prev2, prev, point, phase == _SECOND_STEP)
        prev2, prev, prev_div, prev_info = prev, point, div, info
        phase = _NEXT_PHASE[phase]
        point = trials if len(tried) == len(point) else _ascent_steps(point, div)
        if len(tried):
            point[tried], phase[tried] = trials, _TRIAL
    raise ConvergenceError(
        f"capacity ascent gap {best_gap[0]:.3e} > tol {tol:.3e} after {CAPACITY_MAX_ITER} "
        "iterations", value=float(best[0]), iterations=CAPACITY_MAX_ITER,
        witness=Distribution(labels, best_p[0]))


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
    return _first_row(channel.labels, _capacities(channel.labels, channel.states[None], tol))


def _constraint_matrix(states: np.ndarray) -> np.ndarray:
    """Real matrices whose columns are the stacked (Re, Im) output states, per channel."""
    flat = np.swapaxes(states.reshape(*states.shape[:-2], states.shape[-1] ** 2), -1, -2)
    return np.concatenate([flat.real, flat.imag], axis=-2)


def _pivot(tableau: np.ndarray, basis: np.ndarray, row: np.ndarray, col: np.ndarray,
           column: np.ndarray, at: np.ndarray) -> None:
    """One Gauss–Jordan step in each tableau j of a (g, m, n) stack: column
    col[j], whose entries are column[j], becomes basic in row row[j]; at is
    arange(g)."""
    pivot = tableau[at, row] / column[at, row][:, None]
    tableau -= column[..., None] * pivot[:, None]
    tableau[at, row], basis[at, row] = pivot, col


def _bland(tableau: np.ndarray, basis: np.ndarray, cost: np.ndarray, k: int) -> np.ndarray:
    """Pivot each tableau of a (g, m, n) stack until none of its first k columns
    has a reduced cost below −LP_PIVOT_TOL; the pivots each made. Bland's rule
    (Math. Oper. Res. 2, 1977): the first such column enters and, among the
    rows of least ratio, the one of least basic column leaves, so no basis
    repeats. Each pivot is one batch of numpy calls over the tableaux still
    pivoting; a reduced cost is a (1, m) @ (m, k) matmul, the tableau's own
    gemv. The tableaux still pivoting are the stack itself until the first
    one stops, and a copy written back after.
    """
    pivots = np.zeros(len(basis), dtype=int)
    running, part, held, costs = np.arange(len(basis)), tableau, basis, cost
    at = np.arange(len(basis))
    for count in itertools.count():
        improving = costs[:, :k] - (costs[at[:, None], held][:, None] @ part[..., :k])[:, 0] \
            < -LP_PIVOT_TOL
        col = improving.argmax(axis=1)
        going = improving[at, col]
        stops = going.tolist()
        if False in stops:
            pivots[running] = count
            if part is not tableau:
                tableau[running], basis[running] = part, held
            if True not in stops:
                return pivots
            running, part, held, costs, col = (a[going] for a in (running, part, held, costs, col))
            at = at[:len(running)]
        column = part[at, :, col]
        ratios = np.divide(part[..., -1], column, out=np.full(column.shape, np.inf),
                           where=column > LP_PIVOT_TOL)
        least = ratios <= np.minimum.reduce(ratios, axis=1, keepdims=True) + LP_PIVOT_TOL
        _pivot(part, held, np.where(least, held, cost.shape[1]).argmin(axis=1), col, column, at)


def _simplex(tableau: np.ndarray, cost: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Phase I, then phase II at the (g, k + m) costs, of each tableau of a
    (g, m, k + m + 1) stack whose last m columns before the right-hand side
    are the artificial basis; the final bases and the phase II pivots."""
    g, m = tableau.shape[:2]
    basis = np.arange(k, k + m) + np.zeros((g, 1), dtype=int)
    _bland(tableau, basis, np.concatenate((np.zeros((g, k)), np.ones((g, m))), axis=1), k)
    for j, i in zip(*(basis >= k).nonzero()):
        # an artificial column left basic at level 0 leaves for any letter
        out = (np.abs(tableau[j, i, :k]) > LP_PIVOT_TOL).nonzero()[0]
        if out.size:
            _pivot(tableau[j:j + 1], basis[j:j + 1], np.array([i]), out[:1],
                   tableau[j:j + 1, :, out[0]], np.zeros(1, dtype=int))
    return basis, _bland(tableau, basis, cost, k)


def _fixed_input_rates(states: np.ndarray, masses: np.ndarray) -> RateRows:
    """`fixed_input_rate` of each row of a stack: (r, k, d, d) checked states, (r, k) laws.

    One `_divergences` call gives every row's costs c_x = D(W_x‖W(p)) and one
    batched SVD the orthonormal rows V of [A; 1ᵀ] with the columns of letters
    of infinite cost zeroed: such a letter, at cost 0, never enters a basis,
    so it is held at q_x = 0. The rows are grouped by their count m of rows
    of V, and each group runs `_simplex` on V q = V p, q ≥ 0 as one stack of
    tableaux [±V | I | ±V p], signed so their last column starts
    nonnegative. A row's witness is the lstsq solution of [A_S; 1ᵀ] q_S =
    [A p; 1] on the final basis's positive support S, clipped at 0 and
    normalized, and one more `_divergences` call gives every witness's
    I(X;B). With the final basis's duals y, any q on the fibre has c·q ≥
    y·Vp + min(0, minₓ (c − Vᵀy)ₓ), since 1ᵀq = 1 is in the span of V: the
    certificate is c·q less that bound, floored at 0. Every product is a
    stacked matmul whose items are a row's own dot or gemv.
    """
    r, k = masses.shape
    terms = _entropy_terms(states.reshape(r * k, *states.shape[2:])).reshape(r, k)
    costs = _divergences(states, masses, np.einsum("rx,rxij->rij", masses, states), terms)
    finite = np.isfinite(costs)
    costs = np.where(finite, costs, 0.0)
    amat = _constraint_matrix(states)
    rhs = np.concatenate([amat @ masses[..., None], np.ones((r, 1, 1))], axis=1)[..., 0]
    augmented = np.concatenate([amat, np.ones((r, 1, k))], axis=1)
    _, sing, vt = npl.svd(augmented * finite[:, None, :], full_matrices=False)
    ranks = np.add.reduce(sing > LP_PIVOT_TOL * sing[:, :1], axis=1)
    witnesses, bounds, pivots = np.zeros((r, k)), np.zeros(r), np.zeros(r, dtype=int)
    for m in set(ranks.tolist()):
        group = (ranks == m).nonzero()[0]
        g, rows = len(group), vt[group, :m]
        b = rows @ masses[group][..., None]
        sign = np.where(b < 0.0, -1.0, 1.0)
        tableau = np.concatenate([rows * sign, np.eye(m) + np.zeros((g, 1, 1)), b * sign], axis=2)
        cost = np.concatenate((costs[group], np.zeros((g, m))), axis=1)
        basis, pivots[group] = _simplex(tableau, cost, k)
        positive = (basis < k) & (tableau[..., -1] > LP_PIVOT_TOL)
        supports = np.sort(np.where(positive, basis, k), axis=1)
        sizes = np.add.reduce(positive, axis=1).tolist()
        for j, row in enumerate(group.tolist()):
            support = supports[j, :sizes[j]]
            sol, *_ = npl.lstsq(augmented[row][:, support], rhs[row], rcond=None)
            witnesses[row, support] = sol
        y = cost[np.arange(g)[:, None], basis][:, None] @ tableau[..., k:-1] * sign[:, None, :, 0]
        slack = np.minimum.reduce(cost[:, :k] - (y @ rows)[:, 0], axis=1)
        bounds[group] = (y @ b)[:, 0, 0] + np.where(slack < 0.0, slack, 0.0)
    np.maximum(witnesses, 0.0, out=witnesses)
    witnesses /= np.add.reduce(witnesses, axis=1, keepdims=True)
    excess = (costs[:, None] @ witnesses[..., None])[:, 0, 0] - bounds
    divs = _divergences(states, witnesses, np.einsum("vx,vxij->vij", witnesses, states), terms)
    return RateRows(_information(witnesses, divs), np.where(0.0 > excess, 0.0, excess),
                    1 + pivots, witnesses)


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
    return _first_row(channel.labels,
                      _fixed_input_rates(channel.states[None], dist.masses[None]))
