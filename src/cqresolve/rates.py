"""Capacity and fixed-input resolvability rates, for one channel or a stack.

Both run over a stack of channels of one alphabet and dimension, as one
batch of numpy calls per ascent round or support size across the rows, and
a row's bits do not depend on the other rows: `capacity`,
`feasible_vertices` and `fixed_input_rate` are the one-row case, and
`separation-figure` runs its ε grid as one stack. D(W_x‖W(p)) for every
input is `info._divergences`, the vector `info.mutual_info` sums.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channel import CQChannel, Distribution
from .errors import ConvergenceError, ResourceLimitError, ValidationError, check_real
from .info import _divergences, _entropy_terms, _information
from .linalg import _check_hermitian

CAPACITY_DEFAULT_TOL = 1e-9
CAPACITY_MAX_ITER = 100000
CAPACITY_PRUNE = 1e-15
CAPACITY_EXTRAPOLATION_FLOOR = 1e-12
FEASIBLE_OUTPUT_TOL = 1e-8
VERTEX_RANK_TOL = 1e-9
VERTEX_DEDUP_TOL = 1e-9
VERTEX_MAX_ALPHABET = 12


@dataclass(frozen=True)
class RateResult:
    """A rate value plus the evidence for it.

    For the capacity, ``certificate`` is the final ascent gap (the value is
    within that gap of the supremum), ``distribution`` is the achieving
    input and ``iterations`` is the number of points evaluated. For the
    fixed-input rate, ``certificate`` is the number of polytope vertices
    examined and ``distribution`` is the minimizing one.
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


def _span_rank(states: np.ndarray) -> np.ndarray:
    """Rank of the real-linear span of {W_x - W_x0} at the SVD threshold, per channel."""
    diffs = _constraint_matrix(states[..., 1:, :, :] - states[..., :1, :, :])
    return npl.matrix_rank(diffs, tol=VERTEX_RANK_TOL)


def _vertex_sets(states: np.ndarray, masses: np.ndarray) -> list[list[np.ndarray]]:
    """`feasible_vertices` of each row: (r, k, d, d) checked states, (r, k) laws.

    Per support size, one stacked rank test of the augmented matrices
    [A_S; 1ᵀ] of all rows that reach it and one lstsq per row and full-rank
    support (numpy has no stacked lstsq); then one batched eigvalsh of all
    candidates' output gaps W(q) − W(p).
    """
    r, k = masses.shape
    if k > VERTEX_MAX_ALPHABET:
        raise ResourceLimitError(
            f"vertex enumeration supports at most {VERTEX_MAX_ALPHABET} inputs, got {k}")
    amat = _constraint_matrix(states)
    rhs = np.concatenate([amat @ masses[..., None], np.ones((r, 1, 1))], axis=1)[..., 0]
    max_support = _span_rank(states) + 1
    augmented = np.concatenate([amat, np.ones((r, 1, k))], axis=1)
    found: list[list[np.ndarray]] = [[] for _ in range(r)]
    for size in range(1, min(int(max_support.max()), k) + 1):
        rows = np.flatnonzero(max_support >= size)
        supports = np.array(list(itertools.combinations(range(k), size)))
        augs = augmented[rows][:, :, supports].transpose(0, 2, 1, 3)
        full = npl.matrix_rank(augs, tol=VERTEX_RANK_TOL) >= size
        for i, j in zip(*np.nonzero(full)):
            sol, *_ = npl.lstsq(augs[i, j], rhs[rows[i]], rcond=None)
            if sol.min() < -1e-9:
                continue
            q = np.zeros(k)
            q[supports[j]] = np.clip(sol, 0.0, None)
            total = q.sum()
            if math.isfinite(total) and total > 0.0:
                found[rows[i]].append(q / total)
    owner = np.repeat(np.arange(r), [len(qs) for qs in found])
    qs = np.array([q for row in found for q in row]).reshape(-1, k)
    gaps = _check_hermitian(np.einsum("cx,cxij->cij", qs, states[owner])
                            - np.einsum("rx,rxij->rij", masses, states)[owner])
    feasible = iter(np.sum(np.abs(npl.eigvalsh(gaps)), axis=-1) <= FEASIBLE_OUTPUT_TOL)
    vertex_sets = []
    for row in found:
        vertices: list[np.ndarray] = []
        for q, ok in zip(row, feasible):
            if ok and not any(float(np.max(np.abs(q - v))) <= VERTEX_DEDUP_TOL for v in vertices):
                vertices.append(q)
        vertex_sets.append(sorted(vertices, key=tuple))
    return vertex_sets


def feasible_vertices(channel: CQChannel, dist: Distribution) -> list[Distribution]:
    """Vertices of {q : W(q) = W(p)}, the input distributions with p's output.

    Every vertex is supported on at most rank+1 inputs whose output states
    are affinely independent, so all such supports are enumerated and the
    basic solutions kept if nonnegative with an output within
    FEASIBLE_OUTPUT_TOL in trace norm, deduplicated in (support size,
    combination) order and sorted. At most VERTEX_MAX_ALPHABET inputs.
    """
    channel._check_alphabet(dist)
    return [Distribution(channel.labels, v)
            for v in _vertex_sets(channel.states[None], dist.masses[None])[0]]


def _vertex_informations(states: np.ndarray, vertex_sets: list) -> list[list[float]]:
    """I(X;B) at each row's vertices with the bits of `mutual_info`, from one
    `_entropy_terms` of the stack and one `_divergences` call for all vertices."""
    r, k = states.shape[:2]
    owner = np.repeat(np.arange(r), [len(vs) for vs in vertex_sets])
    qs = np.array([q for vs in vertex_sets for q in vs]).reshape(-1, k)
    terms = _entropy_terms(states.reshape(r * k, *states.shape[2:])).reshape(r, k)[owner]
    div = iter(_divergences(states[owner], qs, np.einsum("vx,vxij->vij", qs, states[owner]),
                            terms))
    return [[_information(q, next(div)) for q in vs] for vs in vertex_sets]


def _fixed_input_rates(labels: tuple, states: np.ndarray, masses: np.ndarray) -> list[RateResult]:
    """`fixed_input_rate` of each row of a stack, as `_vertex_sets` takes it."""
    vertex_sets = _vertex_sets(states, masses)
    if not all(vertex_sets):
        raise ValidationError("feasible polytope has no vertices; "
                              "the reference distribution should always be feasible")
    results = []
    for vertices, values in zip(vertex_sets, _vertex_informations(states, vertex_sets)):
        best = min(range(len(values)), key=values.__getitem__)
        results.append(RateResult(values[best], float(len(values)), len(values),
                                  Distribution(labels, vertices[best])))
    return results


def fixed_input_rate(channel: CQChannel, dist: Distribution) -> RateResult:
    """inf_{q : W(q) = W(p)} I(X;B) of the joint state under q, in bits.

    Mutual information is concave in the input distribution, so the infimum
    over the (compact, convex) feasible polytope is attained at a vertex.
    The first vertex of least information is returned, its value with the
    bits of `mutual_info`.
    """
    channel._check_alphabet(dist)
    return _fixed_input_rates(channel.labels, channel.states[None], dist.masses[None])[0]
