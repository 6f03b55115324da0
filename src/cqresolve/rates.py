"""Capacity and fixed-input resolvability rates.

The capacity solver is an ascent on input distributions whose stopping rule
doubles as an optimality certificate: the gap max_x D(W_x‖W(p)) - I(X;B) is
an upper bound on how far the iterate is from the supremum. Squared
extrapolation accelerates the plain multiplicative step; an extrapolated
point is kept only if it does not lower I(X;B), and its masses are floored
at a fraction of the plain step's, so no input is dropped by it. The
capacity's ``iterations`` counts evaluations of the divergence vector (one
``eigh`` each), at plain and extrapolated points alike. That vector,
D(W_x‖W(p)) for every input, is the one `info.mutual_info` sums, with the
same support rule: an input of positive mass always has a finite
divergence. The fixed-input rate minimizes mutual information over the
polytope of input distributions with the same output state; concavity of
mutual information in the input puts the minimum at a vertex, so vertices
are enumerated exactly.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channel import CQChannel, Distribution
from .errors import ConvergenceError, ResourceLimitError, ValidationError, check_real
from .info import _divergences, _entropy_terms, mutual_info
from .linalg import trace_norm

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
    v_norm = float(npl.norm(v))
    if not v_norm > 0.0:
        return None
    alpha = min(-float(npl.norm(r)) / v_norm, -1.0)
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


def capacity(channel: CQChannel, *, tol: float = CAPACITY_DEFAULT_TOL) -> RateResult:
    """sup_p I(X;B) for the joint input-output state, in bits.

    Multiplicative ascent from the uniform distribution, accelerated by
    squared extrapolation (SQUAREM, Varadhan & Roland 2008): every two
    plain steps are followed by one extrapolated point. Two safeguards keep
    it an ascent: the extrapolated point is kept only if its mutual
    information is at least that of the second plain step, and each of its
    masses is floored at a small fraction of that step's mass, so an input
    squeezed by mistake can recover. Plain steps fix masses below the
    pruning threshold to zero.

    Every evaluated point is tested by the gap certificate
    max_x D(W_x‖W(p)) − I(X;B) ≥ C − I(X;B), and the first point whose gap
    is at most tol is returned. ``iterations`` counts evaluations of the
    divergence vector (one ``eigh`` each), plain and extrapolated alike, and
    CAPACITY_MAX_ITER caps them. Raises ConvergenceError, carrying the best
    point evaluated, if no gap reaches tol within CAPACITY_MAX_ITER evaluations.
    """
    check_real("tol", tol, 0.0, open_lo=True)
    states = channel.states
    tr_w_log_w = _entropy_terms(states)
    points = _squarem_points(np.full(channel.size, 1.0 / channel.size))
    p = next(points)
    best_value = -math.inf
    best_p = p
    best_gap = math.inf
    for iteration in range(1, CAPACITY_MAX_ITER + 1):
        target = np.einsum("x,xij->ij", p, states)
        div = _divergences(states, p, target, tr_w_log_w)
        live = p > 0.0
        info = float(np.sum(p[live] * div[live]))
        gap = float(np.max(div) - info)
        if info > best_value:
            best_value, best_p, best_gap = info, p, gap
        if gap <= tol:
            dist = Distribution(channel.labels, p)
            return RateResult(info, max(gap, 0.0), iteration, dist)
        p = points.send((div, info))
    raise ConvergenceError(
        f"capacity ascent gap {best_gap:.3e} > tol {tol:.3e} after {CAPACITY_MAX_ITER} "
        "iterations", value=best_value, iterations=CAPACITY_MAX_ITER,
        witness=Distribution(channel.labels, best_p))


def _constraint_matrix(states: np.ndarray) -> np.ndarray:
    """Real matrix whose columns are the stacked (Re, Im) output states."""
    k, d, _ = states.shape
    flat = states.reshape(k, d * d)
    return np.vstack([flat.T.real, flat.T.imag])


def _span_rank(states: np.ndarray) -> int:
    """Rank of the real-linear span of {W_x - W_x0} at the SVD threshold."""
    diffs = _constraint_matrix(states[1:] - states[0])
    return int(npl.matrix_rank(diffs, tol=VERTEX_RANK_TOL))


def feasible_vertices(channel: CQChannel, dist: Distribution) -> list[Distribution]:
    """Vertices of {q : W(q) = W(p)}, the input distributions with p's output.

    Every vertex is supported on at most rank+1 inputs whose output states
    are affinely independent, so all such supports are enumerated and the
    resulting basic solutions filtered for nonnegativity and output match.
    The input alphabet is capped to keep the subset enumeration exact.
    """
    channel._check_alphabet(dist)
    k = channel.size
    if k > VERTEX_MAX_ALPHABET:
        raise ResourceLimitError(
            f"vertex enumeration supports at most {VERTEX_MAX_ALPHABET} inputs, got {k}")
    states = channel.states
    amat = _constraint_matrix(states)
    rhs = np.concatenate([amat @ dist.masses, [1.0]])
    reference = np.einsum("x,xij->ij", dist.masses, states)
    max_support = _span_rank(states) + 1

    vertices: list[np.ndarray] = []
    for size in range(1, min(max_support, k) + 1):
        for support in itertools.combinations(range(k), size):
            sub = amat[:, support]
            aug = np.vstack([sub, np.ones((1, size))])
            if npl.matrix_rank(aug, tol=VERTEX_RANK_TOL) < size:
                continue
            sol, *_ = npl.lstsq(aug, rhs, rcond=None)
            if sol.min() < -1e-9:
                continue
            q = np.zeros(k)
            q[list(support)] = np.clip(sol, 0.0, None)
            total = q.sum()
            if not math.isfinite(total) or total <= 0.0:
                continue
            q /= total
            out_gap = trace_norm(np.einsum("x,xij->ij", q, states) - reference)
            if out_gap > FEASIBLE_OUTPUT_TOL:
                continue
            if any(float(np.max(np.abs(q - v))) <= VERTEX_DEDUP_TOL for v in vertices):
                continue
            vertices.append(q)
    vertices.sort(key=lambda v: tuple(v))
    return [Distribution(channel.labels, v) for v in vertices]


def fixed_input_rate(channel: CQChannel, dist: Distribution) -> RateResult:
    """inf_{q : W(q) = W(p)} I(X;B) of the joint state under q, in bits.

    Mutual information is concave in the input distribution, so the infimum
    over the (compact, convex) feasible polytope is attained at a vertex.
    """
    vertices = feasible_vertices(channel, dist)
    if not vertices:
        raise ValidationError("feasible polytope has no vertices; "
                              "the reference distribution should always be feasible")
    values = [mutual_info(channel, q) for q in vertices]
    best = min(range(len(vertices)), key=values.__getitem__)
    return RateResult(float(values[best]), float(len(vertices)), len(vertices), vertices[best])
