"""Capacity iteration and fixed-input rate via polytope vertices."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import errors
import oracles as orc

from conftest import build_flip_erase_channel


# ---------------------------------------------------------------------------
# capacity


def test_capacity_flip_erase_sweep_matches_closed_form():
    for eps in (0.05, 0.15, 0.3, 0.45):
        channel, _ = build_flip_erase_channel(eps)
        res = cq.capacity(channel, tol=1e-9)
        assert res.value == pytest.approx(1.0 - cq.binary_entropy(eps), abs=1e-6)
        assert res.certificate <= 1e-9


def test_capacity_single_letter_is_zero():
    channel = cq.CQChannel(("a",), [np.diag([0.3, 0.7])])
    res = cq.capacity(channel, tol=1e-9)
    assert res.value == pytest.approx(0.0, abs=1e-9)


def test_capacity_orthogonal_pure_outputs_is_one_bit():
    channel = cq.CQChannel(("0", "1"), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    res = cq.capacity(channel, tol=1e-10)
    assert res.value == pytest.approx(1.0, abs=1e-8)
    np.testing.assert_allclose(res.distribution.masses, [0.5, 0.5], atol=1e-6)


def test_capacity_certificate_bounds_optimum():
    rng = np.random.default_rng(40)
    channel = cq.CQChannel(("a", "b", "c"),
                           [orc.random_density(rng, 2) for _ in range(3)])
    res = cq.capacity(channel, tol=1e-8)
    # the achieved mutual information plus the gap certificate brackets the optimum
    dist = res.distribution
    achieved = cq.mutual_info(channel, dist)
    assert res.value == pytest.approx(achieved, abs=1e-9)
    assert 0.0 <= res.certificate <= 1e-8


def test_capacity_rejects_nonpositive_tol(flip_erase_channel):
    channel, _ = flip_erase_channel
    with pytest.raises(errors.ValidationError):
        cq.capacity(channel, tol=0.0)


def test_capacity_rejects_nan_tol_before_iterating(flip_erase_channel):
    # NaN compares false with everything, so a `tol <= 0` guard let it
    # through to 100,000 iterations and a ConvergenceError.
    channel, _ = flip_erase_channel
    with pytest.raises(errors.ValidationError, match="tol must be positive"):
        cq.capacity(channel, tol=float("nan"))


def test_capacity_nonconvergence_carries_best_iterate():
    channel, _ = build_flip_erase_channel(0.45)
    with pytest.raises(errors.ConvergenceError) as exc_info:
        cq.capacity(channel, tol=1e-9, max_iter=5)
    err = exc_info.value
    assert err.witness is not None
    assert err.iterations == 5
    assert 0.0 <= err.value <= 1.0


def test_capacity_invariant_under_label_permutation():
    rng = np.random.default_rng(41)
    states = [orc.random_density(rng, 2) for _ in range(3)]
    c1 = cq.CQChannel(("a", "b", "c"), states)
    c2 = cq.CQChannel(("c", "a", "b"), [states[2], states[0], states[1]])
    v1 = cq.capacity(c1, tol=1e-9).value
    v2 = cq.capacity(c2, tol=1e-9).value
    assert v1 == pytest.approx(v2, abs=1e-7)


def test_capacity_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(42)
    states = [orc.random_density(rng, 2) for _ in range(3)]
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)],
                  [np.sin(theta), np.cos(theta)]])
    rotated = [u @ w @ u.conj().T for w in states]
    v1 = cq.capacity(cq.CQChannel(("a", "b", "c"), states), tol=1e-9).value
    v2 = cq.capacity(cq.CQChannel(("a", "b", "c"), rotated), tol=1e-9).value
    assert v1 == pytest.approx(v2, abs=1e-7)


# ---------------------------------------------------------------------------
# feasible_vertices


def test_feasible_vertices_flip_erase_channel(flip_erase_channel):
    channel, dist = flip_erase_channel
    vertices = cq.feasible_vertices(channel, dist)
    rows = sorted(tuple(np.round(v.masses, 9)) for v in vertices)
    assert rows == [(0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]


def test_feasible_vertices_injective_channel_unique():
    channel = cq.CQChannel(("0", "1"), [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    dist = cq.Distribution.from_dict({"0": 0.3, "1": 0.7})
    vertices = cq.feasible_vertices(channel, dist)
    assert len(vertices) == 1
    np.testing.assert_allclose(vertices[0].masses, [0.3, 0.7], atol=1e-8)


def test_feasible_vertices_outputs_match_target():
    rng = np.random.default_rng(43)
    T = rng.dirichlet(np.full(2, 2.0), size=5)
    labels = tuple(str(i) for i in range(5))
    channel = cq.CQChannel(labels, [np.diag(r) for r in T])
    q = rng.dirichlet(np.full(5, 2.0))
    dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))), labels=labels)
    target = cq.output_state(channel, dist)
    vertices = cq.feasible_vertices(channel, dist)
    assert vertices
    for v in vertices:
        out = cq.output_state(channel, v)
        assert cq.trace_norm(out - target) <= 1e-8
        assert np.all(np.asarray(v.masses) >= -1e-12)


def test_feasible_vertices_alphabet_cap():
    labels = tuple(str(i) for i in range(13))
    channel = cq.CQChannel(labels, [np.diag([0.5, 0.5])] * 13)
    dist = cq.Distribution.uniform(labels)
    with pytest.raises(errors.ResourceLimitError):
        cq.feasible_vertices(channel, dist)


def test_feasible_vertices_deduplicated():
    channel, dist = build_flip_erase_channel(0.25)
    vertices = cq.feasible_vertices(channel, dist)
    rows = [tuple(np.round(v.masses, 8)) for v in vertices]
    assert len(rows) == len(set(rows))


# ---------------------------------------------------------------------------
# fixed_input_rate


def test_fixed_input_rate_flip_erase_is_zero(flip_erase_channel):
    channel, dist = flip_erase_channel
    res = cq.fixed_input_rate(channel, dist)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(res.distribution.masses, [0.0, 0.0, 1.0],
                               atol=1e-8)


def test_fixed_input_rate_injective_channel_returns_mutual_info():
    channel = cq.CQChannel(("0", "1"), [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    dist = cq.Distribution.from_dict({"0": 0.3, "1": 0.7})
    res = cq.fixed_input_rate(channel, dist)
    assert res.value == pytest.approx(cq.mutual_info(channel, dist), abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_fixed_input_rate_never_exceeds_mutual_info(seed):
    rng = np.random.default_rng(seed)
    k, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
    T = rng.dirichlet(np.full(m, 2.0), size=k)
    labels = tuple(str(i) for i in range(k))
    channel = cq.CQChannel(labels, [np.diag(r) for r in T])
    q = rng.dirichlet(np.full(k, 2.0))
    dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))), labels=labels)
    res = cq.fixed_input_rate(channel, dist)
    assert res.value <= cq.mutual_info(channel, dist) + 1e-9
    assert res.value >= -1e-12


def test_fixed_input_rate_matches_projected_grid_oracle():
    rng = np.random.default_rng(2026)
    for _ in range(8):
        k, m = int(rng.integers(2, 6)), int(rng.integers(2, 4))
        T = rng.dirichlet(np.full(m, 2.0), size=k)
        labels = tuple(str(i) for i in range(k))
        channel = cq.CQChannel(labels, [np.diag(r) for r in T])
        q = rng.dirichlet(np.full(k, 2.0))
        dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))),
                                         labels=labels)
        res = cq.fixed_input_rate(channel, dist)
        grid = orc.fixed_rate_projected_grid(T, np.asarray(dist.masses), 50)
        assert abs(res.value - grid) < 2e-2


def test_fixed_input_rate_below_capacity():
    rng = np.random.default_rng(44)
    for _ in range(5):
        k = int(rng.integers(2, 5))
        states = [orc.random_density(rng, 2) for _ in range(k)]
        labels = tuple(str(i) for i in range(k))
        channel = cq.CQChannel(labels, states)
        cap = cq.capacity(channel, tol=1e-8)
        q = rng.dirichlet(np.full(k, 1.0))
        dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))),
                                         labels=labels)
        rate = cq.fixed_input_rate(channel, dist)
        assert rate.value <= cap.value + 1e-6


def test_strict_separation_at_capacity_achieving_input():
    channel, dist = build_flip_erase_channel(0.1)
    cap = cq.capacity(channel, tol=1e-9).value
    rate = cq.fixed_input_rate(channel, dist).value
    assert cap == pytest.approx(1.0 - cq.binary_entropy(0.1), abs=1e-6)
    assert cap > 0.5  # ≈ 0.531
    assert rate == pytest.approx(0.0, abs=1e-9)
