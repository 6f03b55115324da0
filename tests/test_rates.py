"""Capacity iteration and fixed-input rate via polytope vertices."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import errors, info, rates
import oracles as orc

from conftest import build_flip_erase_channel


# ---------------------------------------------------------------------------
# capacity


def test_capacity_flip_erase_sweep_matches_closed_form():
    for eps in (0.05, 0.15, 0.3, 0.45):
        channel, _ = build_flip_erase_channel(eps)
        res = cq.capacity(channel, tol=1e-9)
        assert res.value == pytest.approx(1.0 - orc.binary_entropy_ref(eps), abs=1e-6)
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


def _random_channel_states(seed: int) -> list[np.ndarray]:
    """A seeded qubit or qutrit channel on 2-5 inputs; odd seeds make the
    last input a mixture of the first two, which the capacity leaves unused."""
    rng = np.random.default_rng([seed, 7])
    d, k = int(rng.integers(2, 4)), int(rng.integers(2, 6))
    states = [orc.random_density(rng, d) for _ in range(k)]
    if seed % 2 and k > 2:
        w = rng.uniform(0.2, 0.8)
        states[-1] = w * states[0] + (1.0 - w) * states[1]
    return states


SEPARATION_GRID = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45)
CERTIFY_EPS = (0.45, 0.48)


def _small_level_states(w: float) -> list[np.ndarray]:
    """Two bit-flip states and a third that alone puts weight w on a third level."""
    return [np.diag([0.9, 0.1, 0.0]), np.diag([0.1, 0.9, 0.0]),
            np.diag([(1 - w) / 2, (1 - w) / 2, w])]


SWEEP = ([(f"example1-eps{eps}", build_flip_erase_channel(eps)[0].states)
          for eps in sorted(set(SEPARATION_GRID + CERTIFY_EPS))]
         + [(f"random-{seed}", _random_channel_states(seed)) for seed in range(40)]
         + [(f"small-level-{w:g}", _small_level_states(w)) for w in (1e-3, 1e-4, 1e-5)])


@pytest.mark.parametrize("states", [states for _, states in SWEEP],
                         ids=[name for name, _ in SWEEP])
def test_capacity_sweep_against_plain_ascent(states):
    tol = 1e-9
    channel = cq.CQChannel(tuple(str(i) for i in range(len(states))), states)
    res = cq.capacity(channel, tol=tol)
    plain = orc.plain_capacity_ascent(states, tol)
    assert 0.0 <= res.certificate <= tol
    assert abs(res.value - plain.value) <= tol
    assert res.iterations <= plain.steps
    value, gap = orc.capacity_gap(states, res.distribution.masses)
    assert value == pytest.approx(res.value, abs=1e-12)
    assert max(gap, 0.0) == pytest.approx(res.certificate, abs=1e-12)


@pytest.mark.parametrize("eps", sorted(set(SEPARATION_GRID + CERTIFY_EPS)))
def test_capacity_example1_certifies_in_few_evaluations(eps):
    # The plain ascent needs 41 (eps = 0.05) to 16,580 (eps = 0.48)
    # evaluations here: the unused input "e" loses mass by only 2^-C a step.
    channel, _ = build_flip_erase_channel(eps)
    res = cq.capacity(channel, tol=1e-9)
    assert res.iterations <= 10
    assert res.certificate <= 1e-9
    want = 1.0 - orc.binary_entropy_ref(eps)
    assert res.value <= want + 1e-12
    assert want <= res.value + res.certificate + 1e-12


def test_capacity_keeps_plain_step_when_extrapolation_loses(monkeypatch):
    # An extrapolation that always jumps back to the uniform law lowers
    # I(X;B), so each one must be rejected and the plain steps carry on.
    monkeypatch.setattr(rates, "_extrapolate",
                        lambda p0, p1, p2: np.full(p2.size, 1.0 / p2.size))
    channel, _ = build_flip_erase_channel(0.2)
    res = cq.capacity(channel, tol=1e-9)
    plain = orc.plain_capacity_ascent(channel.states, 1e-9)
    assert res.certificate <= 1e-9
    assert abs(res.value - plain.value) <= 1e-9
    # a rejected extrapolation follows every second plain step before the last
    assert res.iterations == plain.steps + (plain.steps - 2) // 2


def test_extrapolation_floor_keeps_every_mass_of_the_plain_step():
    # Masses falling geometrically extrapolate to exactly zero; the floor
    # keeps the vanishing input at a small fraction of its plain-step mass.
    q = 0.5
    p0 = np.array([0.25, 0.25, 0.5])
    e1, e2 = 0.5 * q, 0.5 * q * q
    p1 = np.array([(1 - e1) / 2, (1 - e1) / 2, e1])
    p2 = np.array([(1 - e2) / 2, (1 - e2) / 2, e2])
    trial = rates._extrapolate(p0, p1, p2)
    assert trial.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(trial > 0.0)
    assert trial[2] >= 0.5 * rates.CAPACITY_EXTRAPOLATION_FLOOR * p2[2]
    assert trial[2] <= 2.0 * rates.CAPACITY_EXTRAPOLATION_FLOOR * p2[2]


def test_extrapolation_steps_at_least_as_far_as_the_plain_steps():
    # Steps that turn back (|v| > |r|) give a step length above -1, which is
    # clamped to -1; the extrapolation at -1 is p2 itself.
    p0, p1, p2 = np.array([0.5, 0.5]), np.array([0.6, 0.4]), np.array([0.5, 0.5])
    np.testing.assert_allclose(rates._extrapolate(p0, p1, p2), p2, atol=1e-15)


@pytest.mark.parametrize("w", (1e-3, 1e-4, 1e-5))
def test_divergence_of_a_live_input_off_the_eigenvalue_support_is_finite(w):
    # W(p) puts 1e-13·w on the third level, under SUPPORT_EIG_TOL. Input "e"
    # is live and reaches that level, so the level stays in the support and
    # every divergence is the classical one, that of "f" (mass 0) included.
    states = np.array(_small_level_states(w) + [np.diag([0.0, 0.5, 0.5])], dtype=complex)
    p = np.array([0.5 - 5e-14, 0.5 - 5e-14, 1e-13, 0.0])
    target = np.einsum("x,xij->ij", p, states)
    div = info._divergences(states, p, target, info._entropy_terms(states))
    out = np.real(np.diag(target))
    for x in range(3):
        assert div[x] == pytest.approx(orc.kl_bits(np.real(np.diag(states[x])), out),
                                       rel=1e-9, abs=1e-12)
    assert div[3] == pytest.approx(orc.kl_bits([0.0, 0.5, 0.5], out), rel=1e-9)


def test_divergence_of_a_dead_input_off_the_support_is_infinite():
    states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    p = np.array([1.0, 0.0])
    div = info._divergences(states, p, states[0], info._entropy_terms(states))
    assert div[0] == 0.0 and div[1] == np.inf


def test_capacity_nonconvergence_carries_best_iterate(monkeypatch):
    # A seeded qutrit channel on five inputs that takes the accelerated
    # ascent 199 evaluations to certify.
    states = _random_channel_states(38)
    channel = cq.CQChannel(tuple(str(i) for i in range(len(states))), states)
    monkeypatch.setattr(cq.rates, "CAPACITY_MAX_ITER", 5)
    with pytest.raises(errors.ConvergenceError) as exc_info:
        cq.capacity(channel, tol=1e-9)
    err = exc_info.value
    assert err.witness is not None
    assert err.iterations == 5
    assert 0.0 <= err.value <= 1.0
    assert cq.mutual_info(channel, err.witness) == pytest.approx(err.value, abs=1e-12)


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


def test_feasible_vertices_of_a_single_letter_channel_is_the_point_mass():
    channel = cq.CQChannel(("a",), [np.diag([0.3, 0.7])])
    dist = cq.Distribution.point_mass(("a",), "a")
    assert rates._span_rank(channel.states) == 0
    vertices = cq.feasible_vertices(channel, dist)
    assert [v.masses.tolist() for v in vertices] == [[1.0]]
    res = cq.fixed_input_rate(channel, dist)
    assert res.value == pytest.approx(0.0, abs=1e-12)
    assert res.distribution.masses.tolist() == [1.0]


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
    assert cap == pytest.approx(1.0 - orc.binary_entropy_ref(0.1), abs=1e-6)
    assert cap > 0.5  # ≈ 0.531
    assert rate == pytest.approx(0.0, abs=1e-9)
