"""Capacity iteration and the fixed-input rate's linear program."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import cli, errors, info, rates
from cqresolve.linalg import _check_densities
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
                        lambda p0, p1, p2, rows: (rows.nonzero()[0],
                                                  np.full((rows.sum(), p2.shape[1]),
                                                          1.0 / p2.shape[1])))
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
    tried, trials = rates._extrapolate(p0[None], p1[None], p2[None], np.array([True]))
    trial = trials[0]
    assert tried.tolist() == [0]
    assert trial.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.all(trial > 0.0)
    assert trial[2] >= 0.5 * rates.CAPACITY_EXTRAPOLATION_FLOOR * p2[2]
    assert trial[2] <= 2.0 * rates.CAPACITY_EXTRAPOLATION_FLOOR * p2[2]


def test_extrapolation_steps_at_least_as_far_as_the_plain_steps():
    # Steps that turn back (|v| > |r|) give a step length above -1, which is
    # clamped to -1; the extrapolation at -1 is p2 itself.
    p0, p1, p2 = np.array([0.5, 0.5]), np.array([0.6, 0.4]), np.array([0.5, 0.5])
    _, trials = rates._extrapolate(p0[None], p1[None], p2[None], np.array([True]))
    np.testing.assert_allclose(trials[0], p2, atol=1e-15)


def test_extrapolation_skips_the_rows_that_do_not_bend_or_are_not_asked():
    # row 0 steps in a straight line (p2 − 2p1 + p0 = 0), row 2 is not asked
    p0 = np.array([[0.25, 0.75], [0.5, 0.5], [0.5, 0.5]])
    p1 = np.array([[0.375, 0.625], [0.625, 0.375], [0.625, 0.375]])
    p2 = np.array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])
    tried, trials = rates._extrapolate(p0, p1, p2, np.array([True, True, False]))
    assert tried.tolist() == [1]
    _, alone = rates._extrapolate(p0[1:2], p1[1:2], p2[1:2], np.array([True]))
    assert np.array_equal(trials, alone)


@pytest.mark.parametrize("w", (1e-3, 1e-4, 1e-5))
def test_divergence_of_a_live_input_off_the_eigenvalue_support_is_finite(w):
    # W(p) puts 1e-13·w on the third level, under SUPPORT_EIG_TOL. Input "e"
    # is live and reaches that level, so the level stays in the support and
    # every divergence is the classical one, that of "f" (mass 0) included.
    states = np.array(_small_level_states(w) + [np.diag([0.0, 0.5, 0.5])], dtype=complex)
    p = np.array([0.5 - 5e-14, 0.5 - 5e-14, 1e-13, 0.0])
    target = np.einsum("x,xij->ij", p, states)
    div = info._divergences(states[None], p[None], target[None],
                            info._entropy_terms(states)[None])[0]
    out = np.real(np.diag(target))
    for x in range(3):
        assert div[x] == pytest.approx(orc.kl_bits(np.real(np.diag(states[x])), out),
                                       rel=1e-9, abs=1e-12)
    assert div[3] == pytest.approx(orc.kl_bits([0.0, 0.5, 0.5], out), rel=1e-9)


def test_divergence_of_a_dead_input_off_the_support_is_infinite():
    states = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
    p = np.array([1.0, 0.0])
    div = info._divergences(states[None], p[None], states[:1],
                            info._entropy_terms(states)[None])[0]
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
# the feasible vertices of the per-support oracle


def test_feasible_vertices_flip_erase_channel(flip_erase_channel):
    channel, dist = flip_erase_channel
    vertices = orc.per_support_feasible_vertices(channel.states, dist.masses)
    rows = sorted(tuple(np.round(v, 9)) for v in vertices)
    assert rows == [(0.0, 0.0, 1.0), (0.5, 0.5, 0.0)]


def test_feasible_vertices_injective_channel_unique():
    channel = cq.CQChannel(("0", "1"), [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    dist = cq.Distribution.from_dict({"0": 0.3, "1": 0.7})
    vertices = orc.per_support_feasible_vertices(channel.states, dist.masses)
    assert len(vertices) == 1
    np.testing.assert_allclose(vertices[0], [0.3, 0.7], atol=1e-8)


def test_feasible_vertices_outputs_match_target():
    rng = np.random.default_rng(43)
    T = rng.dirichlet(np.full(2, 2.0), size=5)
    labels = tuple(str(i) for i in range(5))
    channel = cq.CQChannel(labels, [np.diag(r) for r in T])
    q = rng.dirichlet(np.full(5, 2.0))
    dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))), labels=labels)
    target = cq.output_state(channel, dist)
    vertices = orc.per_support_feasible_vertices(channel.states, dist.masses)
    assert vertices
    for v in vertices:
        out = cq.output_state(channel, cq.Distribution(labels, v))
        assert cq.trace_norm(out - target) <= 1e-8
        assert np.all(v >= -1e-12)


def test_feasible_vertices_of_a_single_letter_channel_is_the_point_mass():
    channel = cq.CQChannel(("a",), [np.diag([0.3, 0.7])])
    dist = cq.Distribution.point_mass(("a",), "a")
    vertices = orc.per_support_feasible_vertices(channel.states, dist.masses)
    assert [v.tolist() for v in vertices] == [[1.0]]
    res = cq.fixed_input_rate(channel, dist)
    assert (res.value, res.iterations) == (0.0, 1)
    assert res.distribution.masses.tolist() == [1.0]


def test_feasible_vertices_deduplicated():
    channel, dist = build_flip_erase_channel(0.25)
    vertices = orc.per_support_feasible_vertices(channel.states, dist.masses)
    rows = [tuple(np.round(v, 8)) for v in vertices]
    assert len(rows) == len(set(rows))


def _vertex_sweep_case(k: int, d: int, index: int):
    """A seeded channel and input law; index mod 5 picks the shape.

    0 and 4: states of mixed ranks; 1: diagonal states, some with zero
    entries; 2: the last letter is ½(W_0 + W_1), a redundant letter; 3: the
    last letter repeats W_0, so every support holding both fails the rank
    test. Every law draws integer weights 0-4, so some masses are zero; a
    vertex with fewer inputs than its support is then found from several
    supports, and the dedup keeps the first (on 81 of these channels).
    """
    rng = np.random.default_rng([k, d, index, 24])
    shape = index % 5
    if shape == 1:
        rows = rng.integers(0, 4, size=(k, d)).astype(float)
        rows[np.arange(k), rng.integers(0, d, size=k)] += 1.0
        states = [np.diag(row / row.sum()).astype(complex) for row in rows]
    else:
        states = [orc.random_density_of_rank(rng, d, int(rng.integers(1, d + 1)))
                  for _ in range(k)]
    if shape == 2 and k >= 3:
        states[-1] = (states[0] + states[1]) / 2
    if shape == 3:
        states[-1] = states[0].copy()
    weights = rng.integers(0, 5, size=k).astype(float)
    weights[rng.integers(0, k)] += 1.0
    labels = tuple(str(i) for i in range(k))
    return cq.CQChannel(labels, states), cq.Distribution(labels, weights / weights.sum())


def _assert_least_vertex(result: rates.RateResult, states, masses) -> None:
    """The linear program's rate against the per-support vertex loop, its
    independent reference, with each vertex's I(X;B) from
    `output_divergences`: a witness that is bitwise one of the vertices
    within 1e-12 of the least, a value within 1e-12 of the least, and a
    duality gap of at most 1e-12."""
    assert 0.0 <= result.certificate <= 1e-12
    states = np.asarray(states)
    vertices = orc.per_support_feasible_vertices(states, masses)
    terms = orc.neg_entropies(states)
    values = [float(np.sum(q[q > 0] * orc.output_divergences(states, q, terms)[q > 0]))
              for q in vertices]
    least = min(values)
    assert any(np.array_equal(result.distribution.masses, q)
               for q, value in zip(vertices, values) if value - least <= 1e-12)
    assert abs(result.value - least) <= 1e-12


# 24 channels for each alphabet of 2-7 letters and 6 of 12 letters, on
# qubits and qutrits: 300 channels.
VERTEX_SWEEP = [(k, d, 24 if k <= 7 else 6)
                for k in (2, 3, 4, 5, 6, 7, 12) for d in (2, 3)]


@pytest.mark.parametrize("k, d, count", VERTEX_SWEEP,
                         ids=[f"k{k}-d{d}" for k, d, _ in VERTEX_SWEEP])
def test_batched_vertices_have_the_bits_of_the_per_support_loop(k, d, count):
    for index in range(count):
        channel, dist = _vertex_sweep_case(k, d, index)
        res = cq.fixed_input_rate(channel, dist)
        _assert_least_vertex(res, channel.states, dist.masses)
        # the value has the bits of mutual_info at the witness
        assert res.value == cq.mutual_info(channel, res.distribution)


# ---------------------------------------------------------------------------
# stacks of channels against each row run alone


def _assert_rows_match(labels, states, masses, tol, vertices: bool = True
                       ) -> tuple[rates.RateRows, rates.RateRows]:
    """Every field of every row of the stacked kernels bit for bit against the
    same kernel run on that row alone, the capacity ascent and the
    fixed-input rate's simplex alike; with ``vertices``, each row's
    fixed-input rate against the per-support vertex loop too."""
    capacities = rates._capacities(labels, states, tol)
    fixed = rates._fixed_input_rates(states, masses)
    assert len(capacities.values) == len(fixed.values) == len(states)
    for row in range(len(states)):
        one = slice(row, row + 1)
        for stacked, alone in ((capacities, rates._capacities(labels, states[one], tol)),
                               (fixed, rates._fixed_input_rates(states[one], masses[one]))):
            for got, want in zip(stacked, alone):
                assert np.array_equal(got[row], want[0])
        if vertices:
            _assert_least_vertex(rates._first_row(labels, rates.RateRows(
                *(a[one] for a in fixed))), states[row], masses[row])
    return capacities, fixed


@pytest.mark.parametrize("tol", (1e-6, 1e-9, 1e-12))
def test_example1_stack_has_the_bits_of_the_per_point_loop(tol):
    # pure states at ε 0 and 1, a constant channel at ε 0.5: there the ascent
    # never extrapolates, and [A; 1ᵀ] has rank 1, not 2
    grid = cli._parse_eps_grid("0:1:0.01")
    assert (grid[0], grid[50], grid[-1], len(grid)) == (0.0, 0.5, 1.0, 101)
    states = cli._example1_states(grid)
    # the stack's rows are example1's states at each ε, built by np.diag
    for eps, row in zip(grid, states):
        assert np.array_equal(row, build_flip_erase_channel(eps)[0].states)
    masses = np.tile([0.5, 0.5, 0.0], (len(grid), 1))
    _assert_rows_match(cli.EXAMPLE1_LABELS, states, masses, tol)


def _random_stack(seed: int):
    """r channels of k = 2-6 inputs on qubits or qutrits, and a law per row.

    seed mod 4 picks the shape. 0: states of mixed ranks; 1: every state on
    one (d − 1)-dimensional subspace, so every W(p) is rank-deficient; 2: the
    last letter is ½(W₀ + W₁), a redundant letter; 3: diagonal states with
    zero entries. Laws draw integer weights 0-3, so some letters have mass
    0. Every fifth stack has one row.
    """
    rng = np.random.default_rng([seed, 30])
    d, k = int(rng.integers(2, 4)), int(rng.integers(2, 7))
    r = 1 if seed % 5 == 0 else int(rng.integers(2, 5))
    shape = seed % 4
    stack = []
    for _ in range(r):
        if shape == 1:
            u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
            states = [u[:, 1:] @ orc.random_density(rng, d - 1) @ u[:, 1:].conj().T
                      for _ in range(k)]
        elif shape == 3:
            rows = rng.integers(0, 3, size=(k, d)).astype(float)
            rows[np.arange(k), rng.integers(0, d, size=k)] += 1.0
            states = [np.diag(row / row.sum()) for row in rows]
        else:
            states = [orc.random_density_of_rank(rng, d, int(rng.integers(1, d + 1)))
                      for _ in range(k)]
        if shape == 2 and k >= 3:
            states[-1] = (states[0] + states[1]) / 2
        stack.append(states)
    states = _check_densities(np.array(stack, dtype=complex).reshape(r * k, d, d))
    weights = rng.integers(0, 4, size=(r, k)).astype(float)
    weights[np.arange(r), rng.integers(0, k, size=r)] += 1.0
    return (tuple(str(x) for x in range(k)), states.reshape(r, k, d, d),
            weights / weights.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("first", range(0, 240, 40))
def test_random_stacks_have_the_bits_of_the_per_point_loop(first):
    rounds_differ = 0
    for seed in range(first, first + 40):
        labels, states, masses = _random_stack(seed)
        capacities, _ = _assert_rows_match(labels, states, masses, 1e-9)
        rounds_differ += len(set(capacities.iterations.tolist())) > 1
    assert rounds_differ >= 5


def _wide_stack(seed: int):
    """r = 2-4 channels of k = 8-12 inputs on qubits or qutrits, and a law per
    row with integer weights 0-3, so some letters have mass 0; odd seeds give
    every row the same law. From 8 inputs numpy sums a row's I(X;B)
    pairwise, with the terms of its dead inputs as zeros."""
    rng = np.random.default_rng([seed, 32])
    d, k, r = int(rng.integers(2, 4)), int(rng.integers(8, 13)), int(rng.integers(2, 5))
    states = np.array([[orc.random_density_of_rank(rng, d, int(rng.integers(1, d + 1)))
                        for _ in range(k)] for _ in range(r)], dtype=complex)
    weights = rng.integers(0, 4, size=(1 if seed % 2 else r, k)).astype(float)
    weights[:, rng.integers(0, k)] += 1.0
    weights = np.broadcast_to(weights, (r, k))
    states = _check_densities(states.reshape(r * k, d, d)).reshape(r, k, d, d)
    return (tuple(str(x) for x in range(k)), states,
            weights / weights.sum(axis=1, keepdims=True))


@pytest.mark.parametrize("first", range(0, 24, 8))
def test_wide_stacks_with_dead_letters_have_the_bits_of_the_per_row_loop(first):
    dead = 0
    for seed in range(first, first + 8):
        labels, states, masses = _wide_stack(seed)
        _, fixed = _assert_rows_match(labels, states, masses, 1e-9, vertices=False)
        dead += int(np.count_nonzero(masses == 0.0)) + int(np.count_nonzero(fixed.masses == 0.0))
    assert dead > 0


def test_stack_raises_the_first_failing_rows_convergence_error(monkeypatch):
    # ε 0.5 certifies at its first point, every other ε needs 4 points
    grid = cli._parse_eps_grid("0.5:1:0.05")
    monkeypatch.setattr(rates, "CAPACITY_MAX_ITER", 3)
    one_row = rates._capacities(cli.EXAMPLE1_LABELS, cli._example1_states(grid[:1]), 1e-9)
    assert one_row.iterations[0] == 1
    with pytest.raises(errors.ConvergenceError) as want:
        cq.capacity(build_flip_erase_channel(grid[1])[0], tol=1e-9)
    with pytest.raises(errors.ConvergenceError) as got:
        rates._capacities(cli.EXAMPLE1_LABELS, cli._example1_states(grid), 1e-9)
    assert str(got.value) == str(want.value)
    assert np.array_equal(got.value.value, want.value.value)
    assert got.value.iterations == want.value.iterations == 3
    assert np.array_equal(got.value.witness.masses, want.value.witness.masses)


# ---------------------------------------------------------------------------
# fixed_input_rate


def test_bland_enters_the_first_improving_column():
    # min −x₀ − 2x₁ − 3x₂ over x₀ + x₁ + x₂ + s = 1 from the basis {s}: every
    # letter improves, and the first improving one enters each time, so
    # Bland's rule walks x₀ → x₁ → x₂ in three pivots, where the last or the
    # most improving column would enter x₂ at once
    tableau, basis = np.array([[[1.0, 1.0, 1.0, 1.0, 1.0]]]), np.array([[3]])
    pivots = rates._bland(tableau, basis, np.array([[-1.0, -2.0, -3.0, 0.0]]), 3)
    assert pivots.tolist() == [3]
    assert basis.tolist() == [[2]]


def test_fixed_input_rate_flip_erase_is_zero(flip_erase_channel):
    channel, dist = flip_erase_channel
    res = cq.fixed_input_rate(channel, dist)
    assert res.value == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(res.distribution.masses, [0.0, 0.0, 1.0],
                               atol=1e-8)


def test_fixed_input_rate_decomposes_the_states_once_for_all_vertices(monkeypatch):
    # one _entropy_terms for the costs at p and the witness's value, however
    # many vertices the fibre has; no mutual_info call
    channel, dist = _vertex_sweep_case(7, 2, 0)
    assert len(orc.per_support_feasible_vertices(channel.states, dist.masses)) > 2
    calls = []

    def counted(states):
        calls.append(len(states))
        return info_entropy_terms(states)

    info_entropy_terms = info._entropy_terms
    monkeypatch.setattr(rates, "_entropy_terms", counted)
    monkeypatch.setattr(info, "_entropy_terms", counted)
    cq.fixed_input_rate(channel, dist)
    assert calls == [7]


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


def test_fixed_input_rate_of_fifty_mixtures_is_the_concave_envelope():
    # W_x = t_x W_0 + (1 − t_x) W_1 fixes T = Σ_x q_x t_x on the fibre, and
    # I = S(W(p)) − Σ_x q_x S(W_x) is least at the upper concave envelope of
    # the points (t_x, S(W_x)) at T: past the former 12-letter cap
    rng = np.random.default_rng(31)
    w0, w1 = orc.random_density(rng, 2), orc.random_density(rng, 2)
    t = np.concatenate([[0.0, 1.0], rng.uniform(size=48)])
    labels = tuple(str(x) for x in range(50))
    channel = cq.CQChannel(labels, [tx * w0 + (1.0 - tx) * w1 for tx in t])
    p = rng.dirichlet(np.ones(50))
    res = cq.fixed_input_rate(channel, cq.Distribution(labels, p))
    entropies = -orc.neg_entropies(channel.states)
    T = float(p @ t)
    envelope = max(entropies[i] + (entropies[j] - entropies[i]) * (T - t[i]) / (t[j] - t[i])
                   if t[j] > t[i] else entropies[i]
                   for i in range(50) for j in range(50) if t[i] <= T <= t[j])
    want = -orc.neg_entropies([T * w0 + (1.0 - T) * w1])[0] - envelope
    assert res.value == pytest.approx(want, abs=1e-12)
    assert 0.0 <= res.certificate <= 1e-12
    assert np.count_nonzero(res.distribution.masses) <= 2


def test_fixed_input_rate_of_three_hundred_qubit_letters_is_certified():
    rng = np.random.default_rng(300)
    labels = tuple(str(x) for x in range(300))
    channel = cq.CQChannel(labels, [orc.random_density(rng, 2) for _ in labels])
    dist = cq.Distribution(labels, rng.dirichlet(np.ones(300)))
    res = cq.fixed_input_rate(channel, dist)
    assert 0.0 <= res.certificate <= 1e-12
    assert 0.0 <= res.value <= cq.mutual_info(channel, dist)
    # the witness has p's output and at most d² + 1 = 5 letters
    assert cq.trace_norm(cq.output_state(channel, res.distribution)
                         - cq.output_state(channel, dist)) <= 1e-9
    assert np.count_nonzero(res.distribution.masses) <= 5


def test_strict_separation_at_capacity_achieving_input():
    channel, dist = build_flip_erase_channel(0.1)
    cap = cq.capacity(channel, tol=1e-9).value
    rate = cq.fixed_input_rate(channel, dist).value
    assert cap == pytest.approx(1.0 - orc.binary_entropy_ref(0.1), abs=1e-6)
    assert cap > 0.5  # ≈ 0.531
    assert rate == pytest.approx(0.0, abs=1e-9)
