"""Entropies, divergences, Rényi quantities, pinching, and the reference spectral CDF."""
from __future__ import annotations

import collections
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import errors, info, linalg
from cqresolve.info import _divergences, _entropy_terms, _renyi_fixed_points
import oracles as orc

from conftest import POINT_MASS_CHANNEL, assert_psd


# ---------------------------------------------------------------------------
# binary entropy (the oracle the rate tests use) and von Neumann entropy
# (the library's per-input kernel, Tr W log₂ W = −H(W))


def test_binary_entropy_half_is_one_bit():
    assert orc.binary_entropy_ref(0.5) == pytest.approx(1.0, abs=1e-12)


def test_binary_entropy_degenerate_inputs():
    assert orc.binary_entropy_ref(0.0) == 0.0
    assert orc.binary_entropy_ref(1.0) == 0.0


def test_binary_entropy_generic_point():
    assert orc.binary_entropy_ref(0.11) == pytest.approx(0.49992, abs=1e-5)


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(errors.ValidationError):
        orc.binary_entropy_ref(1.2)


def vn_entropy(rho) -> float:
    return -float(_entropy_terms(np.asarray(rho, dtype=complex)[None])[0])


def test_vn_entropy_pure_state_is_zero():
    assert vn_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)


def test_vn_entropy_maximally_mixed():
    assert vn_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-10)


def test_vn_entropy_matches_binary_entropy():
    assert vn_entropy(np.diag([0.8, 0.2])) == pytest.approx(0.72193, abs=1e-5)
    assert vn_entropy(np.diag([0.8, 0.2])) == pytest.approx(orc.binary_entropy_ref(0.2),
                                                            abs=1e-12)


# ---------------------------------------------------------------------------
# relative entropy


def test_qrel_entropy_self_is_zero():
    rng = np.random.default_rng(3)
    rho = orc.random_density(rng, 3)
    assert cq.qrel_entropy(rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_qrel_entropy_pure_vs_mixed():
    val = cq.qrel_entropy(np.diag([1.0, 0.0]), np.diag([0.5, 0.5]))
    assert val == pytest.approx(1.0, abs=1e-10)


def test_qrel_entropy_erasure_row_matches_mixture(flip_erase_channel):
    channel, dist = flip_erase_channel
    w_e = channel.states[2]
    out = cq.output_state(channel, dist)
    assert cq.qrel_entropy(w_e, out) == pytest.approx(0.0, abs=1e-10)


def test_qrel_entropy_support_violation_is_infinite():
    val = cq.qrel_entropy(np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
    assert math.isinf(val) and val > 0


def test_qrel_entropy_rejects_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatchError):
        cq.qrel_entropy(np.eye(2) / 2, np.eye(3) / 3)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_qrel_entropy_nonnegative_zero_iff_equal(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 5))
    rho, sigma = orc.random_density(rng, d), orc.random_density(rng, d)
    val = cq.qrel_entropy(rho, sigma)
    assert val >= -1e-10
    if float(np.max(np.abs(rho - sigma))) > 1e-4:
        assert val > 0.0


def test_qrel_entropy_matches_classical_kl():
    p, q = np.array([0.7, 0.2, 0.1]), np.array([0.3, 0.3, 0.4])
    val = cq.qrel_entropy(np.diag(p), np.diag(q))
    assert val == pytest.approx(orc.kl_bits(p, q), abs=1e-10)


# ---------------------------------------------------------------------------
# mutual information


def test_mutual_info_flip_channel_value(flip_erase_channel):
    channel, dist = flip_erase_channel
    expected = 1.0 - orc.binary_entropy_ref(0.1)
    assert cq.mutual_info(channel, dist) == pytest.approx(expected, abs=1e-10)


def test_mutual_info_erasure_only_input_is_zero(flip_erase_channel):
    channel, _ = flip_erase_channel
    q = cq.Distribution.from_dict({"0": 0.0, "1": 0.0, "e": 1.0},
                                  labels=channel.labels)
    assert cq.mutual_info(channel, q) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_point_mass_is_zero(flip_erase_channel):
    channel, _ = flip_erase_channel
    p = cq.Distribution.point_mass(channel.labels, "0")
    assert cq.mutual_info(channel, p) == pytest.approx(0.0, abs=1e-12)


def test_mutual_info_of_a_point_mass_is_exactly_zero():
    # Σ_x p_x D(W_x‖W(p)) at the point mass on "b" rounds to −3.3e-16
    channel = cq.channel_from_json(POINT_MASS_CHANNEL)
    for label in channel.labels:
        assert cq.mutual_info(channel, cq.Distribution.point_mass(channel.labels, label)) == 0.0


def test_mutual_info_matches_classical_oracle():
    rng = np.random.default_rng(8)
    T = rng.dirichlet(np.full(3, 2.0), size=4)
    labels = tuple("abcd")
    channel = cq.CQChannel(labels, [np.diag(row) for row in T])
    q = rng.dirichlet(np.full(4, 1.0))
    dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))),
                                     labels=labels)
    assert cq.mutual_info(channel, dist) == pytest.approx(
        orc.classical_mutual_info(T, q), abs=1e-10)


def test_mutual_info_is_finite_when_a_small_mass_reaches_a_small_level():
    # W(p) puts 5e-14 on the third level, under SUPPORT_EIG_TOL, and only
    # the input of mass 1e-13 reaches it; its divergence stays finite.
    channel = cq.CQChannel(("a", "b", "c"), [np.diag([0.9, 0.1, 0.0]),
                                             np.diag([0.1, 0.9, 0.0]),
                                             np.diag([0.25, 0.25, 0.5])])
    masses = (0.5, 0.5 - 1e-13, 1e-13)
    dist = cq.Distribution(("a", "b", "c"), masses)
    T = np.array([[0.9, 0.1, 0.0], [0.1, 0.9, 0.0], [0.25, 0.25, 0.5]])
    assert cq.mutual_info(channel, dist) == pytest.approx(
        orc.classical_mutual_info(T, masses), abs=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_mutual_info_within_dimension_bounds(seed):
    rng = np.random.default_rng(seed)
    k, d = int(rng.integers(2, 5)), int(rng.integers(2, 4))
    states = [orc.random_density(rng, d) for _ in range(k)]
    labels = tuple(str(i) for i in range(k))
    channel = cq.CQChannel(labels, states)
    q = rng.dirichlet(np.full(k, 1.0))
    dist = cq.Distribution.from_dict(dict(zip(labels, map(float, q))),
                                     labels=labels)
    val = cq.mutual_info(channel, dist)
    assert -1e-10 <= val <= min(math.log2(k), math.log2(d)) + 1e-10


# ---------------------------------------------------------------------------
# the divergence vector keeps the bits of the formula that read linalg.eigh


def _divergence_cases() -> dict:
    """(states, p, which divergences are +inf), with W(p) exactly I/d or rank-deficient.

    I/d comes from the d basis projectors at mass 1/d, past numpy's
    16-element insertion sort at d = 17 and 20; three states of rank 1, 2
    and d have mass 0. The rank-deficient W(p) lives on two of four levels,
    in the standard basis or a rotated one. With the letter of mass 1e-13,
    which reaches a third level below SUPPORT_EIG_TOL, that level is read
    by its Rayleigh quotient, for the letter of mass 0 on it too; in the
    standard basis the full-rank letter of mass 0 still leaks onto the
    fourth (+inf). Rotated, eigh mixes the two small levels, so it reaches
    both. Without that letter, every letter of mass 0 leaks.
    """
    rng = np.random.default_rng(20241)
    cases = {}
    for d in (2, 17, 20):
        eye = np.eye(d, dtype=complex)
        states = np.concatenate([eye[:, :, None] * eye[:, None, :],
                                 [orc.random_density_of_rank(rng, d, r) for r in (1, 2, d)]])
        p = np.concatenate([np.full(d, 1.0 / d), np.zeros(3)])
        cases[f"identity-over-{d}"] = (states, p, np.zeros(d + 3, dtype=bool))
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    for name, u in (("diagonal", np.eye(4)), ("rotated", q * (np.diag(r) / abs(np.diag(r))))):
        def level_state(*weights):
            m = (u * np.array(weights)) @ u.conj().T
            return (m + m.conj().T) / 2
        states = np.array([level_state(0.7, 0.3, 0.0, 0.0), level_state(0.2, 0.8, 0.0, 0.0),
                           level_state(0.0, 0.0, 1.0, 0.0), level_state(0.1, 0.2, 0.7, 0.0),
                           orc.random_density_of_rank(rng, 4, 4)])
        cases[f"reached-{name}"] = (states, np.array([0.5, 0.5 - 1e-13, 1e-13, 0.0, 0.0]),
                                    np.array([0, 0, 0, 0, name == "diagonal"], dtype=bool))
        cases[f"leaks-{name}"] = (states, np.array([0.5, 0.5, 0.0, 0.0, 0.0]),
                                  np.array([0, 0, 1, 1, 1], dtype=bool))
    return cases


DIVERGENCE_CASES = _divergence_cases()


@pytest.mark.parametrize("name", sorted(DIVERGENCE_CASES))
def test_divergence_vector_keeps_the_bits_of_the_eigh_formula(name):
    # the row's bits are those of the formula run on it alone, whatever row
    # shares its stack; its values are within 1e-12 of the reference's
    states, p, leaks = DIVERGENCE_CASES[name]
    target = np.einsum("x,xij->ij", p, states)
    terms = _entropy_terms(states)
    div = _divergences(states[None], p[None], target[None], terms[None])[0]
    uniform = np.full(len(p), 1.0 / len(p))
    stacked = _divergences(np.stack([states, states]), np.stack([uniform, p]),
                           np.stack([np.einsum("x,xij->ij", uniform, states), target]),
                           np.stack([terms, terms]))
    assert np.array_equal(stacked[1], div)
    want = orc.output_divergences(states, p, orc.neg_entropies(states))
    assert np.array_equal(np.isinf(want), leaks)
    assert np.array_equal(np.isinf(div), leaks)
    np.testing.assert_allclose(div[~leaks], want[~leaks], rtol=1e-12, atol=0.0)
    if name.startswith("identity"):
        assert np.array_equal(target, np.eye(len(target)) / len(target))


def test_divergence_vector_refuses_a_target_that_is_not_finite():
    # the targets mix checked states, so finiteness is the one test they get
    states = np.array([np.diag([0.5, 0.5]), np.diag([1.0, 0.0])], dtype=complex)
    target = np.diag([0.75, complex(math.nan, 0.0)])
    with pytest.raises(errors.ValidationError, match="NaN or infinite"):
        _divergences(states[None], np.array([[0.5, 0.5]]), target[None],
                     _entropy_terms(states)[None])


def _support_rule_row(rng, k: int, d: int, kind: str):
    """(states, p) of one channel row: of full rank, or its W(p) on a subspace
    of rank 1 to d − 1, in the standard basis or a rotated one.

    Off full rank about 30% of the masses are 0, and each letter leaks onto
    further levels with probability 0.4; a leaking letter of positive mass
    gets mass 1e-13 when the row is to reach a kernel level ("reach"), and 0
    otherwise ("singular")."""
    if kind == "full":
        return np.array([orc.random_density(rng, d) for _ in range(k)]), rng.dirichlet(np.ones(k))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    u = np.eye(d) if rng.random() < 0.5 else q
    rank = int(rng.integers(1, d))

    def on_levels(levels):
        m = np.zeros((d, d), dtype=complex)
        m[:levels, :levels] = orc.random_density(rng, levels)
        m = u @ m @ u.conj().T
        return (m + m.conj().T) / 2

    states, p = [on_levels(rank) for _ in range(k)], rng.dirichlet(np.ones(k))
    p[rng.random(k) < 0.3] = 0.0
    for x in range(k):
        if rng.random() < 0.4:
            states[x] = on_levels(int(rng.integers(rank + 1, d + 1)))
            p[x] = 1e-13 if kind == "reach" and p[x] > 0.0 else 0.0
    if not p.any():
        states[0], p[0] = on_levels(rank), 1.0
    return np.array(states), p / p.sum()


def test_support_rule_masks_keep_the_per_row_path():
    # 400 seeded stacks of 1-4 rows, k 2-5, d 2-4, mixing full-rank rows with
    # rows whose W(p) has kernel levels, reached by a letter of mass 1e-13 or
    # not: against the former row-by-row kernel, a row with no kernel level
    # keeps its bits, and one with a kernel level is within 1e-15 when no
    # input of positive mass reaches it (the weights are one stacked einsum,
    # summed in another memory order) and within 1e-13 when one does
    counts = collections.Counter()
    for seed in range(400):
        rng = np.random.default_rng([seed, 40])
        k, d, r = int(rng.integers(2, 6)), int(rng.integers(2, 5)), int(rng.integers(1, 5))
        rows = [_support_rule_row(rng, k, d, kind)
                for kind in rng.choice(["full", "singular", "reach"], size=r)]
        states, p = np.array([s for s, _ in rows]), np.array([q for _, q in rows])
        targets = np.einsum("rx,rxij->rij", p, states)
        terms = _entropy_terms(states.reshape(-1, d, d)).reshape(r, k)
        got = _divergences(states, p, targets, terms)
        want, reaching = orc.per_row_divergences(states, p, targets, terms)
        assert np.array_equal(np.isinf(got), np.isinf(want)), seed
        assert np.array_equal(got == -np.inf, want == -np.inf), seed
        kernel = np.linalg.eigvalsh(targets)[:, 0] <= info.SUPPORT_EIG_TOL
        for row in range(r):
            finite = np.isfinite(want[row])
            if not kernel[row]:
                assert np.array_equal(got[row], want[row]), (seed, row)
            else:
                bound = 1e-13 if reaching[row] else 1e-15
                np.testing.assert_allclose(got[row, finite], want[row, finite], rtol=0.0,
                                           atol=bound, err_msg=f"{seed}, {row}")
            counts["reached" if reaching[row] else "unreached" if kernel[row] else "full"] += 1
            counts["inf"] += int(np.sum(~finite))
    assert min(counts.values()) >= 100, counts


@pytest.mark.parametrize("d", (2, 3, 7, 8, 9, 16))
def test_entropy_terms_have_the_bits_of_each_spectrum_summed_alone(d):
    # ranks 1 to d, so from 8 levels numpy sums spectra with dead
    # eigenvalues pairwise, the zeros in place
    rng = np.random.default_rng([d, 32])
    states = np.array([orc.random_density_of_rank(rng, d, rank) for rank in range(1, d + 1)])
    terms = _entropy_terms(states)
    for row in range(d):
        assert np.array_equal(terms[row], _entropy_terms(states[row:row + 1])[0])
    np.testing.assert_allclose(terms, orc.neg_entropies(states), rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("k", (2, 3, 7, 8, 9, 12, 20))
def test_information_rows_have_the_bits_of_the_one_dimensional_sum(k):
    # every live count from 1 (a point mass, exactly 0) to k, in one stack
    rng = np.random.default_rng([k, 33])
    p = rng.random((k, k)) * (np.arange(k) < np.arange(1, k + 1)[:, None])
    p = p[rng.permutation(k)][:, rng.permutation(k)] + 0.0
    p /= p.sum(axis=1, keepdims=True)
    div = rng.random((k, k)) * 10.0 ** rng.integers(-3, 3, size=(k, k))
    div[p == 0.0] = np.inf
    got = info._information(p, div)
    for row in range(k):
        live = p[row] > 0.0
        # the row alone and the one-dimensional sum of its terms, dead ones 0
        assert np.array_equal(got[row], info._information(p[row:row + 1], div[row:row + 1])[0])
        if live.sum() == 1:
            assert got[row] == 0.0
            continue
        assert got[row] == np.add.reduce(p[row] * np.where(live, div[row], 0.0))
        assert got[row] == pytest.approx(math.fsum(p[row, live] * div[row, live]), rel=1e-12)


# ---------------------------------------------------------------------------
# phi and sandwiched Rényi divergence


def test_phi_equal_arguments_is_zero():
    rng = np.random.default_rng(12)
    rho = orc.random_density(rng, 3)
    assert cq.phi(0.5, rho, rho) == pytest.approx(0.0, abs=1e-9)


def test_phi_commuting_hellinger_point():
    rho, sigma = np.diag([0.8, 0.2]), np.diag([0.5, 0.5])
    expected = math.log2(math.sqrt(0.4) + math.sqrt(0.1))
    got = cq.phi(0.5, rho, sigma)
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(orc.commuting_phi(np.array([0.8, 0.2]),
                                                  np.array([0.5, 0.5]), 0.5),
                                abs=1e-10)


def test_phi_commuting_matches_oracle_grid():
    rng = np.random.default_rng(13)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.full(d, 1.0))
        q = rng.dirichlet(np.full(d, 1.0))
        s = float(rng.uniform(0.05, 0.95))
        assert cq.phi(s, np.diag(p), np.diag(q)) == pytest.approx(
            orc.commuting_phi(p, q, s), abs=1e-9)


def test_phi_maximally_mixed_reference_reduces_to_renyi_entropy():
    rng = np.random.default_rng(14)
    rho = orc.random_density(rng, 3)
    # Near s = 1, σ^{s/2(1-s)} = 3^{-5e11} underflows; φ is still finite.
    for s in (0.25, 0.5, 0.75, 1.0 - 1e-12):
        got = cq.phi(s, rho, np.eye(3) / 3)
        ev = np.linalg.eigvalsh(rho)
        expected = -s * math.log2(3) + math.log2(float(np.sum(ev ** (1 - s))))
        assert got == pytest.approx(expected, abs=1e-9)


def test_phi_keeps_its_digits_near_one_outside_the_standard_basis():
    # σ = R(π/6)·diag(0.998, 0.002)·R(π/6)ᵀ and ρ = R(π/5)·diag(0.995, 0.005)·R(π/5)ᵀ
    # with R(t) the real rotation. The values are the closed-form 2 × 2
    # spectra in 60-digit mpmath. A sandwich of a dense σ^γ, not formed in
    # σ's eigenbasis, gave −0.0048996 at s 0.9 and erred by 1.8e-10 at 0.75.
    def turn(t):
        return np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])

    sigma = turn(math.pi / 6) @ np.diag([0.998, 0.002]) @ turn(math.pi / 6).T
    rho = turn(math.pi / 5) @ np.diag([0.995, 0.005]) @ turn(math.pi / 5).T
    for s, want in ((0.5, -0.00830799612375), (0.75, -0.00426305843519),
                    (0.9, -0.00172658889127)):
        assert cq.phi(s, rho, sigma) == pytest.approx(want, abs=1e-12), s


def test_phi_support_violation_sentinel():
    val = cq.phi(0.5, np.diag([0.5, 0.5]), np.diag([1.0, 0.0]))
    assert math.isinf(val) and val < 0


def test_sandwiched_renyi_self_is_zero():
    rng = np.random.default_rng(15)
    rho = orc.random_density(rng, 2)
    assert cq.sandwiched_renyi(cq.RenyiOrder(2.0), rho, rho) == pytest.approx(
        0.0, abs=1e-9)


def test_sandwiched_renyi_commuting_matches_classical():
    rng = np.random.default_rng(16)
    for alpha in (1.3, 1.7, 2.0):
        p = rng.dirichlet(np.full(3, 1.0))
        q = rng.dirichlet(np.full(3, 1.0))
        got = cq.sandwiched_renyi(cq.RenyiOrder(alpha), np.diag(p), np.diag(q))
        assert got == pytest.approx(orc.classical_renyi_div(p, q, alpha),
                                    abs=1e-9)


def test_sandwiched_renyi_monotone_in_alpha():
    rng = np.random.default_rng(17)
    for _ in range(5):
        rho, sigma = orc.random_density(rng, 2), orc.random_density(rng, 2)
        grid = [1.1, 1.3, 1.5, 1.7, 1.9, 2.0]
        vals = [cq.sandwiched_renyi(cq.RenyiOrder(a), rho, sigma) for a in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_sandwiched_renyi_approaches_relative_entropy():
    rng = np.random.default_rng(18)
    rho, sigma = orc.random_density(rng, 2), orc.random_density(rng, 2)
    near_one = cq.sandwiched_renyi(cq.RenyiOrder(1.0 + 1e-4), rho, sigma)
    assert near_one == pytest.approx(cq.qrel_entropy(rho, sigma), abs=1e-2)


def test_sandwiched_renyi_support_violation_is_infinite():
    val = cq.sandwiched_renyi(cq.RenyiOrder(2.0), np.diag([0.5, 0.5]),
                              np.diag([1.0, 0.0]))
    assert math.isinf(val) and val > 0


def test_renyi_order_validation():
    with pytest.raises(errors.ValidationError):
        cq.RenyiOrder(1.0)
    with pytest.raises(errors.ValidationError):
        cq.RenyiOrder(2.5)
    assert cq.RenyiOrder(1.5).s == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# Rényi mutual information


def test_renyi_mutual_info_trivial_channel_is_zero():
    rho = np.diag([0.6, 0.4])
    channel = cq.CQChannel(("a", "b"), [rho, rho])
    dist = cq.Distribution.uniform(("a", "b"))
    res = cq.renyi_mutual_info(cq.RenyiOrder(2.0), channel, dist)
    assert abs(res.value) < 1e-9
    np.testing.assert_allclose(res.sigma, rho, atol=1e-6)


def test_renyi_mutual_info_classical_matches_sibson(flip_erase_channel):
    channel, dist = flip_erase_channel
    T = np.array([[0.9, 0.1], [0.1, 0.9], [0.5, 0.5]])
    for alpha in (1.25, 1.5, 2.0):
        res = cq.renyi_mutual_info(cq.RenyiOrder(alpha), channel, dist)
        expected = orc.sibson_renyi_mi(T, [0.5, 0.5, 0.0], alpha)
        assert res.converged
        assert res.value == pytest.approx(expected, abs=1e-8)


def test_renyi_mutual_info_qubit_matches_bloch_grid():
    rng = np.random.default_rng(42)
    states = [orc.random_density(rng, 2) for _ in range(3)]
    channel = cq.CQChannel(("a", "b", "c"), states)
    dist = cq.Distribution.uniform(("a", "b", "c"))
    res = cq.renyi_mutual_info(cq.RenyiOrder(2.0), channel, dist)
    grid = orc.bloch_grid_renyi_mi(states, [1/3, 1/3, 1/3], 2.0, step=0.02)
    assert abs(res.value - grid) < 1e-3


def test_renyi_mutual_info_approaches_mutual_info():
    for seed in (100, 101, 102):
        rng = np.random.default_rng(seed)
        states = [orc.random_density(rng, 2) for _ in range(3)]
        channel = cq.CQChannel(("a", "b", "c"), states)
        dist = cq.Distribution.uniform(("a", "b", "c"))
        res = cq.renyi_mutual_info(cq.RenyiOrder(1.01), channel, dist)
        gap = res.value - cq.mutual_info(channel, dist)
        assert -1e-6 < gap < 0.05


RENYI_SWEEP_ALPHAS = (1.1, 1.25, 1.5, 2.0)


def assert_matches_letterwise_fixed_point(states, masses):
    labels = tuple(str(i) for i in range(len(states)))
    channel = cq.CQChannel(labels, states)
    dist = cq.Distribution(labels, masses)
    for alpha in RENYI_SWEEP_ALPHAS:
        res = cq.renyi_mutual_info(cq.RenyiOrder(alpha), channel, dist)
        ref = orc.renyi_fixed_point(states, masses, alpha)
        assert abs(res.value - ref.value) <= 1e-12
        assert (res.iterations, res.converged) == (ref.iterations, ref.converged)


@pytest.mark.parametrize("k", range(2, 7))
@pytest.mark.parametrize("d", (2, 3, 4))
def test_renyi_mutual_info_matches_letterwise_fixed_point(d, k):
    rng = np.random.default_rng(1000 * d + k)
    states = [orc.random_density(rng, d) for _ in range(k)]
    assert_matches_letterwise_fixed_point(states, rng.dirichlet(np.ones(k)))


def test_renyi_mutual_info_matches_letterwise_fixed_point_with_a_dead_input(
        flip_erase_channel):
    channel, _ = flip_erase_channel
    assert_matches_letterwise_fixed_point(list(channel.states), [0.7, 0.3, 0.0])


def test_renyi_mutual_info_matches_letterwise_fixed_point_on_pure_states():
    rng = np.random.default_rng(77)
    kets = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
    kets /= np.linalg.norm(kets, axis=1, keepdims=True)
    states = [np.outer(v, v.conj()) for v in kets]
    assert_matches_letterwise_fixed_point(states, [0.5, 0.3, 0.2])


def _stacked_cases():
    rng = np.random.default_rng(2026)
    cases = {f"d{d}-k{k}": ([orc.random_density(rng, d) for _ in range(k)],
                            rng.dirichlet(np.ones(k)))
             for d, k in ((2, 1), (2, 4), (3, 3), (4, 6))}
    cases["dead-input"] = ([orc.random_density(rng, 3) for _ in range(4)],
                           [0.5, 0.0, 0.3, 0.2])
    # every state lives in the same 2-dimensional corner of a qutrit, so
    # W(p) has a zero eigenvalue that the floor lifts
    cases["rank-deficient"] = ([np.pad(orc.random_density(rng, 2), ((0, 1), (0, 1)))
                                for _ in range(3)], [0.2, 0.3, 0.5])
    return cases


STACKED_CASES = _stacked_cases()
STACKED_ALPHAS = (1.25, 2.0, 1.5, 1.1, 1.25)


def assert_same_fixed_points(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.value == w.value
        assert np.array_equal(g.sigma, w.sigma)
        assert (g.iterations, g.converged) == (w.iterations, w.converged)


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_fixed_point_matches_each_order_alone(case):
    states, masses = STACKED_CASES[case]
    labels = tuple(str(i) for i in range(len(states)))
    channel, dist = cq.CQChannel(labels, states), cq.Distribution(labels, masses)
    stacked = _renyi_fixed_points(STACKED_ALPHAS, channel, dist)
    assert_same_fixed_points(stacked, [cq.renyi_mutual_info(cq.RenyiOrder(alpha), channel, dist)
                                       for alpha in STACKED_ALPHAS])


def _fixed_point_sweep_case(k: int, d: int, index: int):
    """Seeded letters of every rank (rank-deficient ones included), a law
    with zero masses on some letters, and one to four orders in [1.01, 2]."""
    rng = np.random.default_rng([k, d, index, 25])
    states = [orc.random_density_of_rank(rng, d, int(rng.integers(1, d + 1)))
              for _ in range(k)]
    weights = rng.integers(0, 3, size=k).astype(float)
    weights[rng.integers(0, k)] += 1.0
    alphas = tuple(float(a) for a in rng.choice(
        [1.01, 1.1, 1.25, 1.5, 1.75, 2.0, float(rng.uniform(1.01, 2.0))],
        size=int(rng.integers(1, 5))))
    labels = tuple(str(i) for i in range(k))
    return cq.CQChannel(labels, states), cq.Distribution(labels, weights / weights.sum()), alphas


FIXED_POINT_SWEEP = [(k, d) for k in range(1, 7) for d in (1, 2, 3)]


@pytest.mark.parametrize("k, d", FIXED_POINT_SWEEP,
                         ids=[f"k{k}-d{d}" for k, d in FIXED_POINT_SWEEP])
def test_fixed_point_has_the_bits_of_the_listed_loop(k, d):
    # the stack of orders against a loop over the listed orders, each run
    # alone, 8 channels per (k, d)
    for index in range(8):
        channel, dist, alphas = _fixed_point_sweep_case(k, d, index)
        got = _renyi_fixed_points(alphas, channel, dist)
        assert len(got) == len(alphas)
        assert_same_fixed_points(got, [cq.renyi_mutual_info(cq.RenyiOrder(alpha), channel, dist)
                                       for alpha in alphas])


def test_hermitian_part_is_hermitian_bit_for_bit():
    # why the floor step tests only finiteness: (A + A†)/2 computes entry
    # (j, i) as the conjugate of entry (i, j), at any magnitude
    rng = np.random.default_rng(25)
    for _ in range(2000):
        d = int(rng.integers(1, 5))
        mags = 10.0 ** rng.uniform(-320, 300, size=(2, 3, d, d))
        signs = rng.choice([-1.0, 1.0], size=mags.shape)
        part = linalg.hermitianize((signs * mags)[0] + 1j * (signs * mags)[1])
        assert np.array_equal(part, np.swapaxes(part.conj(), -1, -2))


def test_fixed_points_of_no_orders_are_empty():
    channel, dist, _ = _fixed_point_sweep_case(3, 2, 0)
    assert _renyi_fixed_points((), channel, dist) == []


# ---------------------------------------------------------------------------
# the in-process memo of the fixed point


@pytest.fixture
def cold_memo():
    info._renyi_memo.cache_clear()
    yield info._renyi_memo
    info._renyi_memo.cache_clear()


@pytest.mark.parametrize("k, d", FIXED_POINT_SWEEP,
                         ids=[f"k{k}-d{d}" for k, d in FIXED_POINT_SWEEP])
def test_memo_hit_has_the_bits_of_a_cold_run(k, d, cold_memo):
    for index in range(8):
        channel, dist, alphas = _fixed_point_sweep_case(k, d, index)
        cold_memo.cache_clear()
        cold = _renyi_fixed_points(alphas, channel, dist)
        # other labels, same states and masses: the value does not read labels
        labels = tuple(f"x{i}" for i in range(k))
        hit = _renyi_fixed_points(alphas, cq.CQChannel(labels, channel.states),
                                  cq.Distribution(labels, dist.masses))
        assert cold_memo.cache_info()[:2] == (1, 1)  # hits, misses
        # and a run outside the memo, on the channel's own arrays
        want = info._renyi_stack(alphas, channel.states, dist.masses)
        assert_same_fixed_points(cold, want)
        assert_same_fixed_points(hit, want)


def test_a_caller_mutating_sigma_leaves_the_next_result_unchanged(cold_memo):
    channel, dist, _ = _fixed_point_sweep_case(3, 2, 1)
    alphas = (1.5, 2.0)
    first = _renyi_fixed_points(alphas, channel, dist)
    kept = [res.sigma.copy() for res in first]
    for res in first:
        res.sigma[...] = 7.0
    again = _renyi_fixed_points(alphas, channel, dist)
    assert cold_memo.cache_info().hits == 1
    assert all(np.array_equal(res.sigma, want) for res, want in zip(again, kept))
    third = _renyi_fixed_points(alphas, channel, dist)
    assert all(a.sigma is not b.sigma for a, b in zip(again, third))


def test_a_state_one_ulp_away_or_two_masses_swapped_miss(cold_memo):
    rng = np.random.default_rng(28)
    states = np.array([orc.random_density(rng, 2) for _ in range(3)])
    bumped = states.copy()
    bumped[1, 0, 0] = np.nextafter(bumped[1, 0, 0].real, 1.0)
    labels, alphas = ("a", "b", "c"), (1.25, 2.0)
    law, swapped = (0.5, 0.3, 0.2), (0.3, 0.5, 0.2)
    for case_states, masses in ((states, law), (bumped, law), (states, swapped)):
        channel, dist = cq.CQChannel(labels, case_states), cq.Distribution(labels, masses)
        got = _renyi_fixed_points(alphas, channel, dist)
        assert_same_fixed_points(got, info._renyi_stack(alphas, channel.states, dist.masses))
    assert cold_memo.cache_info()[:2] == (0, 3)


def test_an_alphabet_mismatch_raises_with_the_key_cached(cold_memo):
    channel, dist, alphas = _fixed_point_sweep_case(3, 2, 2)
    _renyi_fixed_points(alphas, channel, dist)
    relabelled = cq.Distribution(("x", "y", "z"), dist.masses)
    with pytest.raises(errors.ValidationError, match="alphabet"):
        _renyi_fixed_points(alphas, channel, relabelled)
    with pytest.raises(errors.ValidationError, match="alphabet"):
        cq.renyi_mutual_info(cq.RenyiOrder(alphas[0]), channel, relabelled)
    assert cold_memo.cache_info().hits == 0


def test_the_memo_holds_at_most_its_entries(cold_memo):
    for index in range(3 * info.RENYI_MEMO_ENTRIES):
        channel, dist, alphas = _fixed_point_sweep_case(2, 2, index)
        _renyi_fixed_points(alphas, channel, dist)
        assert cold_memo.cache_info().currsize <= info.RENYI_MEMO_ENTRIES
    assert cold_memo.cache_info().currsize == info.RENYI_MEMO_ENTRIES
    assert cold_memo.cache_info().misses == 3 * info.RENYI_MEMO_ENTRIES


def test_soft_cover_runs_the_fixed_point_once_across_n(monkeypatch, cold_memo):
    stack, calls = info._renyi_stack, []

    def counted(alphas, states, masses):
        calls.append(alphas)
        return stack(alphas, states, masses)

    monkeypatch.setattr(info, "_renyi_stack", counted)
    rng = np.random.default_rng(281)
    labels = ("a", "b", "c")
    channel = cq.CQChannel(labels, [orc.random_density(rng, 2) for _ in labels])
    dist = cq.Distribution(labels, [0.5, 0.3, 0.2])
    orders = (cq.RenyiOrder(1.5), cq.RenyiOrder(2.0))
    reports = [cq.soft_cover_simulate(channel, dist, 4, n, 10, 7, orders=orders)
               for n in (1, 2, 3)]
    assert calls == [(1.5, 2.0)]
    cold_memo.cache_clear()
    cold = cq.soft_cover_simulate(channel, dist, 4, 3, 10, 7, orders=orders)
    assert len(calls) == 2
    assert cold.bounds == reports[-1].bounds
    assert cold.renyi_iterations == reports[-1].renyi_iterations
    assert cold.renyi_converged == reports[-1].renyi_converged


def test_floor_and_normalize_raises_on_a_nan_mix():
    mixes = np.repeat(np.eye(2, dtype=complex)[None] / 2, 3, axis=0)
    mixes[1, 0, 1] = complex(math.nan, 0.0)
    with pytest.raises(errors.ValidationError, match="NaN or infinite"):
        info._floor_and_normalize(mixes)


def test_renyi_mutual_info_returns_density_minimizer():
    rng = np.random.default_rng(19)
    states = [orc.random_density(rng, 2) for _ in range(2)]
    channel = cq.CQChannel(("a", "b"), states)
    dist = cq.Distribution.uniform(("a", "b"))
    res = cq.renyi_mutual_info(cq.RenyiOrder(1.5), channel, dist)
    cq.validate_density(res.sigma)
    assert res.iterations >= 1


# ---------------------------------------------------------------------------
# pinching


def test_pinch_single_block_is_identity_map():
    rng = np.random.default_rng(20)
    rho = orc.random_density(rng, 3)
    pmap = cq.PinchingMap((np.eye(3),))
    np.testing.assert_allclose(cq.pinch(pmap, rho), rho, atol=1e-12)


def test_pinching_from_flat_spectrum_is_identity():
    pmap = orc.pinching_from_spectrum(np.eye(2) / 2)
    assert pmap.num_blocks == 1
    rng = np.random.default_rng(21)
    rho = orc.random_density(rng, 2)
    np.testing.assert_allclose(cq.pinch(pmap, rho), rho, atol=1e-12)


def test_pinching_map_refuses_a_diagonal_block_that_is_not_idempotent():
    with pytest.raises(errors.ValidationError, match="not idempotent"):
        cq.PinchingMap((np.diag([1.0, 0.5]), np.diag([0.0, 0.5])))


@pytest.mark.parametrize("imag", [3e-11, -5e-11, 2e-10, -0.25, float("nan")])
def test_pinching_map_refuses_a_diagonal_block_as_the_dense_check_does(imag):
    # A diagonal block is checked on its diagonal alone; its Hermiticity gap
    # |2·Im qᵢᵢ| is the dense check's, so both accept or refuse alike, in the
    # same words; a gap of exactly 1e-10 (imag −5e-11) is accepted.
    blocks = (np.diag([1.0, 0.0, 0.0]) + 0j, np.diag([0.0, 1.0, 1.0 + 1j * imag]))

    def refusal(check):
        try:
            check()
        except errors.ValidationError as exc:
            return str(exc)
        return None

    want = next(filter(None, (refusal(lambda b=b: cq.validate_hermitian(b)) for b in blocks)),
                None)
    assert refusal(lambda: cq.PinchingMap(blocks)) == want
    assert (want is None) == (abs(2 * imag) <= 1e-10)


def _pinching_family(rng, index: int):
    """Three to five blocks of a 4-dimensional family: index mod 4 picks diagonal
    blocks, blocks rotated by one unitary, or one of each. Entries are moved
    by ±0.5, ±1 or ±2 times 1e-9 at random, to both sides of the tolerance."""
    d, shape = 4, index % 4
    cut = np.sort(rng.choice(np.arange(1, d), size=int(rng.integers(2, 4)) - 1, replace=False))
    blocks = [np.diag((np.arange(d) >= lo) & (np.arange(d) < hi)).astype(complex)
              for lo, hi in zip([0, *cut], [*cut, d])]
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    if shape == 1:
        blocks = [u @ b @ u.conj().T for b in blocks]
    elif shape == 2:
        blocks[0] = u @ blocks[0] @ u.conj().T
    nudge = rng.choice([0.0, 0.5e-9, -0.5e-9, 1e-9, -1e-9, 2e-9, -2e-9])
    at = int(rng.integers(0, d))
    blocks[int(rng.integers(0, len(blocks)))][at, at] += nudge
    if shape == 3:
        blocks.append(np.zeros((d, d), dtype=complex))
        blocks[-1][at, at] = rng.choice([0.0, 1e-10, 1.0])
    return tuple(blocks)


def test_pinching_map_refuses_what_the_dense_check_refuses():
    rng = np.random.default_rng(32)
    outcomes = set()
    for index in range(400):
        blocks = _pinching_family(rng, index)
        want = orc.dense_pinching_refusal(blocks)
        try:
            cq.PinchingMap(blocks)
            got = None
        except (errors.ValidationError, errors.DimensionMismatchError) as exc:
            got = f"{type(exc).__name__}: {exc}"
        assert got == want, index
        outcomes.add(want)
    assert len(outcomes) == 3


def test_pinch_nondegenerate_spectrum_diagonalizes():
    pmap = orc.pinching_from_spectrum(np.diag([0.8, 0.2]))
    assert pmap.num_blocks == 2
    rng = np.random.default_rng(22)
    rho = orc.random_density(rng, 2)
    out = cq.pinch(pmap, rho)
    assert abs(out[0, 1]) < 1e-12
    assert float(np.real(np.trace(out))) == pytest.approx(1.0, abs=1e-10)


def test_pinch_is_idempotent():
    rng = np.random.default_rng(23)
    sigma, rho = orc.random_density(rng, 4), orc.random_density(rng, 4)
    pmap = orc.pinching_from_spectrum(sigma)
    once = cq.pinch(pmap, rho)
    np.testing.assert_allclose(cq.pinch(pmap, once), once, atol=1e-10)


def test_pinching_map_requires_complete_blocks():
    with pytest.raises(errors.ValidationError):
        cq.PinchingMap((np.diag([1.0, 0.0]),))  # blocks don't sum to identity


def test_pinch_rejects_dimension_mismatch():
    pmap = orc.pinching_from_spectrum(np.diag([0.8, 0.2]))
    with pytest.raises(errors.DimensionMismatchError):
        cq.pinch(pmap, np.eye(3) / 3)


def test_pinching_of_smoothed_operator_block_count():
    rng = np.random.default_rng(24)
    for _ in range(10):
        rho = orc.random_density(rng, 5)
        v = int(rng.integers(1, 6))
        ceil = cq.ceil_operator(rho, cq.SmoothingParams(lam=0.7, v=v, L=1.0))
        pmap = orc.pinching_from_spectrum(ceil)
        assert pmap.num_blocks <= v + 1


def test_pinching_data_processing_on_500_pairs():
    rng = np.random.default_rng(25)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho, sigma = orc.random_density(rng, d), orc.random_density(rng, d)
        ref = orc.random_density(rng, d)
        pmap = orc.pinching_from_spectrum(ref)
        before = cq.qrel_entropy(rho, sigma)
        after = cq.qrel_entropy(cq.pinch(pmap, rho), cq.pinch(pmap, sigma))
        if math.isinf(before):
            continue
        assert after <= before + 1e-8


def test_pinching_inequality_block_count_factor():
    rng = np.random.default_rng(26)
    for _ in range(50):
        d = int(rng.integers(2, 5))
        rho, ref = orc.random_density(rng, d), orc.random_density(rng, d)
        pmap = orc.pinching_from_spectrum(ref)
        k = pmap.num_blocks
        assert_psd(k * cq.pinch(pmap, rho) - rho, slack=1e-9)


def test_type_pinching_sandwich_for_product_states():
    rng = np.random.default_rng(27)
    for _ in range(3):
        sigma, rho = orc.random_density(rng, 2), orc.random_density(rng, 2)
        basis = cq.Basis(cq.eigh(rho).eigenvectors)
        for n in (1, 2, 3, 4):
            sig_n, rho_n = cq.tensor_power(sigma, n), cq.tensor_power(rho, n)
            pinched = cq.pinch(cq.type_pinching(basis, n), sig_n)
            for s in (0.25, 0.5, 0.75):
                low = -cq.phi(s, pinched, rho_n)
                mid = -cq.phi(s, sig_n, rho_n)
                assert low <= mid + 1e-8
                assert mid <= low + s * math.log2(n + 1) + 1e-8


# ---------------------------------------------------------------------------
# spectral CDF (oracles)


def test_spectral_cdf_self_reference_saturates():
    rng = np.random.default_rng(28)
    rho = orc.random_density(rng, 3)
    assert orc.spectral_cdf(rho, rho, 0.0) == pytest.approx(1.0, abs=1e-10)
    assert orc.spectral_cdf(rho, rho, 2.0) == pytest.approx(1.0, abs=1e-10)


def test_spectral_cdf_disjoint_supports():
    assert orc.spectral_cdf(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]),
                           0.0) == pytest.approx(0.0, abs=1e-12)


def test_spectral_cdf_commuting_matches_classical():
    rng = np.random.default_rng(29)
    for _ in range(20):
        d = int(rng.integers(2, 5))
        p = rng.dirichlet(np.full(d, 1.0))
        q = rng.dirichlet(np.full(d, 1.0))
        a = float(rng.uniform(-2, 2))
        got = orc.spectral_cdf(np.diag(p), np.diag(q), a)
        assert got == pytest.approx(orc.spectral_cdf_classical(p, q, a),
                                    abs=1e-10)


def test_spectral_cdf_rejects_a_whose_scaled_reference_overflows():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(errors.ValidationError, match=r"^a must be .*, got 1023\.0$"):
            orc.spectral_cdf(np.eye(2) / 2, 4 * np.eye(2), 1023.0)
        # 2^1023·λ_max stays finite for a reference with λ_max < 2.
        assert orc.spectral_cdf(np.eye(2) / 2, np.eye(2), 1023.0) == 1.0


def test_spectral_cdf_monotone_in_threshold():
    rng = np.random.default_rng(30)
    for _ in range(10):
        d = int(rng.integers(2, 5))
        rho, sigma = orc.random_density(rng, d), orc.random_density(rng, d)
        grid = np.linspace(-3, 3, 25)
        vals = [orc.spectral_cdf(rho, sigma, float(a)) for a in grid]
        assert all(b >= a - 1e-10 for a, b in zip(vals, vals[1:]))
        assert all(-1e-12 <= v <= 1 + 1e-12 for v in vals)
