"""Entropies, divergences, Rényi quantities, pinching, and the reference spectral CDF."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import errors
from cqresolve.info import _entropy_terms, _renyi_fixed_points
import oracles as orc

from conftest import assert_psd


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


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_fixed_point_matches_each_order_alone(case):
    states, masses = STACKED_CASES[case]
    labels = tuple(str(i) for i in range(len(states)))
    channel, dist = cq.CQChannel(labels, states), cq.Distribution(labels, masses)
    stacked = _renyi_fixed_points(STACKED_ALPHAS, channel, dist)
    for alpha, got in zip(STACKED_ALPHAS, stacked):
        alone = cq.renyi_mutual_info(cq.RenyiOrder(alpha), channel, dist)
        loop = orc.renyi_fixed_point_one_order(states, masses, alpha)
        for want in (alone, loop):
            assert got.value == want.value
            assert np.array_equal(got.sigma, want.sigma)
            assert (got.iterations, got.converged) == (want.iterations, want.converged)


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
    pmap = cq.pinching_from_spectrum(np.eye(2) / 2)
    assert pmap.num_blocks == 1
    rng = np.random.default_rng(21)
    rho = orc.random_density(rng, 2)
    np.testing.assert_allclose(cq.pinch(pmap, rho), rho, atol=1e-12)


def test_pinch_nondegenerate_spectrum_diagonalizes():
    pmap = cq.pinching_from_spectrum(np.diag([0.8, 0.2]))
    assert pmap.num_blocks == 2
    rng = np.random.default_rng(22)
    rho = orc.random_density(rng, 2)
    out = cq.pinch(pmap, rho)
    assert abs(out[0, 1]) < 1e-12
    assert float(np.real(np.trace(out))) == pytest.approx(1.0, abs=1e-10)


def test_pinch_is_idempotent():
    rng = np.random.default_rng(23)
    sigma, rho = orc.random_density(rng, 4), orc.random_density(rng, 4)
    pmap = cq.pinching_from_spectrum(sigma)
    once = cq.pinch(pmap, rho)
    np.testing.assert_allclose(cq.pinch(pmap, once), once, atol=1e-10)


def test_pinching_map_requires_complete_blocks():
    with pytest.raises(errors.ValidationError):
        cq.PinchingMap((np.diag([1.0, 0.0]),))  # blocks don't sum to identity


def test_pinch_rejects_dimension_mismatch():
    pmap = cq.pinching_from_spectrum(np.diag([0.8, 0.2]))
    with pytest.raises(errors.DimensionMismatchError):
        cq.pinch(pmap, np.eye(3) / 3)


def test_pinching_of_smoothed_operator_block_count():
    rng = np.random.default_rng(24)
    for _ in range(10):
        rho = orc.random_density(rng, 5)
        v = int(rng.integers(1, 6))
        ceil = cq.ceil_operator(rho, cq.SmoothingParams(lam=0.7, v=v, L=1.0))
        pmap = cq.pinching_from_spectrum(ceil)
        assert pmap.num_blocks <= v + 1


def test_pinching_data_processing_on_500_pairs():
    rng = np.random.default_rng(25)
    for _ in range(500):
        d = int(rng.integers(2, 5))
        rho, sigma = orc.random_density(rng, d), orc.random_density(rng, d)
        ref = orc.random_density(rng, d)
        pmap = cq.pinching_from_spectrum(ref)
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
        pmap = cq.pinching_from_spectrum(ref)
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
