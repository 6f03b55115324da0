"""Dense Hermitian kernel: eigendecomposition, norms, projectors, tensor powers."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
import cqresolve.linalg as linalg
from cqresolve import errors
import oracles as orc

from conftest import assert_psd


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------------------
# eigh


def test_eigh_pauli_x_eigenvalues():
    pauli_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    dec = cq.eigh(pauli_x)
    np.testing.assert_allclose(dec.eigenvalues, [1.0, -1.0], atol=1e-12)


def test_eigh_diagonal_keeps_standard_basis():
    dec = cq.eigh(np.diag([0.8, 0.2]))
    np.testing.assert_allclose(dec.eigenvalues, [0.8, 0.2], atol=1e-12)
    # columns equal standard basis vectors up to phase
    overlap = np.abs(dec.eigenvectors)
    np.testing.assert_allclose(overlap, np.eye(2), atol=1e-12)


def test_eigh_eigenvalues_sorted_descending_and_orthonormal():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 6)
    dec = cq.eigh(a)
    assert np.all(np.diff(dec.eigenvalues) <= 1e-12)
    gram = dec.eigenvectors.conj().T @ dec.eigenvectors
    np.testing.assert_allclose(gram, np.eye(6), atol=1e-10)


def test_eigh_reconstruction_on_1000_random_matrices():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 9))
        a = random_hermitian(rng, d)
        dec = cq.eigh(a)
        recon = dec.eigenvectors @ np.diag(dec.eigenvalues) @ dec.eigenvectors.conj().T
        worst = max(worst, float(np.max(np.abs(recon - a))))
    assert worst < 1e-9


def test_eigh_rejects_non_hermitian():
    with pytest.raises(errors.ValidationError):
        cq.eigh(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_eigh_groups_degenerate_eigenvalues():
    dec = cq.eigh(np.diag([0.5, 0.5, 0.25]))
    assert len(dec.blocks) == 2
    sizes = sorted(len(b) for b in dec.blocks)
    assert sizes == [1, 2]


def test_jacobi_eigh_matches_default_solver():
    rng = np.random.default_rng(99)
    for _ in range(50):
        d = int(rng.integers(1, 9))
        a = random_hermitian(rng, d)
        ev_default = cq.eigh(a).eigenvalues
        jac = orc.jacobi_eigh(a)
        np.testing.assert_allclose(jac.eigenvalues, ev_default, atol=1e-9)
        recon = jac.eigenvectors @ np.diag(jac.eigenvalues) @ jac.eigenvectors.conj().T
        assert float(np.max(np.abs(recon - a))) < 1e-9


# ---------------------------------------------------------------------------
# trace_norm


def test_trace_norm_of_zero_difference():
    rho = np.diag([0.6, 0.4])
    assert cq.trace_norm(rho - rho) == pytest.approx(0.0, abs=1e-12)


def test_trace_norm_of_orthogonal_pure_states():
    diff = np.diag([1.0, 0.0]) - np.diag([0.0, 1.0])
    assert cq.trace_norm(diff) == pytest.approx(2.0, abs=1e-12)


def test_trace_norm_of_zero_vs_plus_state():
    plus = np.full((2, 2), 0.5)
    diff = np.diag([1.0, 0.0]) - plus
    assert cq.trace_norm(diff) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_trace_norm_matches_svd_oracle():
    rng = np.random.default_rng(21)
    for _ in range(100):
        d = int(rng.integers(1, 7))
        a = random_hermitian(rng, d)
        assert cq.trace_norm(a) == pytest.approx(orc.trace_norm_svd(a), abs=1e-9)


def test_trace_norm_equals_abs_eigenvalue_sum():
    rng = np.random.default_rng(22)
    a = random_hermitian(rng, 5)
    dec = cq.eigh(a)
    assert cq.trace_norm(a) == pytest.approx(float(np.sum(np.abs(dec.eigenvalues))),
                                             abs=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_trace_norm_dominates_projector_functional(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    a = random_hermitian(rng, d)
    p = orc.random_projector(rng, d, int(rng.integers(1, d + 1)))
    lhs = cq.trace_norm(a)
    rhs = 2.0 * abs(float(np.real(np.trace(a @ p)))) - abs(float(np.real(np.trace(a))))
    assert lhs >= rhs - 1e-9


# ---------------------------------------------------------------------------
# positive_part_projector


def test_positive_part_projector_diagonal_comparison():
    p = cq.positive_part_projector(np.diag([2.0, 0.0]), np.diag([1.0, 1.0]))
    np.testing.assert_allclose(p, np.diag([0.0, 1.0]), atol=1e-10)


def test_positive_part_projector_equal_operators_gives_identity():
    a = np.diag([0.3, 0.7])
    p = cq.positive_part_projector(a, a)
    np.testing.assert_allclose(p, np.eye(2), atol=1e-10)


def test_positive_part_projector_psd_argument_gives_identity():
    rng = np.random.default_rng(5)
    b = orc.random_density(rng, 3)
    p = cq.positive_part_projector(np.zeros((3, 3)), b)
    np.testing.assert_allclose(p, np.eye(3), atol=1e-10)


def test_positive_part_projector_is_projector():
    rng = np.random.default_rng(17)
    a, b = random_hermitian(rng, 5), random_hermitian(rng, 5)
    p = cq.positive_part_projector(a, b)
    np.testing.assert_allclose(p, p.conj().T, atol=1e-9)
    np.testing.assert_allclose(p @ p, p, atol=1e-9)


def test_positive_part_projector_rejects_dimension_mismatch():
    with pytest.raises(errors.DimensionMismatchError):
        cq.positive_part_projector(np.eye(2), np.eye(3))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_positive_part_projector_maximizes_trace_functional(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 6))
    a, b = random_hermitian(rng, d), random_hermitian(rng, d)
    diff = b - a
    p = cq.positive_part_projector(a, b)
    best = float(np.real(np.trace(diff @ p)))
    for _ in range(5):
        q = orc.random_projector(rng, d, int(rng.integers(1, d + 1)))
        assert best >= float(np.real(np.trace(diff @ q))) - 1e-9


# ---------------------------------------------------------------------------
# tensor_power


def test_tensor_power_one_is_identity_map():
    rho = np.diag([0.25, 0.75])
    np.testing.assert_allclose(cq.tensor_power(rho, 1), rho, atol=1e-12)


def test_tensor_power_of_maximally_mixed():
    out = cq.tensor_power(np.diag([0.5, 0.5]), 2)
    np.testing.assert_allclose(out, np.eye(4) / 4, atol=1e-12)


def test_tensor_power_trace_multiplicative():
    rng = np.random.default_rng(31)
    rho = orc.random_density(rng, 3)
    out = cq.tensor_power(rho, 3)
    assert float(np.real(np.trace(out))) == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("n", range(1, 5))
def test_tensor_power_matches_kronecker_oracle_bitwise(n):
    rho = orc.random_density(np.random.default_rng(n), 3)
    assert np.array_equal(cq.tensor_power(rho, n), orc.word_state([rho], [0] * n))


@pytest.mark.parametrize("n", range(1, 6))
def test_iid_masses_match_kronecker_loop_bitwise(n):
    masses = np.random.default_rng(n).dirichlet(np.ones(4))
    want = masses
    for _ in range(n - 1):
        want = np.kron(want, masses)
    assert np.array_equal(linalg._kron_rows(masses, n), want)


def test_tensor_power_respects_dimension_cap():
    with pytest.raises(errors.ResourceLimitError):
        cq.tensor_power(np.eye(2) / 2, 13)  # 2^13 = 8192 > 4096


# ---------------------------------------------------------------------------
# validation helpers


def test_validate_density_accepts_valid_state():
    cq.validate_density(np.diag([0.5, 0.5]))


def test_validate_density_rejects_negative_eigenvalue():
    with pytest.raises(errors.ValidationError):
        cq.validate_density(np.diag([1.1, -0.1]))


def test_validate_density_rejects_wrong_trace():
    with pytest.raises(errors.ValidationError):
        cq.validate_density(np.diag([0.6, 0.6]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_validate_density_rejects_non_finite_entry(bad, where):
    m = np.diag([0.5, 0.5]).astype(complex)
    m[where] = bad
    with pytest.raises(errors.ValidationError, match="NaN or infinite"):
        cq.validate_density(m)


@pytest.mark.parametrize("validate", [cq.validate_density, cq.validate_hermitian])
def test_validators_take_one_square_matrix(validate):
    with pytest.raises(errors.ValidationError, match="square matrix"):
        validate(np.stack([np.eye(2) / 2] * 2))


def test_validate_hermitian_rejects_asymmetric():
    with pytest.raises(errors.ValidationError):
        cq.validate_hermitian(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_positive_part_projector_boundary_includes_small_negatives():
    # eigenvalues of b−a within −1e-10 of zero count as zero and are kept
    a = np.diag([1.0, 1.0])
    b = np.diag([1.0 - 5e-11, 2.0])
    p = cq.positive_part_projector(a, b)
    np.testing.assert_allclose(p, np.eye(2), atol=1e-9)
    assert_psd(p)
