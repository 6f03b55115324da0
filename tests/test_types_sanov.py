"""Tests for empirical states, type projectors, the twirling margin, and the
reference majorization, Sanov exponent and twirl kept in the oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import ValidationError
from cqresolve.types_sanov import _empirical_state

import oracles as orc


def standard_basis(d: int) -> cq.Basis:
    return cq.Basis.standard(d)


# ---------------------------------------------------------------------------
# Basis / EmpiricalState
# ---------------------------------------------------------------------------


class TestBasisAndEmpiricalState:
    def test_non_orthonormal_rejected(self):
        with pytest.raises(ValidationError):
            cq.Basis(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex))

    def test_rotated_basis_accepted(self):
        theta = 0.37
        v = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
        basis = cq.Basis(v)
        assert basis.dim == 2

    def test_counts_must_sum_to_n(self):
        with pytest.raises(ValidationError):
            cq.EmpiricalState((2, 1), 4)
        with pytest.raises(ValidationError):
            cq.EmpiricalState((-1, 5), 4)

    def test_word_0010_has_counts_31(self):
        es = _empirical_state(cq.Word((0, 0, 1, 0)), 2)
        assert es.counts == (3, 1)
        assert es.n == 4

    def test_constant_word_point_counts(self):
        es = _empirical_state(cq.Word((2, 2, 2)), 3)
        assert es.counts == (0, 0, 3)

    def test_index_out_of_range(self):
        with pytest.raises(ValidationError, match="basis index 3 out of range"):
            cq.ee31_margin(cq.Word((0, 3)), 2)

    def test_density_matches_diagonal_channel_empirical_output(self):
        # For the channel x ↦ |x⟩⟨x| the empirical output of a word is
        # exactly the normalized letter-count diagonal.
        d = 3
        ch = cq.CQChannel(
            (0, 1, 2),
            tuple(np.diag(np.eye(d)[i]).astype(complex) for i in range(d)),
        )
        w = cq.Word((0, 2, 2, 1, 0, 0))
        es = _empirical_state(w, d)
        np.testing.assert_allclose(np.diag(es.distribution()),
                                   cq.empirical_output(ch, w), atol=1e-12)

    def test_type_count_formula(self):
        for n, d in [(4, 2), (5, 3), (6, 2), (3, 4)]:
            states = cq.all_empirical_states(n, d)
            assert len(states) == math.comb(n + d - 1, d - 1)
            assert len(set(s.counts for s in states)) == len(states)


# ---------------------------------------------------------------------------
# type_projector
# ---------------------------------------------------------------------------


class TestTypeProjector:
    def test_balanced_pair_rank_two(self):
        t = cq.EmpiricalState((1, 1), 2)
        proj = cq.type_projector(t, standard_basis(2))
        expected = np.diag([0.0, 1.0, 1.0, 0.0]).astype(complex)
        np.testing.assert_allclose(proj.matrix, expected, atol=1e-12)
        assert t.rank() == 2

    def test_point_type_rank_one(self):
        t = cq.EmpiricalState((0, 3), 3)
        proj = cq.type_projector(t, standard_basis(2))
        assert t.rank() == 1
        assert np.linalg.matrix_rank(proj.matrix) == 1
        vec = np.zeros(8)
        vec[7] = 1.0
        np.testing.assert_allclose(proj.matrix @ vec, vec, atol=1e-12)

    def test_projector_properties(self):
        t = cq.EmpiricalState((2, 1), 3)
        m = cq.type_projector(t, standard_basis(2)).matrix
        np.testing.assert_allclose(m @ m, m, atol=1e-12)
        np.testing.assert_allclose(m, m.conj().T, atol=1e-12)

    def test_rank_sum_partitions_word_set(self):
        for n, d in [(4, 2), (3, 3), (5, 2)]:
            total = sum(t.rank() for t in cq.all_empirical_states(n, d))
            assert total == d ** n

    def test_matrix_partition_of_identity(self):
        n, d = 3, 2
        acc = np.zeros((d ** n, d ** n), dtype=complex)
        for t in cq.all_empirical_states(n, d):
            acc += cq.type_projector(t, standard_basis(d)).matrix
        np.testing.assert_allclose(acc, np.eye(d ** n), atol=1e-9)

    def test_matrix_partition_in_rotated_basis(self):
        theta = 0.81
        v = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
        basis = cq.Basis(v)
        n = 2
        acc = np.zeros((4, 4), dtype=complex)
        for t in cq.all_empirical_states(n, 2):
            m = cq.type_projector(t, basis).matrix
            np.testing.assert_allclose(m @ m, m, atol=1e-10)
            acc += m
        np.testing.assert_allclose(acc, np.eye(4), atol=1e-9)

    def test_dimension_cap(self):
        t = cq.EmpiricalState((13, 0), 13)
        with pytest.raises(cq.ResourceLimitError):
            cq.type_projector(t, standard_basis(2))


# ---------------------------------------------------------------------------
# majorizes (oracles)
# ---------------------------------------------------------------------------


class TestMajorizes:
    def test_example_pair(self):
        assert orc.majorizes((0.7, 0.3), (0.6, 0.4))
        assert not orc.majorizes((0.6, 0.4), (0.7, 0.3))

    def test_reflexive(self):
        assert orc.majorizes((0.5, 0.3, 0.2), (0.5, 0.3, 0.2))

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10 ** 6))
    def test_uniform_majorized_by_everything(self, d, seed):
        rng = np.random.default_rng(seed)
        q = rng.dirichlet(np.ones(d))
        assert orc.majorizes(q, np.full(d, 1.0 / d))

    def test_length_mismatch(self):
        with pytest.raises(ValidationError):
            orc.majorizes((0.5, 0.5), (0.5, 0.3, 0.2))

    def test_order_convention_irrelevant(self):
        # Inputs are resorted internally, so ascending storage gives the
        # same verdict as descending.
        assert orc.majorizes((0.3, 0.7), (0.4, 0.6))


# ---------------------------------------------------------------------------
# sanov_exponent / sanov_member (oracles)
# ---------------------------------------------------------------------------


class TestSanov:
    def test_all_terms_cancel(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        q = orc.SanovQuery((0.8, 0.2), cq.EmpiricalState((8, 2), 10), rho, 1.0)
        assert orc.sanov_exponent(q) == pytest.approx(0.0, abs=1e-12)
        assert orc.sanov_member(q)

    def test_reduces_to_divergence_when_p_matches(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        q = orc.SanovQuery((0.7, 0.3), cq.EmpiricalState((7, 3), 10), rho, 1.0)
        expected = orc.kl_bits(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        assert orc.sanov_exponent(q) == pytest.approx(expected, abs=1e-12)

    def test_commuting_value_one_minus_h(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        q = orc.SanovQuery((0.8, 0.2), cq.EmpiricalState((8, 2), 10), rho, 1.0)
        val = orc.sanov_exponent(q)
        assert val == pytest.approx(1.0 - orc.binary_entropy_ref(0.2), abs=1e-12)
        assert val == pytest.approx(0.278, abs=5e-4)

    def test_majorization_violation_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        q = orc.SanovQuery((0.5, 0.5), cq.EmpiricalState((8, 2), 10), rho, 1.0)
        with pytest.raises(ValidationError):
            orc.sanov_exponent(q)

    def test_support_violation_gives_infinity(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        q = orc.SanovQuery((0.9, 0.1), cq.EmpiricalState((9, 1), 10), rho, 5.0)
        assert orc.sanov_exponent(q) == math.inf
        assert not orc.sanov_member(q)

    def test_membership_monotone_in_radius(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        es = cq.EmpiricalState((8, 2), 10)
        val = orc.sanov_exponent(orc.SanovQuery((0.8, 0.2), es, rho, 1.0))
        below = orc.SanovQuery((0.8, 0.2), es, rho, val * 0.9)
        above = orc.SanovQuery((0.8, 0.2), es, rho, val * 1.1)
        assert not orc.sanov_member(below)
        assert orc.sanov_member(above)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10 ** 6))
    def test_nonnegative_when_p_is_own_spectrum(self, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 8))
        cuts = np.sort(rng.multinomial(n, rng.dirichlet(np.ones(d))))[::-1]
        probs = rng.dirichlet(np.ones(d))
        rho = np.diag(np.sort(probs)[::-1]).astype(complex)
        es = cq.EmpiricalState(tuple(int(c) for c in cuts), n)
        spectrum = np.asarray(cuts, dtype=float) / n
        q = orc.SanovQuery(tuple(spectrum), es, rho, 10.0)
        assert orc.sanov_exponent(q) >= -1e-12


# ---------------------------------------------------------------------------
# twirl (oracles; the reference sum of twirl_word_margin)
# ---------------------------------------------------------------------------


class TestTwirl:
    def test_two_letter_word_projector(self):
        e01 = np.zeros(4)
        e01[1] = 1.0
        op = np.outer(e01, e01)
        out = orc.twirl(op, 2)
        expected = np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex)
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    def test_symmetric_input_fixed(self):
        t = cq.EmpiricalState((1, 1), 2)
        m = cq.type_projector(t, standard_basis(2)).matrix
        np.testing.assert_allclose(orc.twirl(m, 2), m, atol=1e-12)

    def test_product_state_fixed(self):
        rng = np.random.default_rng(12)
        rho = orc.random_density(rng, 2)
        prod = np.kron(rho, np.kron(rho, rho))
        np.testing.assert_allclose(orc.twirl(prod, 3), prod, atol=1e-12)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(13)
        op = orc.random_density(rng, 4)  # d=2, n=2 tensor square
        once = orc.twirl(op, 2)
        twice = orc.twirl(once, 2)
        np.testing.assert_allclose(once, twice, atol=1e-12)
        assert np.trace(once) == pytest.approx(np.trace(op), abs=1e-12)

    def test_permutation_cap(self):
        op = np.eye(2 ** 8, dtype=complex)
        with pytest.raises(cq.ResourceLimitError):
            orc.twirl(op, 8)

    def test_non_tensor_power_dimension_rejected(self):
        with pytest.raises(ValidationError):
            orc.twirl(np.eye(6, dtype=complex), 2)


@pytest.mark.parametrize("bad", [True, False, 0, -1, 2.5, "2"])
@pytest.mark.parametrize("call", [
    lambda bad: orc.twirl(np.eye(2, dtype=complex), bad),
    lambda bad: cq.all_empirical_states(bad, 2),
    lambda bad: cq.all_empirical_states(2, bad),
    lambda bad: cq.EmpiricalState((1, 0), n=bad),
], ids=["twirl-n", "all_empirical_states-n", "all_empirical_states-d",
        "EmpiricalState-n"])
def test_integer_arguments_must_be_positive_ints(call, bad):
    with pytest.raises(ValidationError, match="must be a positive integer"):
        call(bad)


# ---------------------------------------------------------------------------
# bad_codeword_test
# ---------------------------------------------------------------------------


class TestBadCodeword:
    def test_constant_on_average_letter_never_bad(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        p = cq.Distribution.point_mass(("0", "1", "e"), "e")
        w = cq.Word(("e", "e", "e", "e"))
        for delta in (1e-6, 0.5, 1.9):
            assert not cq.bad_codeword_test(ch, w, p, delta)

    def test_orthogonal_outputs_constant_word_is_bad(self):
        ch = cq.CQChannel(
            ("0", "1"),
            (np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)),
        )
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        w = cq.Word(("0", "0", "0"))
        # ‖W₀ − (W₀+W₁)/2‖₁ = 1
        assert cq.bad_codeword_test(ch, w, p, 1.0)
        assert cq.bad_codeword_test(ch, w, p, 0.3)
        assert not cq.bad_codeword_test(ch, w, p, 1.0 + 1e-9)

    def test_delta_above_two_never_bad(self):
        rng = np.random.default_rng(3)
        states = tuple(orc.random_density(rng, 2) for _ in range(3))
        ch = cq.CQChannel(("a", "b", "c"), states)
        p = cq.Distribution(("a", "b", "c"), (0.2, 0.3, 0.5))
        w = cq.Word(("a", "c", "c"))
        assert not cq.bad_codeword_test(ch, w, p, 2.0 + 1e-12)

    def test_nonpositive_delta_rejected(self, flip_erase_channel):
        ch, p = flip_erase_channel
        with pytest.raises(ValidationError):
            cq.bad_codeword_test(ch, cq.Word(("0",)), p, 0.0)


# ---------------------------------------------------------------------------
# commuting_types_bound_check
# ---------------------------------------------------------------------------


class TestCommutingTypesBound:
    def test_zero_exponent_row(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((5, 5), 10), 10)
        assert res.rhs == pytest.approx(1.0, abs=1e-12)
        assert res.lhs == pytest.approx(math.comb(10, 5) / 2 ** 10, abs=1e-15)
        assert res.ok

    def test_binomial_example_row(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((8, 2), 10), 10)
        assert res.lhs == pytest.approx(45.0 / 1024.0, abs=1e-15)
        assert res.lhs == pytest.approx(0.0439, abs=5e-5)
        expected_rhs = 2.0 ** (-10.0 * (1.0 - orc.binary_entropy_ref(0.2)))
        assert res.rhs == pytest.approx(expected_rhs, rel=1e-12)
        assert res.rhs == pytest.approx(0.1455, abs=5e-4)
        assert res.ok

    def test_exhaustive_small_sweep(self):
        rng = np.random.default_rng(21)
        for d in (2, 3):
            probs = rng.dirichlet(np.ones(d))
            rho = np.diag(probs).astype(complex)
            for n in range(1, 8):
                for t in cq.all_empirical_states(n, d):
                    assert cq.commuting_types_bound_check(rho, t, n).ok

    def test_support_violation_vacuous(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((9, 1), 10), 10)
        assert res.lhs == 0.0
        assert res.ok

    def test_non_diagonal_rejected(self):
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            cq.commuting_types_bound_check(rho, cq.EmpiricalState((1, 1), 2), 2)

    def test_block_length_mismatch_rejected(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        with pytest.raises(ValidationError):
            cq.commuting_types_bound_check(rho, cq.EmpiricalState((1, 1), 2), 3)


# ---------------------------------------------------------------------------
# EE31 twirling domination
# ---------------------------------------------------------------------------


class TestEE31:
    def test_margin_nonnegative_all_short_words(self):
        for d in (2, 3):
            for n in (1, 2, 3):
                for symbols in itertools.product(range(d), repeat=n):
                    margin = cq.ee31_margin(cq.Word(symbols), d)
                    assert margin >= -1e-9

    def test_constant_word_margin_explicit(self):
        # For a constant word the twirl is the word projector itself and
        # e(x^n)^{⊗n} equals it, so the margin is ((n+1)^{d−1} − 1)
        # on the word axis but 0 on the orthocomplement.
        margin = cq.ee31_margin(cq.Word((1, 1)), 2)
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_answers_past_the_old_dimension_cap(self):
        # d^n = 2^13: the closed form builds no d^n matrix, so d^n has no cap
        assert cq.ee31_margin(cq.Word((0,) * 13), 2) >= -1e-9
        assert cq.ee31_margin(cq.Word((0, 1) * 6 + (1,)), 2) >= -1e-9

    @pytest.mark.parametrize("d, n", [(2, n) for n in range(1, 7)]
                             + [(3, n) for n in range(1, 5)]
                             + [(4, n) for n in range(1, 4)]
                             + [(5, n) for n in range(1, 4)])
    def test_closed_form_matches_twirl_and_eigvalsh(self, d, n):
        for symbols in itertools.product(range(d), repeat=n):
            margin = cq.ee31_margin(cq.Word(symbols), d)
            assert abs(margin - orc.twirl_word_margin(symbols, d)) <= 1e-15

    @pytest.mark.parametrize("d, n", [(2, 4), (2, 6), (3, 3), (3, 4), (4, 2), (5, 3)])
    def test_margin_depends_on_the_word_only_through_its_type(self, d, n):
        # types-check takes the margin of one word per type; every word of
        # the type must give the same float bits.
        by_type = {}
        for symbols in itertools.product(range(d), repeat=n):
            t = _empirical_state(cq.Word(symbols), d).counts
            by_type.setdefault(t, set()).add(cq.ee31_margin(cq.Word(symbols), d))
        assert len(by_type) == math.comb(n + d - 1, d - 1)
        assert all(len(margins) == 1 for margins in by_type.values())
