"""Tests for empirical states, type projectors, the twirling margin, and the
reference majorization, Sanov exponent and twirl kept in the oracles."""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import ValidationError
from cqresolve.resolvability import _OutputRows, _rational_half_l1
from cqresolve.types_sanov import (BAD_GAP_TIE_TOL, _empirical_state, _multinomial,
                                   _standard_partition, _twirl_margins, _type_keys,
                                   _types_bound_sweep, _word_type_keys)

import oracles as orc


# every (d, n) with d ≤ 8 and dⁿ within the matrix budget (dⁿ ≤ 4096); n ≤ 12 for d = 1
KEY_SIZES = [(d, n) for d in range(1, 9) for n in range(1, 13) if d ** n <= 4096]


def standard_basis(d: int) -> cq.Basis:
    return cq.Basis.standard(d)


def orthogonal_pair() -> tuple[cq.CQChannel, cq.Distribution]:
    """The channel 0 ↦ |0⟩⟨0|, 1 ↦ |1⟩⟨1| and its uniform law."""
    ch = cq.CQChannel(("0", "1"), (np.diag([1.0, 0.0]).astype(complex),
                                   np.diag([0.0, 1.0]).astype(complex)))
    return ch, cq.Distribution.uniform(ch.labels)


def diagonal_channel(rows) -> cq.CQChannel:
    return cq.CQChannel(tuple(str(x) for x in range(len(rows))),
                        tuple(np.diag(r).astype(complex) for r in rows))


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

    @pytest.mark.parametrize("counts, n, named", [
        ((1.9, 0.1), 1, "1.9"),  # would truncate to (1, 0), a profile never given
        ((1.5, 0.5), 2, "1.5"),  # would truncate to (1, 0) and report a wrong sum
        ((True, False), 1, "True"),
        ((1, True), 2, "True"),
    ])
    def test_counts_must_be_integers(self, counts, n, named):
        with pytest.raises(ValidationError, match=f"^counts must be integers, got {named}$"):
            cq.EmpiricalState(counts, n)

    def test_numpy_integer_counts_are_kept_as_ints(self):
        es = cq.EmpiricalState((np.int64(1), np.uint8(1)), 2)
        assert es.counts == (1, 1)
        assert all(type(c) is int for c in es.counts)

    @pytest.mark.parametrize("symbols, named", [((True, False), "True"), ((0, 1.0), "1.0")])
    def test_word_symbols_must_be_integer_basis_indices(self, symbols, named):
        # a bool would be read as the basis index 0 or 1
        with pytest.raises(ValidationError,
                           match=f"^word symbols must be basis indices, got {named}$"):
            cq.ee31_margin(cq.Word(symbols), 2)

    def test_numpy_integer_symbols_are_basis_indices(self):
        assert _empirical_state(cq.Word((np.int64(0), np.uint8(1), 1)), 2).counts == (1, 2)

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
        np.testing.assert_allclose(np.diag(np.asarray(es.counts) / es.n),
                                   orc.empirical_output(ch, w), atol=1e-12)

    def test_type_count_formula(self):
        for n, d in [(4, 2), (5, 3), (6, 2), (3, 4)]:
            states = orc.all_empirical_states(n, d)
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
            total = sum(t.rank() for t in orc.all_empirical_states(n, d))
            assert total == d ** n

    def test_matrix_partition_of_identity(self):
        n, d = 3, 2
        acc = np.zeros((d ** n, d ** n), dtype=complex)
        for t in orc.all_empirical_states(n, d):
            acc += cq.type_projector(t, standard_basis(d)).matrix
        np.testing.assert_allclose(acc, np.eye(d ** n), atol=1e-9)

    def test_matrix_partition_in_rotated_basis(self):
        theta = 0.81
        v = np.array([[math.cos(theta), -math.sin(theta)],
                      [math.sin(theta), math.cos(theta)]], dtype=complex)
        basis = cq.Basis(v)
        n = 2
        acc = np.zeros((4, 4), dtype=complex)
        for t in orc.all_empirical_states(n, 2):
            m = cq.type_projector(t, basis).matrix
            np.testing.assert_allclose(m @ m, m, atol=1e-10)
            acc += m
        np.testing.assert_allclose(acc, np.eye(4), atol=1e-9)

    @pytest.mark.parametrize("d, n", KEY_SIZES)
    def test_word_keys_mark_the_letter_table_masks(self, d, n):
        types = cq.m_type_counts(d, n)
        words, ranks = _word_type_keys(d, n), []
        for row, key in zip(types.tolist(), _type_keys(types).tolist()):
            mask = orc.letter_table_type_mask(row)
            np.testing.assert_array_equal(words == key, mask)
            ranks.append(int(np.count_nonzero(mask)))
            assert ranks[-1] == orc.multinomial_exact(n, row)
            if d ** n <= 64:
                proj = cq.type_projector(cq.EmpiricalState(tuple(row), n), standard_basis(d))
                np.testing.assert_array_equal(proj.matrix, np.diag(mask.astype(complex)))
                assert proj.rank == ranks[-1]
        assert _standard_partition(types, ranks) == 0.0

    @pytest.mark.parametrize("d, n", [(1, 1), (1, 50), (2, 16), (3, 7), (6, 4), (4096, 1)])
    def test_type_keys_are_the_keys_of_the_repunit_recurrence(self, d, n):
        # every type's least word, against the former recurrence over the d columns
        types = cq.m_type_counts(d, n)
        np.testing.assert_array_equal(_type_keys(types), orc.repunit_type_keys(types))

    def test_multinomial_is_the_factorial_quotient(self):
        # 20,000 seeded rows of 1-8 letters, counts 0-30 with zeros anywhere,
        # in their order and reversed
        rng = np.random.default_rng(40)
        for _ in range(20000):
            d = int(rng.integers(1, 9))
            row = (rng.integers(0, 31, size=d) * (rng.random(d) < 0.7)).tolist()
            want = orc.multinomial_exact(sum(row), row)
            assert _multinomial(row) == _multinomial(row[::-1]) == want, row

    def test_multinomial_of_one_letter_forms_no_factorial(self):
        # 10^7! has about 65.7 million digits
        start = time.perf_counter()
        assert [_multinomial([10 ** e]) for e in range(8)] == [1] * 8
        assert time.perf_counter() - start < 0.1

    def test_standard_partition_rejects_a_wrong_rank(self):
        types = cq.m_type_counts(2, 3)
        with pytest.raises(ValidationError, match="factorial rank"):
            _standard_partition(types, [1, 3, 3, 2])

    def test_pinching_in_a_rotated_basis_has_the_letter_table_blocks(self):
        rng = np.random.default_rng(5)
        v, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        basis, n = cq.Basis(v), 3
        power = cq.tensor_power(basis.vectors, n)
        blocks = cq.type_pinching(basis, n).projectors
        rows = cq.m_type_counts(3, n).tolist()
        assert len(blocks) == len(rows)
        for block, row in zip(blocks, rows):
            cols = power[:, orc.letter_table_type_mask(row)]
            np.testing.assert_array_equal(block, cols @ cols.conj().T)
            proj = cq.type_projector(cq.EmpiricalState(tuple(row), n), basis)
            np.testing.assert_array_equal(proj.matrix, block)

    def test_dimension_cap(self):
        t = cq.EmpiricalState((13, 0), 13)
        with pytest.raises(cq.ResourceLimitError):
            cq.type_projector(t, standard_basis(2))

    @pytest.mark.parametrize("n", [63, 64, 65, 1000])
    def test_one_letter_has_one_word_at_any_n(self, n):
        # one array axis per letter passed numpy's 64 axes from n = 64 on
        np.testing.assert_array_equal(_word_type_keys(1, n), [0])
        for basis in (standard_basis(1), cq.Basis(np.array([[1j]]))):
            proj = cq.type_projector(cq.EmpiricalState((n,), n), basis)
            assert proj.rank == 1
            np.testing.assert_allclose(proj.matrix, [[1.0]], atol=1e-12)
        assert cq.type_pinching(standard_basis(1), n).num_blocks == 1


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
    lambda bad: orc.all_empirical_states(bad, 2),
    lambda bad: orc.all_empirical_states(2, bad),
    lambda bad: cq.EmpiricalState((1, 0), n=bad),
    lambda bad: cq.bad_codeword_count(*orthogonal_pair(), bad, 0.5),
], ids=["twirl-n", "all_empirical_states-n", "all_empirical_states-d",
        "EmpiricalState-n", "bad_codeword_count-n"])
def test_integer_arguments_must_be_positive_ints(call, bad):
    with pytest.raises(ValidationError, match="must be a positive integer"):
        call(bad)


# ---------------------------------------------------------------------------
# bad_codeword_test (oracle) and bad_codeword_count
# ---------------------------------------------------------------------------


class TestBadCodeword:
    def test_constant_on_average_letter_never_bad(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        p = cq.Distribution.point_mass(("0", "1", "e"), "e")
        w = cq.Word(("e", "e", "e", "e"))
        for delta in (1e-6, 0.5, 1.9):
            assert not orc.bad_codeword_test(ch, w, p, delta)

    def test_orthogonal_outputs_constant_word_is_bad(self):
        ch = cq.CQChannel(
            ("0", "1"),
            (np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)),
        )
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        w = cq.Word(("0", "0", "0"))
        # ‖W₀ − (W₀+W₁)/2‖₁ = 1
        assert orc.bad_codeword_test(ch, w, p, 1.0)
        assert orc.bad_codeword_test(ch, w, p, 0.3)
        assert not orc.bad_codeword_test(ch, w, p, 1.0 + 1e-9)

    def test_delta_above_two_never_bad(self):
        rng = np.random.default_rng(3)
        states = tuple(orc.random_density(rng, 2) for _ in range(3))
        ch = cq.CQChannel(("a", "b", "c"), states)
        p = cq.Distribution(("a", "b", "c"), (0.2, 0.3, 0.5))
        w = cq.Word(("a", "c", "c"))
        assert not orc.bad_codeword_test(ch, w, p, 2.0 + 1e-12)

    def test_nonpositive_delta_rejected(self, flip_erase_channel):
        ch, p = flip_erase_channel
        with pytest.raises(ValidationError):
            orc.bad_codeword_test(ch, cq.Word(("0",)), p, 0.0)


class TestBadCodewordCount:
    @pytest.mark.parametrize("seed", range(6))
    def test_dyadic_diagonal_channels_with_types_on_delta(self, seed):
        # Masses in eighths and a law in quarters make many type gaps dyadic
        # rationals; each one that a float holds exactly is used as δ, so a
        # type lies exactly on δ while its float gap may round to either side.
        rng = np.random.default_rng(seed)
        tied = 0
        for _ in range(4):
            k, d, n = (int(v) for v in rng.integers((2, 2, 3), (4, 4, 7)))
            rows = [np.diff(np.concatenate([[0], np.sort(rng.integers(0, 9, d - 1)), [8]])) / 8
                    for _ in range(k)]
            law = np.diff(np.concatenate([[0], np.sort(rng.integers(0, 5, k - 1)), [4]])) / 4
            ch = diagonal_channel(rows)
            p = cq.Distribution(ch.labels, law)
            on_delta = set()
            for c in orc.all_m_type_count_vectors(k, n):
                gap = sum(abs(sum(Fraction(c[x]) * Fraction(rows[x][y]) for x in range(k)) / n
                              - sum(Fraction(law[x]) * Fraction(rows[x][y]) for x in range(k)))
                          for y in range(d))
                if gap > 0 and Fraction(float(gap)) == gap:
                    on_delta.add(float(gap))
            tied += len(on_delta)
            for delta in sorted(on_delta):
                assert (cq.bad_codeword_count(ch, p, n, delta)
                        == orc.bad_codeword_count_exact(rows, law, n, delta))
        assert tied

    @pytest.mark.parametrize("seed", range(30))
    def test_non_diagonal_channels_match_every_word(self, seed):
        # δ sits midway between two neighbouring type gaps, so no type is
        # within the tie tolerance and the float gaps decide every word.
        rng = np.random.default_rng(100 + seed)
        k, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        ch = cq.CQChannel(tuple(str(x) for x in range(k)),
                          tuple(orc.random_density(rng, 2) for _ in range(k)))
        p = cq.Distribution(ch.labels, rng.dirichlet(np.ones(k)))
        target = cq.output_state(ch, p)
        gaps = sorted({orc.trace_norm_svd(np.tensordot(c, ch.states, 1) / n - target)
                       for c in orc.all_m_type_count_vectors(k, n)})
        i = int(np.argmax(np.diff(gaps)))
        delta = (gaps[i] + gaps[i + 1]) / 2
        assert min(abs(g - delta) for g in gaps) > 1e-6
        every_word = sum(orc.bad_codeword_test(ch, cq.Word(w), p, delta)
                         for w in itertools.product(ch.labels, repeat=n))
        assert cq.bad_codeword_count(ch, p, n, delta) == every_word

    def test_count_is_the_one_the_gaps_mixed_from_counts_give(self):
        # 400 seeded channels of 1-6 letters of dimension 1-3 at n 1-5; even
        # ones are diagonal, and every 7th with two letters or more repeats
        # its first letter, so its types tie
        for i in range(400):
            rng = np.random.default_rng(i)
            k, d, n = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 6))
            states = [np.diag(rng.dirichlet(np.ones(d))) if i % 2 == 0
                      else orc.random_density(rng, d) for _ in range(k)]
            if i % 7 == 0 and k > 1:
                states[1] = states[0]
            ch = cq.CQChannel(tuple(str(x) for x in range(k)), states)
            p = cq.Distribution(ch.labels, rng.dirichlet(np.ones(k)))
            outputs, counts = _OutputRows(ch, 1), cq.m_type_counts(k, n)
            gaps = orc.counts_mixed_bad_gaps(counts, n, outputs.targets, outputs.distance_table,
                                             p.masses)
            for delta in (0.05, 0.2, 0.5):
                is_bad = gaps >= delta
                if outputs.diagonal:
                    for j in np.flatnonzero(np.abs(gaps - delta) <= BAD_GAP_TIE_TOL):
                        is_bad[j] = 2 * _rational_half_l1(ch, p, 1, counts[j], n) >= delta
                want = sum(orc.multinomial_exact(n, c) for c in counts[is_bad].tolist())
                assert cq.bad_codeword_count(ch, p, n, delta) == want, (i, delta)

    def test_ten_letters_at_n7_by_type_class(self):
        # 10^7 words, the most the command accepts, in 11,440 types
        ch = diagonal_channel(np.eye(10))
        p = cq.Distribution.uniform(ch.labels)
        start = time.perf_counter()
        count = cq.bad_codeword_count(ch, p, 7, 1.5)
        assert time.perf_counter() - start < 1.0
        tenth = Fraction(0.1)
        assert count == sum(orc.multinomial_exact(7, c)
                            for c in orc.stars_and_bars_compositions(7, 10).tolist()
                            if sum(abs(Fraction(cx, 7) - tenth) for cx in c) >= 1.5)

    def test_identity_past_the_count_budget_is_refused_before_it_is_built(self):
        # 16,385 letters at n 1: 16,385 types, but a 2^31-byte identity as int64
        ch = cq.CQChannel(tuple(str(x) for x in range(16385)), np.ones((16385, 1, 1)))
        with pytest.raises(cq.ResourceLimitError, match="16385 x 16385 identity"):
            cq.bad_codeword_count(ch, cq.Distribution.uniform(ch.labels), 1, 0.5)

    def test_alphabet_mismatch_rejected(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        with pytest.raises(ValidationError, match="alphabet does not match"):
            cq.bad_codeword_count(ch, cq.Distribution.uniform(("a", "b", "c")), 2, 0.5)


# ---------------------------------------------------------------------------
# commuting_types_bound_check
# ---------------------------------------------------------------------------


class TestCommutingTypesBound:
    def test_zero_exponent_row(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((5, 5), 10))
        assert res.rhs == pytest.approx(1.0, abs=1e-12)
        assert res.lhs == pytest.approx(math.comb(10, 5) / 2 ** 10, abs=1e-15)
        assert res.ok

    def test_binomial_example_row(self):
        rho = np.diag([0.5, 0.5]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((8, 2), 10))
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
                for t in orc.all_empirical_states(n, d):
                    assert cq.commuting_types_bound_check(rho, t).ok

    def test_support_violation_vacuous(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState((9, 1), 10))
        assert res.lhs == 0.0
        assert res.ok

    def test_non_diagonal_rejected(self):
        rho = np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex)
        with pytest.raises(ValidationError):
            cq.commuting_types_bound_check(rho, cq.EmpiricalState((1, 1), 2))

    @pytest.mark.parametrize("counts", [(550, 550), (500, 500), (1000, 100)])
    def test_left_side_past_the_float_range_of_its_factors(self, counts):
        # multinomial(1100; 550, 550) is past the largest float, and at n = 1000
        # the product of masses underflows; the left side is 5.4e-44 and 3.5e-40.
        rho = np.diag([0.7, 0.3]).astype(complex)
        n = sum(counts)
        res = cq.commuting_types_bound_check(rho, cq.EmpiricalState(counts, n))
        exact = (orc.multinomial_exact(n, counts)
                 * Fraction(0.7) ** counts[0] * Fraction(0.3) ** counts[1])
        assert res.lhs == float(exact) > 0
        assert res.ok

    @pytest.mark.parametrize("probs", [(0.5, 0.3, 0.2), (0.1, 0.6, 0.3), (1 / 3, 1 / 3, 1 / 3),
                                       (0.7, 0.3, 0.0), (0.999, 1e-13, 0.001 - 1e-13)],
                             ids=["example", "shuffled", "thirds", "dead", "below-tol"])
    def test_sweep_has_the_bits_of_each_row_alone(self, probs):
        # the sweep's blocks and its tables of powers and factorials against
        # the one-row check, every type of 3 letters up to n 30, in order
        probs = np.array(probs)
        got = list(_types_bound_sweep(probs, 30))
        want = [(n, counts.tolist()) for n in range(1, 31) for counts in cq.m_type_counts(3, n)]
        assert [(n, row) for n, row, _ in got] == want
        assert len(got) == sum(math.comb(n + 2, 2) for n in range(1, 31))
        for n, row, check in got:
            alone = cq.commuting_types_bound_check(np.diag(probs), cq.EmpiricalState(row, n))
            assert (check.lhs, check.rhs, check.ok) == (alone.lhs, alone.rhs, alone.ok)

    @pytest.mark.parametrize("d, n_max", [(2, 30), (3, 20), (4, 12), (5, 8), (6, 6), (7, 5),
                                          (8, 4)] + [(d, 3) for d in range(9, 13)])
    def test_every_sweep_row_has_its_bits_alone(self, d, n_max):
        # laws with a zero mass and a mass of 1e-13 (for d = 2 one of each), and
        # one of full support: vacuous rows, and from 8 letters up divergences
        # that numpy sums pairwise, the uncounted letters' terms zeros
        rng = np.random.default_rng(d)
        laws = [rng.dirichlet(np.ones(d))]
        if d == 2:
            laws += [np.array([0.0, 1.0]), np.array([1e-13, 1.0 - 1e-13])]
        else:
            for _ in range(3):
                probs, (_, tiny, *rest) = np.zeros(d), rng.permutation(d)
                probs[tiny], probs[rest] = 1e-13, rng.dirichlet(np.ones(d - 2)) * (1.0 - 1e-13)
                laws.append(probs)
        for probs in laws:
            rows = 0
            for n, row, check in _types_bound_sweep(probs, n_max):
                alone = cq.commuting_types_bound_check(np.diag(probs), cq.EmpiricalState(row, n))
                assert (check.lhs, check.rhs, check.ok) == (alone.lhs, alone.rhs, alone.ok)
                rows += 1
            assert rows == math.comb(n_max + d, d) - 1


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

    @pytest.mark.parametrize("symbols, d", [
        ((0,), 1100), ((0, 1) * 550, 2), ((0, 1, 1), 3)], ids=["d1100", "n1100", "n3"])
    def test_margin_past_the_float_range_of_its_factors(self, symbols, d):
        # (n+1)^{d-1} = 2^1099 and |T_c| = C(1100, 550) are past the largest float.
        margin = cq.ee31_margin(cq.Word(symbols), d)
        assert margin == float(orc.ee31_margin_exact(symbols, d))

    @pytest.mark.parametrize("d, n", KEY_SIZES + [(2, 60), (3, 25), (10, 4), (40, 2),
                                                  (1100, 1)])
    def test_margin_vector_has_the_bits_of_the_one_row_kernel(self, d, n):
        # Every type's margin, not only the least one types-check prints,
        # against `ee31_margin` on one word of that type.
        types = cq.m_type_counts(d, n)
        ranks = [orc.multinomial_exact(n, row) for row in types.tolist()]
        want = np.array([cq.ee31_margin(cq.Word(tuple(np.repeat(np.arange(d), row).tolist())), d)
                         for row in types.tolist()])
        np.testing.assert_array_equal(_twirl_margins(types, ranks).view(np.int64),
                                      want.view(np.int64))

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
