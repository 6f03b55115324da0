"""Channel model: distributions, M-types, words, induced states, JSON parsing."""
from __future__ import annotations

import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
import cqresolve.linalg as linalg
from cqresolve import errors
import oracles as orc


# ---------------------------------------------------------------------------
# Distribution / MType basics


def test_distribution_requires_unit_mass():
    with pytest.raises(errors.ValidationError):
        cq.Distribution.from_dict({"a": 0.6, "b": 0.6})


def test_distribution_rejects_negative_mass():
    with pytest.raises(errors.ValidationError):
        cq.Distribution.from_dict({"a": 1.2, "b": -0.2})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_distribution_rejects_non_finite_mass(bad):
    with pytest.raises(errors.ValidationError, match="finite"):
        cq.Distribution(("0", "1"), [bad, 1.0])


def test_channel_rejects_nan_state():
    state = np.diag([0.5, 0.5]).astype(complex)
    state[1, 0] = math.nan
    with pytest.raises(errors.ValidationError):
        cq.CQChannel(("a", "b"), [np.diag([1.0, 0.0]), state])


def test_point_mass_distribution():
    d = cq.Distribution.point_mass(("a", "b"), "b")
    np.testing.assert_allclose(d.masses, [0.0, 1.0])


def test_mtype_rejects_non_multiple_masses():
    base = cq.Distribution.from_dict({"a": 0.5, "b": 0.5})
    with pytest.raises(errors.ValidationError):
        cq.MType(base, 3)  # 3 * 0.5 is not an integer


def test_mtype_accepts_exact_multiples():
    base = cq.Distribution.from_dict({"a": 1.0 / 3.0, "b": 2.0 / 3.0})
    t = cq.MType(base, 3)
    assert t.resolution == 3


@pytest.mark.parametrize("resolution", [True, 2.0])
def test_mtype_resolution_must_be_an_int(resolution):
    # True is no resolution, and 2.0 would leave a float resolution
    base = cq.Distribution.from_dict({"a": 0.5, "b": 0.5})
    with pytest.raises(errors.ValidationError,
                       match=f"resolution must be a positive integer, got {resolution!r}"):
        cq.MType(base, resolution)


def test_mtype_counts_must_be_integers():
    # 1.5 would be truncated to 1 and reported as a wrong sum
    with pytest.raises(errors.ValidationError, match="counts must be integers, got float64"):
        cq.MType.from_counts(("a", "b"), [1.5, 0.5], 2)


# ---------------------------------------------------------------------------
# output / joint / word / codebook / empirical states


def test_output_state_of_half_half_zero_input(flip_erase_channel):
    channel, dist = flip_erase_channel
    out = cq.output_state(channel, dist)
    np.testing.assert_allclose(out, np.diag([0.5, 0.5]), atol=1e-12)


def test_output_state_point_mass_returns_row(flip_erase_channel):
    channel, _ = flip_erase_channel
    p = cq.Distribution.point_mass(channel.labels, "0")
    np.testing.assert_allclose(cq.output_state(channel, p),
                               np.diag([0.9, 0.1]), atol=1e-12)


def test_output_state_erasure_point_mass_matches_mixture(flip_erase_channel):
    channel, _ = flip_erase_channel
    p = cq.Distribution.point_mass(channel.labels, "e")
    np.testing.assert_allclose(cq.output_state(channel, p),
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_output_state_rejects_alphabet_mismatch(flip_erase_channel):
    channel, _ = flip_erase_channel
    other = cq.Distribution.from_dict({"x": 1.0})
    with pytest.raises(errors.ValidationError):
        cq.output_state(channel, other)


def test_word_state_single_letter(flip_erase_channel):
    channel, _ = flip_erase_channel
    np.testing.assert_allclose(orc.word_state(channel.states, (0,)),
                               np.diag([0.9, 0.1]), atol=1e-12)


def test_word_state_repeated_letter_is_kronecker_square(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = orc.word_state(channel.states, (0, 0))
    np.testing.assert_allclose(w, np.kron(np.diag([0.9, 0.1]),
                                          np.diag([0.9, 0.1])), atol=1e-12)


def test_word_state_trace_one(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = orc.word_state(channel.states, (0, 1, 2))
    assert float(np.real(np.trace(w))) == pytest.approx(1.0, abs=1e-10)


def test_word_state_concatenation_is_tensor(flip_erase_channel):
    channel, _ = flip_erase_channel
    w1, w2 = (0, 2), (1,)
    combined = orc.word_state(channel.states, w1 + w2)
    np.testing.assert_allclose(
        combined, np.kron(orc.word_state(channel.states, w1),
                          orc.word_state(channel.states, w2)),
        atol=1e-10)


def test_codebook_state_single_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    np.testing.assert_allclose(orc.codebook_state(channel.states, [(1,)]),
                               np.diag([0.1, 0.9]), atol=1e-12)


def test_codebook_state_repeated_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    np.testing.assert_allclose(orc.codebook_state(channel.states, [(2,), (2,)]),
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_codebook_state_averages_rows(flip_erase_channel):
    channel, _ = flip_erase_channel
    np.testing.assert_allclose(orc.codebook_state(channel.states, [(0,), (1,)]),
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_empirical_output_constant_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    e = orc.empirical_output(channel, cq.Word(("1", "1", "1")))
    np.testing.assert_allclose(e, np.diag([0.1, 0.9]), atol=1e-12)


def test_empirical_output_mixed_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    e = orc.empirical_output(channel, cq.Word(("0", "1")))
    np.testing.assert_allclose(e, np.diag([0.5, 0.5]), atol=1e-12)


def test_empirical_output_equals_output_of_empirical_distribution(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = cq.Word(("0", "0", "1", "e"))
    emp = cq.Distribution.from_dict({"0": 0.5, "1": 0.25, "e": 0.25},
                                    labels=channel.labels)
    np.testing.assert_allclose(orc.empirical_output(channel, w),
                               cq.output_state(channel, emp), atol=1e-12)


def test_codebook_state_matches_empirical_mixture(flip_erase_channel):
    channel, _ = flip_erase_channel
    words = [(0,), (0,), (1,), (2,)]
    emp = cq.Distribution.from_dict({"0": 0.5, "1": 0.25, "e": 0.25},
                                    labels=channel.labels)
    np.testing.assert_allclose(orc.codebook_state(channel.states, words),
                               cq.output_state(channel, emp), atol=1e-10)


# ---------------------------------------------------------------------------
# channel power


def test_channel_power_lexicographic_order(flip_erase_channel):
    channel, _ = flip_erase_channel
    squared = channel.power(2)
    assert squared.labels[0] == ("0", "0")
    assert squared.labels[1] == ("0", "1")
    assert len(squared.labels) == 9
    np.testing.assert_allclose(
        squared.states[1],
        np.kron(np.diag([0.9, 0.1]), np.diag([0.1, 0.9])), atol=1e-12)


def test_channel_power_respects_dim_cap(flip_erase_channel):
    channel, _ = flip_erase_channel
    with pytest.raises(errors.ResourceLimitError):
        channel.power(13)


def test_channel_power_respects_total_footprint_cap():
    # Per-state dimension alone is not the whole cost: the product channel
    # holds size**n states. A two-input qubit channel at n = 12 has states of
    # dimension 4096, but 2^12 of them take 2^12 · 4096² · 16 = 2^40 bytes.
    binary = cq.CQChannel(["0", "1"],
                          [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    assert binary.power(4).size == 16
    with pytest.raises(errors.ResourceLimitError, match="needs 1099511627776 bytes"):
        binary.power(12)


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("d", (1, 2, 3))
@pytest.mark.parametrize("k", range(1, 5))
def test_product_states_match_kronecker_oracle_bitwise(k, d, n):
    # Row i of the kernel is the word state of the i-th word in C order,
    # with the same bits as a left-to-right chain of np.kron.
    rng = np.random.default_rng([k, d, n])
    states = np.stack([orc.random_density(rng, d) for _ in range(k)])
    words = list(np.ndindex(*(k,) * n))
    want = np.stack([orc.word_state(states, w) for w in words])
    assert np.array_equal(linalg._kron_rows(states, n), want)
    product = cq.CQChannel(range(k), states).power(n)
    assert np.array_equal(product.states, want)
    assert product.labels == (tuple(range(k)) if n == 1 else tuple(words))


BAD_STATES = {
    "nan": (np.array([[0.5, math.nan], [math.nan, 0.5]]), "NaN"),
    "non-hermitian": (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
    "trace": (np.diag([0.5 + 1e-8, 0.5]), "trace"),
    "negative-eigenvalue": (np.diag([1.0 + 1e-8, -1e-8]), "eigenvalue"),
}


@pytest.mark.parametrize("position", (0, 2, 4), ids=("first", "middle", "last"))
@pytest.mark.parametrize("bad", sorted(BAD_STATES))
def test_channel_rejects_one_bad_state_anywhere(bad, position):
    states = [np.diag([0.5, 0.5])] * 5
    states[position], message = BAD_STATES[bad]
    with pytest.raises(errors.ValidationError, match=message):
        cq.CQChannel("abcde", states)


def test_channel_rejects_mixed_or_non_square_states():
    with pytest.raises(errors.DimensionMismatchError):
        cq.CQChannel("ab", [np.eye(2) / 2, np.eye(3) / 3])
    with pytest.raises(errors.ValidationError, match="square"):
        cq.CQChannel("ab", [np.eye(2) / 2, np.full((2, 3), 1 / 3)])


# ---------------------------------------------------------------------------
# M-type enumeration


def test_m_type_count_three_letters_resolution_two():
    assert cq.m_type_counts(3, 2).shape == (6, 3)


def test_m_type_count_single_letter():
    assert cq.m_type_counts(1, 5).tolist() == [[5]]


def test_m_type_enumeration_binary_resolution_three():
    assert cq.m_type_counts(2, 3).tolist() == [[0, 3], [1, 2], [2, 1], [3, 0]]


def test_m_type_count_formula():
    assert cq.m_type_counts(4, 6).shape == (math.comb(6 + 3, 3), 4)


def test_m_type_enumeration_cap():
    with pytest.raises(errors.ResourceLimitError):
        cq.m_type_counts(12, 100)  # C(111, 11) >> 1e7


def test_m_type_count_matrix_byte_budget():
    # 10^6 rows pass the row cap, but 10^6 × 10^6 int64 counts are 8 TB.
    with pytest.raises(errors.ResourceLimitError,
                       match=r"needs 8000000000000 bytes, over the budget of 2147483648 bytes"):
        cq.m_type_counts(10 ** 6, 1)


def test_m_type_count_matrix_at_the_byte_budget_is_built(monkeypatch):
    # 4 rows × 2 letters × 8 bytes: built at a budget of 64 bytes, refused at 63.
    monkeypatch.setattr(cq.channel, "MAX_COUNT_BYTES", 64)
    assert cq.m_type_counts(2, 3).shape == (4, 2)
    monkeypatch.setattr(cq.channel, "MAX_COUNT_BYTES", 63)
    with pytest.raises(errors.ResourceLimitError, match="needs 64 bytes"):
        cq.m_type_counts(2, 3)


@settings(max_examples=25, deadline=None)
@given(st.tuples(st.integers(1, 30), st.integers(1, 8)).filter(
    lambda km: math.comb(km[0] + km[1] - 1, km[1]) <= 10 ** 5))
def test_m_type_enumeration_distinct_and_valid(km):
    k, M = km
    counts = cq.m_type_counts(k, M)
    assert counts.shape == (math.comb(M + k - 1, k - 1), k)
    assert counts.min() >= 0
    assert np.all(counts.sum(axis=1) == M)
    # Strictly increasing in lexicographic order: each row's first change
    # from the row before is an increase.
    step = np.diff(counts, axis=0)
    first = np.argmax(step != 0, axis=1)
    assert np.all(step[np.arange(step.shape[0]), first] > 0)


# The small grid, then many parts on a small total (the n-letter product
# alphabets of the exact engine), few parts on a large total, and totals on
# either side of the 8- and 16-bit integer limits.
KERNEL_CASES = ([(total, parts) for total in range(1, 7) for parts in range(1, 7)]
                + [(4, 27), (3, 27), (8, 9), (6, 9), (12, 9), (300, 3), (1000, 2),
                   (255, 3), (256, 3), (65535, 2), (65536, 2)])


@pytest.mark.parametrize("total, parts", KERNEL_CASES)
def test_compositions_match_oracle(total, parts):
    got = cq.m_type_counts(parts, total)
    want = orc.stars_and_bars_compositions(total, parts)
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape == (math.comb(total + parts - 1, parts - 1), parts)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    if parts <= 6:
        # The brute-force oracle sorts, so equality also checks the lexicographic row order.
        assert [tuple(row) for row in got.tolist()] == orc.all_m_type_count_vectors(parts, total)


@pytest.mark.parametrize("total, parts", [
    (total, parts) for total, parts in KERNEL_CASES
    if math.comb(total + parts - 1, parts - 1) <= 20_000])
def test_m_type_at_is_the_count_matrix_row(total, parts):
    counts = cq.m_type_counts(parts, total)
    for i, row in enumerate(counts):
        got = cq.channel._m_type_at(parts, total, i)
        assert got.dtype == np.int64 and np.array_equal(got, row), i


@pytest.mark.parametrize("step", [1, 2, 3, 7, 40])
def test_type_blocks_and_row_sums_are_cut_alike(step):
    # the bad-codeword count zips the count rows of k letters with the sums
    # of k rows, block by block
    rng = np.random.default_rng(step)
    for k, n in itertools.product(range(1, 7), range(1, 7)):
        counts = cq.channel._m_type_blocks(k, n, step)
        sums = cq.channel._m_type_sums(rng.random((k, 3)), n, step)
        assert [b.shape[0] for b in counts] == [b.shape[0] for b in sums], (k, n)


def traced_peak(build) -> int:
    """tracemalloc's peak, in bytes, while build() runs."""
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# The cases whose int64 output is at least 1 MiB.
LARGE_CASES = [(total, parts) for total, parts in KERNEL_CASES
               if math.comb(total + parts - 1, parts - 1) * parts * 8 >= 2 ** 20]


@pytest.mark.parametrize("total, parts", LARGE_CASES)
def test_compositions_peak_memory_is_at_most_the_oracles(total, parts):
    assert traced_peak(lambda: cq.m_type_counts(parts, total)) <= traced_peak(
        lambda: orc.stars_and_bars_compositions(total, parts))


def test_m_type_count_past_int64_is_refused():
    assert cq.m_type_counts(1, 2 ** 63 - 1).tolist() == [[2 ** 63 - 1]]
    with pytest.raises(errors.ValidationError, match="M must be below 2"):
        cq.m_type_counts(1, 2 ** 63)


def test_m_type_enumeration_matches_oracle_counts():
    got = [tuple(row) for row in cq.m_type_counts(3, 4).tolist()]
    assert got == orc.all_m_type_count_vectors(3, 4)


# ---------------------------------------------------------------------------
# JSON interfaces


def test_channel_json_round_trip(tmp_path, flip_erase_channel):
    channel, _ = flip_erase_channel
    payload = {
        "dim": 2,
        "inputs": [
            {"label": lab,
             "state": [[[float(np.real(channel.states[i][r, c])),
                         float(np.imag(channel.states[i][r, c]))]
                        for c in range(2)] for r in range(2)]}
            for i, lab in enumerate(channel.labels)
        ],
    }
    path = tmp_path / "channel.json"
    path.write_text(json.dumps(payload))
    loaded = cq.channel_from_json(str(path))
    assert loaded.labels == channel.labels
    for a, b in zip(loaded.states, channel.states):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_channel_json_rejects_non_density(tmp_path):
    payload = {"dim": 2, "inputs": [
        {"label": "a", "state": [[[1.5, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [-0.5, 0.0]]]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(errors.ValidationError):
        cq.channel_from_json(str(path))


def _one_qubit_inputs(*labels) -> dict:
    state = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
    return {"dim": 2, "inputs": [{"label": lab, "state": state} for lab in labels]}


@pytest.mark.parametrize("label", [[0], {"a": 1}, True, None],
                         ids=["array", "object", "bool", "null"])
def test_channel_json_rejects_non_scalar_label(label):
    with pytest.raises(errors.ValidationError, match="label must be a JSON string or number"):
        cq.channel_from_json(_one_qubit_inputs("a", label))


def test_channel_json_stores_number_labels_as_strings():
    channel = cq.channel_from_json(_one_qubit_inputs(0, 1, 2.5, "e"))
    assert channel.labels == ("0", "1", "2.5", "e")
    assert [cq.format_label(lab) for lab in channel.labels] == ["0", "1", "2.5", "e"]


def test_channel_json_number_and_string_label_collide():
    with pytest.raises(errors.ValidationError, match="duplicate channel labels"):
        cq.channel_from_json(_one_qubit_inputs(0, "0"))


def test_number_labels_take_a_json_distribution_and_id_code():
    channel = cq.channel_from_json(_one_qubit_inputs(0, 1))
    dist = cq.distribution_from_json({"0": 0.25, "1": 0.75}, labels=channel.labels)
    np.testing.assert_allclose(dist.masses, [0.25, 0.75])
    zero = [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    code = cq.idcode_from_json({"lambda1": 0.1, "lambda2": 0.1, "entries": [
        {"dist": {"0": 1.0}, "test": zero}, {"dist": {"1": 1.0}, "test": zero}]},
        labels=channel.labels)
    assert [(d.labels, d.masses.tolist()) for d, _ in code.entries] == [
        (("0", "1"), [1.0, 0.0]), (("0", "1"), [0.0, 1.0])]


def test_distribution_json(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"0": 0.25, "1": 0.75}))
    d = cq.distribution_from_json(str(path), labels=("0", "1"))
    np.testing.assert_allclose(d.masses, [0.25, 0.75])

