"""Channel model: distributions, M-types, words, codebooks, induced states."""
from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
from cqresolve import errors
import oracles as orc

from conftest import build_flip_erase_channel


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


def test_joint_state_point_mass_single_block(flip_erase_channel):
    channel, _ = flip_erase_channel
    p = cq.Distribution.point_mass(channel.labels, "1")
    joint = cq.joint_state(channel, p)
    assert list(joint.weights) == pytest.approx([0.0, 1.0, 0.0])


def test_joint_state_weighted_trace_is_one(flip_erase_channel):
    channel, dist = flip_erase_channel
    joint = cq.joint_state(channel, dist)
    total = sum(w * float(np.real(np.trace(s)))
                for w, s in zip(joint.weights, joint.blocks))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_joint_state_marginal_equals_output_state(flip_erase_channel):
    channel, dist = flip_erase_channel
    joint = cq.joint_state(channel, dist)
    np.testing.assert_allclose(joint.marginal_output(),
                               cq.output_state(channel, dist), atol=1e-12)


def test_word_state_single_letter(flip_erase_channel):
    channel, _ = flip_erase_channel
    np.testing.assert_allclose(cq.word_state(channel, cq.Word(("0",))),
                               np.diag([0.9, 0.1]), atol=1e-12)


def test_word_state_repeated_letter_is_kronecker_square(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = cq.word_state(channel, cq.Word(("0", "0")))
    np.testing.assert_allclose(w, np.kron(np.diag([0.9, 0.1]),
                                          np.diag([0.9, 0.1])), atol=1e-12)


def test_word_state_trace_one(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = cq.word_state(channel, cq.Word(("0", "1", "e")))
    assert float(np.real(np.trace(w))) == pytest.approx(1.0, abs=1e-10)


def test_word_state_concatenation_is_tensor(flip_erase_channel):
    channel, _ = flip_erase_channel
    w1, w2 = cq.Word(("0", "e")), cq.Word(("1",))
    combined = cq.word_state(channel, cq.Word(w1.symbols + w2.symbols))
    np.testing.assert_allclose(
        combined, np.kron(cq.word_state(channel, w1), cq.word_state(channel, w2)),
        atol=1e-10)


def test_codebook_state_single_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    c = cq.Codebook((cq.Word(("1",)),))
    np.testing.assert_allclose(cq.codebook_state(channel, c),
                               np.diag([0.1, 0.9]), atol=1e-12)


def test_codebook_state_repeated_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    c = cq.Codebook((cq.Word(("e",)), cq.Word(("e",))))
    np.testing.assert_allclose(cq.codebook_state(channel, c),
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_codebook_state_averages_rows(flip_erase_channel):
    channel, _ = flip_erase_channel
    c = cq.Codebook((cq.Word(("0",)), cq.Word(("1",))))
    np.testing.assert_allclose(cq.codebook_state(channel, c),
                               np.diag([0.5, 0.5]), atol=1e-12)


def test_empirical_output_constant_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    e = cq.empirical_output(channel, cq.Word(("1", "1", "1")))
    np.testing.assert_allclose(e, np.diag([0.1, 0.9]), atol=1e-12)


def test_empirical_output_mixed_word(flip_erase_channel):
    channel, _ = flip_erase_channel
    e = cq.empirical_output(channel, cq.Word(("0", "1")))
    np.testing.assert_allclose(e, np.diag([0.5, 0.5]), atol=1e-12)


def test_empirical_output_equals_output_of_empirical_distribution(flip_erase_channel):
    channel, _ = flip_erase_channel
    w = cq.Word(("0", "0", "1", "e"))
    emp = cq.Distribution.from_dict({"0": 0.5, "1": 0.25, "e": 0.25},
                                    labels=channel.labels)
    np.testing.assert_allclose(cq.empirical_output(channel, w),
                               cq.output_state(channel, emp), atol=1e-12)


def test_codebook_state_matches_empirical_mixture(flip_erase_channel):
    channel, _ = flip_erase_channel
    words = (cq.Word(("0",)), cq.Word(("0",)), cq.Word(("1",)), cq.Word(("e",)))
    c = cq.Codebook(words)
    emp = cq.Distribution.from_dict({"0": 0.5, "1": 0.25, "e": 0.25},
                                    labels=channel.labels)
    np.testing.assert_allclose(cq.codebook_state(channel, c),
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


def test_channel_power_respects_total_footprint_cap(flip_erase_channel):
    # Per-state dimension alone is not the whole cost: the product channel
    # holds size**n states.  With max_dim=16 a two-input channel at n=4 fits
    # each state (2**4 = 16) but needs 2**4 * 16**2 = 4096 entries > 16**2.
    channel, _ = flip_erase_channel
    binary = cq.CQChannel(["0", "1"],
                          [np.diag([0.9, 0.1]), np.diag([0.1, 0.9])])
    assert binary.power(4, max_dim=256).size == 16
    with pytest.raises(errors.ResourceLimitError, match="matrix entries"):
        binary.power(4, max_dim=16)
    # A single-input channel never trips the footprint check when the
    # dimension check passes (1**n * (2**4)**2 == 16**2 exactly).
    single = cq.CQChannel(["a"], [np.diag([0.5, 0.5])])
    assert single.power(4, max_dim=16).dim == 16


# ---------------------------------------------------------------------------
# M-type enumeration


def test_m_type_count_three_letters_resolution_two():
    types = cq.enumerate_m_types(("a", "b", "c"), 2)
    assert len(types) == 6


def test_m_type_count_single_letter():
    types = cq.enumerate_m_types(("a",), 5)
    assert len(types) == 1
    np.testing.assert_allclose(types[0].distribution.masses, [1.0])


def test_m_type_enumeration_binary_resolution_three():
    types = cq.enumerate_m_types(("a", "b"), 3)
    rows = [tuple(t.distribution.masses) for t in types]
    expected = [(0.0, 1.0), (1/3, 2/3), (2/3, 1/3), (1.0, 0.0)]
    assert len(rows) == 4
    for got, want in zip(rows, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_m_type_count_formula():
    assert cq.count_m_types(4, 6) == math.comb(6 + 3, 3)


def test_m_type_enumeration_cap():
    with pytest.raises(errors.ResourceLimitError):
        cq.enumerate_m_types(tuple(str(i) for i in range(12)), 100)  # C(111, 11) >> 1e7


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 5), st.integers(1, 6))
def test_m_type_enumeration_distinct_and_valid(k, M):
    types = cq.enumerate_m_types(tuple(str(i) for i in range(k)), M)
    assert len(types) == math.comb(M + k - 1, k - 1)
    seen = {tuple(np.round(t.distribution.masses * M).astype(int)) for t in types}
    assert len(seen) == len(types)
    for t in types:
        scaled = np.asarray(t.distribution.masses) * M
        assert np.max(np.abs(scaled - np.round(scaled))) < 1e-9


@pytest.mark.parametrize("parts", range(1, 7))
@pytest.mark.parametrize("total", range(0, 7))
def test_compositions_match_oracle(total, parts):
    got = cq.compositions(total, parts)
    assert got.dtype == np.int64
    assert got.shape == (math.comb(total + parts - 1, parts - 1), parts)
    # The oracle sorts, so equality also checks the lexicographic row order.
    assert [tuple(row) for row in got.tolist()] == orc.all_m_type_count_vectors(parts, total)


def test_m_type_enumeration_matches_oracle_counts():
    got = [tuple(np.round(np.asarray(t.distribution.masses) * 4).astype(int))
           for t in cq.enumerate_m_types(("a", "b", "c"), 4)]
    want = sorted(tuple(v) for v in orc.all_m_type_count_vectors(3, 4))
    assert got == want


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


def test_distribution_json(tmp_path):
    path = tmp_path / "dist.json"
    path.write_text(json.dumps({"0": 0.25, "1": 0.75}))
    d = cq.distribution_from_json(str(path), labels=("0", "1"))
    np.testing.assert_allclose(d.masses, [0.25, 0.75])


def test_codebook_json(tmp_path):
    path = tmp_path / "code.json"
    path.write_text(json.dumps([["0", "1"], ["1", "1"]]))
    c = cq.codebook_from_json(str(path))
    assert len(c.words) == 2
    assert c.words[0].symbols == ("0", "1")
