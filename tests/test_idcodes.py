"""Tests for identification-code verification and the counting bridge."""

import json
import math

import numpy as np
import pytest

import cqresolve as cq
from cqresolve import ValidationError

import oracles as orc


def orthogonal_channel() -> cq.CQChannel:
    return cq.CQChannel(
        ("0", "1"),
        (np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)),
    )


def orthogonal_code(lambda1: float = 0.1, lambda2: float = 0.1) -> cq.IDCode:
    labels = ("0", "1")
    p1 = cq.Distribution.point_mass(labels, "0")
    p2 = cq.Distribution.point_mass(labels, "1")
    d1 = np.diag([1.0, 0.0]).astype(complex)
    d2 = np.diag([0.0, 1.0]).astype(complex)
    return cq.IDCode(((p1, d1), (p2, d2)), lambda1, lambda2)


# ---------------------------------------------------------------------------
# IDCode validation
# ---------------------------------------------------------------------------


class TestIDCodeType:
    def test_needs_two_entries(self):
        labels = ("0", "1")
        p = cq.Distribution.point_mass(labels, "0")
        d = np.eye(2, dtype=complex)
        with pytest.raises(ValidationError):
            cq.IDCode(((p, d),), 0.1, 0.1)

    def test_lambda_range(self):
        labels = ("0", "1")
        p = cq.Distribution.point_mass(labels, "0")
        d = np.eye(2, dtype=complex)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                cq.IDCode(((p, d), (p, d)), bad, 0.1)
            with pytest.raises(ValidationError):
                cq.IDCode(((p, d), (p, d)), 0.1, bad)

    def test_operator_must_be_psd(self):
        labels = ("0", "1")
        p = cq.Distribution.point_mass(labels, "0")
        neg = np.diag([0.5, -0.2]).astype(complex)
        good = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ValidationError):
            cq.IDCode(((p, neg), (p, good)), 0.1, 0.1)

    def test_operator_must_stay_below_identity(self):
        labels = ("0", "1")
        p = cq.Distribution.point_mass(labels, "0")
        big = np.diag([1.3, 0.5]).astype(complex)
        good = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ValidationError):
            cq.IDCode(((p, big), (p, good)), 0.1, 0.1)

    def test_mixed_dimensions_rejected(self):
        p = cq.Distribution.point_mass(("0", "1"), "0")
        d2 = np.eye(2, dtype=complex) / 2.0
        d3 = np.eye(3, dtype=complex) / 2.0
        with pytest.raises(cq.DimensionMismatchError):
            cq.IDCode(((p, d2), (p, d3)), 0.1, 0.1)

    @pytest.mark.parametrize("position", (0, 1, 2), ids=("first", "middle", "last"))
    @pytest.mark.parametrize("bad, message", [
        (np.diag([0.5, -1e-8]), "positive semidefinite"),
        (np.diag([1.0 + 1e-8, 0.5]), "exceeds the identity"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([0.5, math.nan]), "NaN"),
    ], ids=("negative", "above-identity", "non-hermitian", "nan"))
    def test_one_bad_operator_anywhere_is_rejected(self, bad, message, position):
        p = cq.Distribution.point_mass(("0", "1"), "0")
        tests = [np.eye(2) / 2.0] * 3
        tests[position] = bad
        with pytest.raises(ValidationError, match=message):
            cq.IDCode(tuple((p, t) for t in tests), 0.1, 0.1)

    def test_size_and_dim(self):
        code = orthogonal_code()
        assert code.size == 2
        assert code.dim == 2


# ---------------------------------------------------------------------------
# verify_id_code
# ---------------------------------------------------------------------------


class TestVerifyIDCode:
    def test_orthogonal_code_valid_with_exact_margins(self):
        ch = orthogonal_channel()
        for lam1, lam2 in [(0.1, 0.1), (0.4, 0.3), (0.01, 0.9)]:
            code = orthogonal_code(lam1, lam2)
            rep = cq.verify_id_code(code, ch)
            assert rep.valid
            # Exact discrimination: hits are 1 and crosses are 0, so the
            # margins equal λ₁ and λ₂ themselves.
            assert rep.worst_hit_margin == pytest.approx(lam1, abs=1e-12)
            assert rep.worst_cross_margin == pytest.approx(lam2, abs=1e-12)
            assert rep.failures == ()

    def test_repeated_test_operator_fails_cross_condition(self):
        ch = orthogonal_channel()
        labels = ("0", "1")
        p1 = cq.Distribution.point_mass(labels, "0")
        p2 = cq.Distribution.point_mass(labels, "1")
        d = np.diag([1.0, 1.0]).astype(complex)  # accepts everything
        code = cq.IDCode(((p1, d), (p2, d)), 0.2, 0.2)
        rep = cq.verify_id_code(code, ch)
        assert not rep.valid
        assert any("cross" in msg for msg in rep.failures)

    def test_identical_outputs_cannot_pass_when_lambdas_small(self):
        # W(p₁) = W(p₂) forces Tr(W(p₁)D₂) = Tr(W(p₂)D₂) ≥ 1 − λ₁,
        # which contradicts the cross bound λ₂ whenever λ₁ + λ₂ < 1.
        ch = orthogonal_channel()
        labels = ("0", "1")
        p = cq.Distribution(labels, (0.5, 0.5))
        rng = np.random.default_rng(5)
        for _ in range(20):
            d1 = orc.random_projector(rng, 2, 1)
            d2 = orc.random_projector(rng, 2, 1)
            code = cq.IDCode(((p, d1), (p, d2)), 0.3, 0.3)
            rep = cq.verify_id_code(code, ch)
            assert not rep.valid

    def test_dimension_mismatch_raises(self):
        ch = cq.CQChannel(("a",), (np.diag([0.2, 0.3, 0.5]).astype(complex),))
        code = orthogonal_code()
        with pytest.raises(cq.DimensionMismatchError):
            cq.verify_id_code(code, ch)


# ---------------------------------------------------------------------------
# pairwise_distance_check
# ---------------------------------------------------------------------------


class TestPairwiseDistance:
    def test_orthogonal_min_distance_two(self):
        ch = orthogonal_channel()
        code = orthogonal_code(0.1, 0.1)
        rep = cq.pairwise_distance_check(code, ch)
        assert rep.min_distance == pytest.approx(2.0, abs=1e-12)
        assert rep.threshold == pytest.approx(2.0 * (1.0 - 0.2), abs=1e-12)
        assert rep.ok and not rep.vacuous

    def test_vacuous_when_lambdas_large(self):
        ch = orthogonal_channel()
        labels = ("0", "1")
        p = cq.Distribution(labels, (0.5, 0.5))
        d = np.eye(2, dtype=complex) / 2.0
        code = cq.IDCode(((p, d), (p, d)), 0.6, 0.6)
        rep = cq.pairwise_distance_check(code, ch)
        assert rep.vacuous
        assert rep.ok
        assert rep.threshold <= 0.0

    def test_valid_code_always_passes_distance_check(self):
        # The lemma's inner step: acceptance conditions already imply the
        # pairwise output separation.
        rng = np.random.default_rng(17)
        ch = orthogonal_channel()
        labels = ("0", "1")
        found = 0
        for _ in range(200):
            masses1 = rng.dirichlet((1.0, 1.0))
            masses2 = rng.dirichlet((1.0, 1.0))
            p1 = cq.Distribution(labels, tuple(masses1))
            p2 = cq.Distribution(labels, tuple(masses2))
            d1 = orc.random_projector(rng, 2, 1)
            d2 = np.eye(2) - d1
            code = cq.IDCode(((p1, d1), (p2, d2)), 0.35, 0.35)
            if cq.verify_id_code(code, ch).valid:
                found += 1
                assert cq.pairwise_distance_check(code, ch).ok
        assert found > 0

    def test_measurement_data_processing_on_random_pairs(self):
        # Binary-measurement distance |Tr D(ρ−σ)| + |Tr (I−D)(ρ−σ)| never
        # exceeds the trace distance.
        rng = np.random.default_rng(23)
        for _ in range(100):
            d = int(rng.integers(2, 5))
            rho = orc.random_density(rng, d)
            sig = orc.random_density(rng, d)
            test = orc.random_projector(rng, d, int(rng.integers(1, d)))
            diff = rho - sig
            measured = (abs(np.trace(test @ diff).real)
                        + abs(np.trace((np.eye(d) - test) @ diff).real))
            assert measured <= orc.trace_norm_svd(diff) + 1e-9


# ---------------------------------------------------------------------------
# bridge_counting_check
# ---------------------------------------------------------------------------


class TestBridgeCounting:
    def test_tight_arithmetic(self):
        res = cq.bridge_counting_check(9, 3, 2, 0.1, 0.1, 0.0)
        assert res.applicable and res.count_ok and bool(res)

    def test_failing_count_certifies_resolvability_floor(self):
        res = cq.bridge_counting_check(9, 2, 3, 0.1, 0.1, 0.0)
        assert res.applicable
        assert not res.count_ok
        assert not bool(res)

    def test_gate_blocks_applicability(self):
        res = cq.bridge_counting_check(4, 2, 2, 0.45, 0.45, 0.2)
        assert not res.applicable

    def test_arithmetic_grid(self):
        for N in (*range(2, 66), 100, 243, 244, 1024):
            for x in range(1, 6):
                for M in range(1, 8):
                    res = cq.bridge_counting_check(N, x, M, 0.1, 0.1, 0.0)
                    assert res.count_ok == (x ** M >= N)

    def test_log_log_chain_on_constructed_sizes(self):
        # log log N ≤ log M + log log |X| whenever |X|^M ≥ N ≥ |X|,
        # the single-copy form of the size chain.
        for x in (2, 3, 5):
            for M in (2, 3, 4, 6):
                N = x ** M  # largest N the counting allows
                assert cq.bridge_counting_check(N, x, M, 0.1, 0.1, 0.0).count_ok
                lhs = math.log2(math.log2(N))
                rhs = math.log2(M) + math.log2(math.log2(x)) if x > 2 else math.log2(M)
                assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("bad", [True, False, 0, -1, 2.5, "2"])
    @pytest.mark.parametrize("arg", ["N", "alphabet_size", "M"])
    def test_integer_arguments_must_be_positive_ints(self, arg, bad):
        kwargs = dict(N=2, alphabet_size=2, M=1)
        kwargs[arg] = bad
        with pytest.raises(ValidationError, match=f"{arg} must be a positive integer"):
            cq.bridge_counting_check(**kwargs, lambda1=0.1, lambda2=0.1, eps=0.0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            cq.bridge_counting_check(1, 2, 2, 0.1, 0.1, 0.0)
        with pytest.raises(ValidationError):
            cq.bridge_counting_check(4, 2, 0, 0.1, 0.1, 0.0)
        with pytest.raises(ValidationError):
            cq.bridge_counting_check(4, 2, 2, 0.0, 0.1, 0.0)
        with pytest.raises(ValidationError):
            cq.bridge_counting_check(4, 2, 2, 0.1, 0.1, -0.1)


# ---------------------------------------------------------------------------
# JSON round-trip
# ---------------------------------------------------------------------------


class TestIDCodeJSON:
    def test_round_trip(self, tmp_path):
        payload = {
            "lambda1": 0.1,
            "lambda2": 0.2,
            "entries": [
                {"dist": {"0": 1.0, "1": 0.0},
                 "test": [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                {"dist": {"0": 0.0, "1": 1.0},
                 "test": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]},
            ],
        }
        path = tmp_path / "code.json"
        path.write_text(json.dumps(payload))
        code = cq.idcode_from_json(path)
        assert code.lambda1 == 0.1 and code.lambda2 == 0.2
        assert code.size == 2
        rep = cq.verify_id_code(code, orthogonal_channel())
        assert rep.valid

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"lambda1": 0.1, "entries": []}))
        with pytest.raises(ValidationError):
            cq.idcode_from_json(path)
