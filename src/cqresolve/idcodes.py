"""Identification codes: validity checks and the counting bridge.

A code is a family of input distributions with binary test operators; the
module verifies the acceptance conditions, the pairwise output-distance
consequence, and the counting argument that ties code size to the
worst-input resolution error. Codes are verified, never optimized.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import numpy.linalg as npl

from .channel import (CQChannel, Distribution, _parse_complex_matrix, _read_json,
                      distribution_from_json, output_state)
from .errors import DimensionMismatchError, ValidationError, check_positive_int, check_real
from .linalg import _check_hermitian, as_matrix, trace_norm

TEST_OPERATOR_SLACK = 1e-9


def _check_error_levels(lambda1, lambda2) -> None:
    """Raise ValidationError unless both error levels lie in (0, 1)."""
    for name, lam in (("lambda1", lambda1), ("lambda2", lambda2)):
        check_real(name, lam, 0.0, 1.0, open_lo=True, open_hi=True)


@dataclass(frozen=True)
class IDCode:
    """N ≥ 2 entries (p_i, D_i) with 0 ≤ D_i ≤ I, plus the error levels."""

    entries: tuple[tuple[Distribution, np.ndarray], ...]
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if len(self.entries) < 2:
            raise ValidationError("an identification code needs at least 2 entries")
        _check_error_levels(self.lambda1, self.lambda2)
        tests = [as_matrix(test) for _, test in self.entries]
        if len({t.shape[0] for t in tests}) != 1:
            raise DimensionMismatchError("test operators have mixed dimensions")
        vals = npl.eigvalsh(_check_hermitian(np.stack(tests)))
        if float(vals[:, 0].min()) < -TEST_OPERATOR_SLACK:
            raise ValidationError("test operator is not positive semidefinite")
        if float(vals[:, -1].max()) > 1.0 + TEST_OPERATOR_SLACK:
            raise ValidationError("test operator exceeds the identity")
        object.__setattr__(self, "entries", tuple(
            (dist, t) for (dist, _), t in zip(self.entries, tests)))

    @property
    def size(self) -> int:
        return len(self.entries)

    @property
    def dim(self) -> int:
        return int(self.entries[0][1].shape[0])


@dataclass(frozen=True)
class IDVerifyReport:
    """Acceptance margins for every entry and cross pair."""

    valid: bool
    hit_margins: tuple[float, ...]
    worst_hit_margin: float
    worst_cross_margin: float
    failures: tuple[str, ...]


def _output_states(code: IDCode, channel: CQChannel) -> list[np.ndarray]:
    outs = []
    for dist, test in code.entries:
        if test.shape[0] != channel.dim:
            raise DimensionMismatchError(
                f"test dim {test.shape[0]} vs channel dim {channel.dim}")
        outs.append(output_state(channel, dist))
    return outs


def verify_id_code(code: IDCode, channel: CQChannel) -> IDVerifyReport:
    """Check Tr(W(p_i)D_i) ≥ 1−λ₁ and Tr(W(p_i)D_j) ≤ λ₂ for all i ≠ j."""
    outs = _output_states(code, channel)
    hit_margins = []
    failures = []
    worst_cross = math.inf
    for i, (out, (_, test)) in enumerate(zip(outs, (e for e in code.entries))):
        hit = float(np.real(np.trace(out @ test)))
        margin = hit - (1.0 - code.lambda1)
        hit_margins.append(margin)
        if margin < 0.0:
            failures.append(f"entry {i}: acceptance {hit:.6g} < 1 - lambda1")
    for i, out in enumerate(outs):
        for j, (_, test) in enumerate(code.entries):
            if i == j:
                continue
            cross = float(np.real(np.trace(out @ test)))
            margin = code.lambda2 - cross
            worst_cross = min(worst_cross, margin)
            if margin < 0.0:
                failures.append(f"pair ({i},{j}): cross acceptance {cross:.6g} > lambda2")
    return IDVerifyReport(valid=not failures,
                          hit_margins=tuple(hit_margins),
                          worst_hit_margin=min(hit_margins),
                          worst_cross_margin=worst_cross,
                          failures=tuple(failures))


@dataclass(frozen=True)
class PairwiseDistanceReport:
    """Minimum pairwise output trace-norm distance against 2(1−λ₁−λ₂)."""

    min_distance: float
    threshold: float
    vacuous: bool
    ok: bool


def pairwise_distance_check(code: IDCode, channel: CQChannel) -> PairwiseDistanceReport:
    """Assert ‖W(p_i) − W(p_j)‖₁ ≥ 2(1 − λ₁ − λ₂) for every pair i ≠ j."""
    outs = _output_states(code, channel)
    min_distance = min(trace_norm(a - b) for a, b in itertools.combinations(outs, 2))
    threshold = 2.0 * (1.0 - code.lambda1 - code.lambda2)
    vacuous = threshold <= 0.0
    ok = vacuous or (min_distance >= threshold - 1e-9)
    return PairwiseDistanceReport(float(min_distance), threshold, vacuous, ok)


@dataclass(frozen=True)
class BridgeCheck:
    """Counting consequence |X|^M ≥ N, gated by 1 − λ₁ − λ₂ > ε(W,M)."""

    applicable: bool
    count_ok: bool

    def __bool__(self) -> bool:
        return self.count_ok


def bridge_counting_check(N: int, alphabet_size: int, M: int, lambda1: float,
                          lambda2: float, eps: float) -> BridgeCheck:
    """Whether |X|^M ≥ N, with applicability flag 1 − λ₁ − λ₂ > eps.

    When the gate fails the counting argument says nothing, so the result
    carries an inapplicability flag rather than raising. Used
    contrapositively: a valid code with |X|^M < N certifies that the
    worst-input resolution error at M exceeds 1 − λ₁ − λ₂.
    """
    for name, val in (("N", N), ("alphabet_size", alphabet_size), ("M", M)):
        check_positive_int(name, val)
    if N < 2:
        raise ValidationError(f"N must be at least 2, got {N}")
    _check_error_levels(lambda1, lambda2)
    check_real("eps", eps, 0.0)
    applicable = (1.0 - lambda1 - lambda2) > eps
    # |X|^M is built one factor at a time and stops on reaching N, so a huge
    # M costs at most log₂ N steps; 1^M = 1 < N needs none.
    power, count_ok = 1, False
    for _ in range(M if alphabet_size > 1 else 0):
        power *= alphabet_size
        if power >= N:
            count_ok = True
            break
    return BridgeCheck(applicable, count_ok)


def idcode_from_json(source, labels=None) -> IDCode:
    """Load an ID code from a file path or a parsed document (see `channel._read_json`).

    Schema: {"lambda1": float, "lambda2": float,
             "entries": [{"dist": {label: mass}, "test": [[[re, im], ...]]}]}
    """
    data = _read_json(source)
    if not isinstance(data, dict):
        raise ValidationError("ID-code JSON must be an object")
    for key in ("lambda1", "lambda2", "entries"):
        if key not in data:
            raise ValidationError(f"ID-code JSON is missing the '{key}' field")
    try:
        lambda1, lambda2 = float(data["lambda1"]), float(data["lambda2"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"ID-code 'lambda1' and 'lambda2' must be numbers: {exc}")
    if not isinstance(data["entries"], list):
        raise ValidationError("ID-code 'entries' must be an array")
    entries = []
    for i, entry in enumerate(data["entries"]):
        if not isinstance(entry, dict) or "dist" not in entry or "test" not in entry:
            raise ValidationError(f"entry {i}: expected an object with 'dist' and 'test'")
        dist = distribution_from_json(entry["dist"], labels=labels)
        test = _parse_complex_matrix(entry["test"], f"entry {i} test")
        entries.append((dist, test))
    return IDCode(tuple(entries), lambda1, lambda2)
