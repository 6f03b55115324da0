"""Classical-quantum channels and their input-side combinatorics.

A channel maps each letter of a finite alphabet to a density operator on a
common d-dimensional space. This module models channels, distributions,
M-types, words, codebooks, the induced output and joint states, and the
JSON file formats consumed by the command line front end.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from functools import reduce
from typing import Hashable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ResourceLimitError, ValidationError
from .linalg import DEFAULT_MAX_DIM, as_matrix, kron_all, validate_density

DIST_SUM_TOL = 1e-12
MTYPE_INT_TOL = 1e-9
DEFAULT_MAX_TYPES = 10 ** 7

Label = Hashable


def format_label(label: Label) -> str:
    """Human-readable form of a label; tuple labels (product alphabets) are joined."""
    if isinstance(label, tuple):
        parts = [str(x) for x in label]
        sep = "" if all(len(p) == 1 for p in parts) else "|"
        return sep.join(parts)
    return str(label)


@dataclass(frozen=True)
class Distribution:
    """Probability vector over an ordered alphabet."""

    labels: tuple[Label, ...]
    masses: np.ndarray

    def __post_init__(self):
        masses = np.asarray(self.masses, dtype=float).copy()
        if masses.ndim != 1 or masses.size != len(self.labels):
            raise ValidationError("masses must be one value per label")
        if not np.all(np.isfinite(masses)):
            raise ValidationError("masses must be finite")
        if len(set(self.labels)) != len(self.labels):
            raise ValidationError("duplicate labels")
        # Tolerate harmless negative rounding residue, reject real negativity.
        tiny = (masses < 0) & (masses >= -DIST_SUM_TOL)
        masses[tiny] = 0.0
        if np.any(masses < 0):
            raise ValidationError(f"negative mass {float(masses.min())!r}")
        total = float(masses.sum())
        if abs(total - 1.0) > DIST_SUM_TOL:
            raise ValidationError(f"masses sum to {total!r}, not 1 within {DIST_SUM_TOL:.0e}")
        masses.setflags(write=False)
        object.__setattr__(self, "masses", masses)
        object.__setattr__(self, "labels", tuple(self.labels))

    @classmethod
    def from_dict(cls, d: dict, labels: Sequence[Label] | None = None) -> "Distribution":
        """Build from a {label: mass} map, optionally aligned to a given label order."""
        if labels is None:
            labels = tuple(d.keys())
        missing = [x for x in d if x not in set(labels)]
        if missing:
            raise ValidationError(f"unknown labels in distribution: {missing}")
        return cls(tuple(labels), np.array([float(d.get(x, 0.0)) for x in labels]))

    @classmethod
    def uniform(cls, labels: Sequence[Label]) -> "Distribution":
        k = len(labels)
        return cls(tuple(labels), np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, labels: Sequence[Label], at: Label) -> "Distribution":
        masses = np.zeros(len(labels))
        masses[list(labels).index(at)] = 1.0
        return cls(tuple(labels), masses)

    def mass(self, label: Label) -> float:
        return float(self.masses[self.labels.index(label)])

    def as_dict(self) -> dict:
        return {label: float(m) for label, m in zip(self.labels, self.masses)}

    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, m in zip(self.labels, self.masses) if m > 0)


@dataclass(frozen=True)
class MType:
    """Distribution whose masses are integer multiples of 1/M."""

    distribution: Distribution
    resolution: int

    def __post_init__(self):
        if self.resolution < 1:
            raise ValidationError(f"resolution must be ≥ 1, got {self.resolution}")
        scaled = self.distribution.masses * self.resolution
        if np.max(np.abs(scaled - np.round(scaled))) > MTYPE_INT_TOL:
            raise ValidationError(
                f"masses are not integer multiples of 1/{self.resolution}")

    @classmethod
    def from_counts(cls, labels: Sequence[Label], counts: Sequence[int], M: int) -> "MType":
        counts = np.asarray(counts, dtype=int)
        if counts.sum() != M:
            raise ValidationError(f"counts sum to {int(counts.sum())}, expected {M}")
        return cls(Distribution(tuple(labels), counts / M), M)

    @property
    def counts(self) -> np.ndarray:
        return np.round(self.distribution.masses * self.resolution).astype(int)


@dataclass(frozen=True)
class Word:
    """Finite sequence of alphabet letters."""

    symbols: tuple[Label, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValidationError("a word needs at least one symbol")
        object.__setattr__(self, "symbols", tuple(self.symbols))

    def __len__(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class Codebook:
    """Multiset of M equal-length words, kept as an ordered sequence."""

    words: tuple[Word, ...]

    def __post_init__(self):
        if len(self.words) < 1:
            raise ValidationError("a codebook needs at least one word")
        lengths = {len(w) for w in self.words}
        if len(lengths) != 1:
            raise ValidationError(f"codebook words have mixed lengths {sorted(lengths)}")
        object.__setattr__(self, "words", tuple(self.words))

    @property
    def size(self) -> int:
        return len(self.words)

    @property
    def word_length(self) -> int:
        return len(self.words[0])


class CQChannel:
    """Map from a finite ordered alphabet to density operators of equal dimension."""

    def __init__(self, labels: Sequence[Label], states: Sequence):
        labels = tuple(labels)
        if len(labels) < 1:
            raise ValidationError("alphabet must be nonempty")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate channel labels")
        if len(states) != len(labels):
            raise ValidationError("one state per label required")
        mats = [validate_density(as_matrix(s)) for s in states]
        dims = {m.shape[0] for m in mats}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")
        self.labels = labels
        self.states = np.stack(mats)
        self.states.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    def state(self, label: Label) -> np.ndarray:
        return self.states[self.labels.index(label)]

    def _check_alphabet(self, dist: Distribution) -> None:
        if dist.labels != self.labels:
            raise ValidationError(
                "distribution alphabet does not match the channel alphabet "
                f"({[format_label(x) for x in dist.labels]} vs "
                f"{[format_label(x) for x in self.labels]})")

    def power(self, n: int, max_dim: int = DEFAULT_MAX_DIM) -> "CQChannel":
        """The memoryless n-letter channel over the product alphabet.

        Labels of the result are n-tuples of base labels in lexicographic
        order of their index vectors.
        """
        if n < 1:
            raise ValidationError(f"power must be ≥ 1, got {n}")
        if self.dim ** n > max_dim:
            raise ResourceLimitError(
                f"output dimension {self.dim}^{n} exceeds the cap {max_dim}")
        if n == 1:
            return self
        entries = self.size ** n * self.dim ** (2 * n)
        if entries > max_dim ** 2:
            raise ResourceLimitError(
                f"materializing the {n}-letter channel needs {self.size}^{n} "
                f"states of dimension {self.dim}^{n} ({entries} matrix entries, "
                f"budget {max_dim}^2); raise max_dim to allow it")
        labels = []
        states = []
        for idx in np.ndindex(*(self.size,) * n):
            labels.append(tuple(self.labels[i] for i in idx))
            states.append(reduce(np.kron, (self.states[i] for i in idx)))
        return CQChannel(labels, states)


@dataclass(frozen=True)
class CQJointState:
    """Classical-quantum joint state: per-letter weights and output blocks."""

    labels: tuple[Label, ...]
    weights: np.ndarray
    blocks: np.ndarray

    def matrix(self) -> np.ndarray:
        """Block-diagonal matrix Σ_x p(x) |x⟩⟨x| ⊗ W_x."""
        k, d = self.blocks.shape[0], self.blocks.shape[1]
        out = np.zeros((k * d, k * d), dtype=complex)
        for i in range(k):
            out[i * d:(i + 1) * d, i * d:(i + 1) * d] = self.weights[i] * self.blocks[i]
        return out

    def marginal_output(self) -> np.ndarray:
        return np.einsum("x,xij->ij", self.weights, self.blocks)


def output_state(channel: CQChannel, dist: Distribution) -> np.ndarray:
    """Induced output state W(p) = Σ_x p(x) W_x."""
    channel._check_alphabet(dist)
    return np.einsum("x,xij->ij", dist.masses, channel.states)


def joint_state(channel: CQChannel, dist: Distribution) -> CQJointState:
    """Joint input-output state with one block (p(x), W_x) per letter."""
    channel._check_alphabet(dist)
    return CQJointState(channel.labels, dist.masses.copy(), channel.states)


def word_state(channel: CQChannel, w: Word, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Tensor product of the letter states, in word order."""
    if channel.dim ** len(w) > max_dim:
        raise ResourceLimitError(
            f"word state dimension {channel.dim}^{len(w)} exceeds the cap {max_dim}")
    return kron_all(channel.state(x) for x in w.symbols)


def codebook_state(channel: CQChannel, c: Codebook, max_dim: int = DEFAULT_MAX_DIM) -> np.ndarray:
    """Uniform average of the codebook's word states."""
    acc = word_state(channel, c.words[0], max_dim).astype(complex)
    for w in c.words[1:]:
        acc = acc + word_state(channel, w, max_dim)
    return acc / c.size


def empirical_output(channel: CQChannel, w: Word) -> np.ndarray:
    """Average single-letter output (1/n) Σ_j W_{x_j}."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for x in w.symbols:
        acc += channel.state(x)
    return acc / len(w)


def compositions(total: int, parts: int) -> np.ndarray:
    """All length-`parts` nonnegative integer vectors summing to `total`.

    Stars and bars: a row is a choice of parts−1 bar positions among the
    total+parts−1 slots of a row of stars, and each count is the number of
    stars between neighbouring bars. `itertools.combinations` yields the bar
    positions in lexicographic order, so the rows are in lexicographic
    (ascending) order too. Shape (C(total+parts-1, parts-1), parts), int64.
    """
    slots = total + parts - 1
    rows = math.comb(slots, parts - 1)
    out = np.empty((rows, parts), dtype=np.int64)
    if parts == 1:
        out[0, 0] = total
        return out
    bars = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(slots), parts - 1)),
        dtype=np.int64, count=rows * (parts - 1)).reshape(rows, parts - 1)
    out[:, 0] = bars[:, 0]
    np.subtract(bars[:, 1:], bars[:, :-1], out=out[:, 1:-1])
    out[:, 1:-1] -= 1
    out[:, -1] = slots - 1 - bars[:, -1]
    return out


def count_m_types(alphabet_size: int, M: int) -> int:
    """Number of M-types on an alphabet of the given size."""
    return math.comb(M + alphabet_size - 1, alphabet_size - 1)


def m_type_counts(alphabet_size: int, M: int, max_types: int = DEFAULT_MAX_TYPES) -> np.ndarray:
    """Count matrix of all M-types, rows lexicographic over mass vectors."""
    if alphabet_size < 1 or M < 1:
        raise ValidationError("alphabet size and M must be ≥ 1")
    total = count_m_types(alphabet_size, M)
    if total > max_types:
        raise ResourceLimitError(
            f"{total} M-types exceed the enumeration cap {max_types}")
    return compositions(M, alphabet_size)


def enumerate_m_types(labels: Sequence[Label], M: int,
                      max_types: int = DEFAULT_MAX_TYPES) -> list[MType]:
    """All M-types on the given alphabet, lexicographically ordered by mass vector."""
    labels = tuple(labels)
    counts = m_type_counts(len(labels), M, max_types)
    return [MType.from_counts(labels, row, M) for row in counts]


def _parse_complex_entry(entry, where: str) -> complex:
    if (not isinstance(entry, (list, tuple))) or len(entry) != 2:
        raise ValidationError(f"{where}: expected [re, im], got {entry!r}")
    return complex(float(entry[0]), float(entry[1]))


def channel_from_json(source) -> CQChannel:
    """Parse a channel file: {"dim": d, "inputs": [{"label": …, "state": …}]}.

    `source` is a path or an already-parsed dict. State entries are
    [re, im] pairs in a dim×dim nested array.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict) or "dim" not in doc or "inputs" not in doc:
        raise ValidationError("channel file must be an object with 'dim' and 'inputs'")
    dim = doc["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValidationError(f"'dim' must be a positive integer, got {dim!r}")
    labels = []
    states = []
    for i, item in enumerate(doc["inputs"]):
        where = f"inputs[{i}]"
        if not isinstance(item, dict) or "label" not in item or "state" not in item:
            raise ValidationError(f"{where}: expected an object with 'label' and 'state'")
        rows = item["state"]
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValidationError(f"{where}: state is not {dim}x{dim}")
        mat = np.array([[_parse_complex_entry(rows[r][c], f"{where}.state[{r}][{c}]")
                         for c in range(dim)] for r in range(dim)])
        labels.append(item["label"])
        states.append(mat)
    return CQChannel(labels, states)


def distribution_from_json(source, labels: Sequence[Label] | None = None) -> Distribution:
    """Parse a {label: mass} JSON map, aligned to `labels` when given."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValidationError("distribution file must be a {label: mass} object")
    return Distribution.from_dict(doc, labels)


def codebook_from_json(source) -> Codebook:
    """Parse a codebook file: a JSON array of arrays of labels."""
    if isinstance(source, list):
        doc = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    if not isinstance(doc, list) or not doc:
        raise ValidationError("codebook file must be a nonempty array of words")
    return Codebook(tuple(Word(tuple(w)) for w in doc))
