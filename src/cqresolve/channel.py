"""Classical-quantum channels and their input-side combinatorics.

A channel maps each letter of a finite alphabet to a density operator on a
common d-dimensional space. This module models channels, distributions,
M-types, words, the induced output states, and the JSON file formats
consumed by the command line front end.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Hashable, Sequence

import numpy as np

from .errors import (MAX_COUNT_BYTES, MAX_MATRIX_BYTES, MAX_TYPES, DimensionMismatchError,
                     ValidationError, check_budget, check_positive_int)
from .linalg import _check_densities, _kron_rows, as_matrix

DIST_SUM_TOL = 1e-12
MTYPE_INT_TOL = 1e-9
# Bytes of walker rows per block of `m_type_counts`
_COUNT_BLOCK_BYTES = 2 ** 19

Label = Hashable


def format_label(label: Label) -> str:
    """Human-readable form of a label; tuple labels (product alphabets) are joined."""
    if isinstance(label, tuple):
        parts = [str(x) for x in label]
        sep = "" if all(len(p) == 1 for p in parts) else "|"
        return sep.join(parts)
    return str(label)


def _label_index(labels: tuple[Label, ...], label: Label) -> int:
    """The position of a label in an alphabet; ValidationError naming it if absent."""
    try:
        return labels.index(label)
    except ValueError:
        raise ValidationError(f"unknown label {label!r}") from None


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
        if not isinstance(d, dict):
            raise ValidationError(
                f"a distribution must be a {{label: mass}} map, got {type(d).__name__}")
        if labels is None:
            labels = tuple(d.keys())
        missing = [x for x in d if x not in set(labels)]
        if missing:
            raise ValidationError(f"unknown labels in distribution: {missing}")
        try:
            masses = np.array([float(d.get(x, 0.0)) for x in labels])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"distribution masses must be numbers: {exc}")
        return cls(tuple(labels), masses)

    @classmethod
    def uniform(cls, labels: Sequence[Label]) -> "Distribution":
        k = len(labels)
        return cls(tuple(labels), np.full(k, 1.0 / k))

    @classmethod
    def point_mass(cls, labels: Sequence[Label], at: Label) -> "Distribution":
        labels = tuple(labels)
        masses = np.zeros(len(labels))
        masses[_label_index(labels, at)] = 1.0
        return cls(labels, masses)


@dataclass(frozen=True)
class MType:
    """Distribution whose masses are integer multiples of 1/M.

    `from_counts` keeps the int64 counts it was given, exact at any M below
    2⁶³; an MType built from a distribution derives them from its masses.
    """

    distribution: Distribution
    resolution: int
    _counts: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        check_positive_int("resolution", self.resolution)
        scaled = self.distribution.masses * self.resolution
        if np.max(np.abs(scaled - np.round(scaled))) > MTYPE_INT_TOL:
            raise ValidationError(
                f"masses are not integer multiples of 1/{self.resolution}")

    @classmethod
    def from_counts(cls, labels: Sequence[Label], counts: Sequence[int], M: int) -> "MType":
        given = np.asarray(counts)
        if given.dtype.kind not in "iu":
            raise ValidationError(f"counts must be integers, got {given.dtype} entries")
        counts = given.astype(np.int64)
        if counts.sum() != M:
            raise ValidationError(f"counts sum to {int(counts.sum())}, expected {M}")
        counts.setflags(write=False)
        return cls(Distribution(tuple(labels), counts / M), M, counts)

    @property
    def counts(self) -> np.ndarray:
        if self._counts is not None:
            return self._counts
        return np.round(self.distribution.masses * self.resolution).astype(int)


@dataclass(frozen=True)
class Word:
    """Finite sequence of alphabet letters."""

    symbols: tuple[Label, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValidationError("a word needs at least one symbol")
        object.__setattr__(self, "symbols", tuple(self.symbols))


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
        dims = {as_matrix(s).shape[0] for s in states}
        if len(dims) != 1:
            raise DimensionMismatchError(f"states have mixed dimensions {sorted(dims)}")
        self.labels = labels
        # Check, then copy: the check's temporaries are freed before the copy
        # is made, so peak memory stays at two stacks.
        self.states = np.array(_check_densities(np.asarray(states, dtype=complex)))
        self.states.setflags(write=False)

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])

    def state(self, label: Label) -> np.ndarray:
        return self.states[_label_index(self.labels, label)]

    def _check_alphabet(self, dist: Distribution) -> None:
        if dist.labels != self.labels:
            raise ValidationError(
                "distribution alphabet does not match the channel alphabet "
                f"({[format_label(x) for x in dist.labels]} vs "
                f"{[format_label(x) for x in self.labels]})")

    def power(self, n: int) -> "CQChannel":
        """The memoryless n-letter channel over the product alphabet; n a positive int.

        Labels are n-tuples of base labels in C order of the letter indices,
        the first most significant, as np.kron, np.ndindex and
        np.ravel_multi_index order them; so is each state's product space.
        The states are products of this channel's checked states and are not
        checked again, which would also compound each factor's trace error.
        For n ≥ 2 the kⁿ states of dimension dⁿ must fit in MAX_MATRIX_BYTES,
        else ResourceLimitError before any is built; n = 1 is this channel.
        """
        check_positive_int("n", n)
        if n == 1:
            return self
        check_budget(f"the {n}-letter channel of {self.size}^{n} states of dimension "
                     f"{self.dim}^{n}", (self.states.itemsize, self.size * self.dim ** 2, n),
                     MAX_MATRIX_BYTES)
        product = CQChannel.__new__(CQChannel)
        product.labels = tuple(itertools.product(self.labels, repeat=n))
        product.states = _kron_rows(self.states, n)
        product.states.setflags(write=False)
        return product


def output_state(channel: CQChannel, dist: Distribution) -> np.ndarray:
    """Induced output state W(p) = Σ_x p(x) W_x."""
    channel._check_alphabet(dist)
    return np.einsum("x,xij->ij", dist.masses, channel.states)


def _m_type_total(alphabet_size: int, M: int) -> int:
    """The number of M-types of alphabet_size letters, C(M + k − 1, k − 1).

    Both arguments must be positive ints. More than MAX_TYPES raises
    ResourceLimitError; an M past the largest int64 raises ValidationError.
    """
    check_positive_int("alphabet_size", alphabet_size)
    check_positive_int("M", M)
    total = math.comb(M + alphabet_size - 1, alphabet_size - 1)
    check_budget(f"enumerating {alphabet_size} letters at M = {M}", total, MAX_TYPES, "M-types")
    if M > np.iinfo(np.int64).max:
        raise ValidationError("M must be below 2^63, the largest int64 count")
    return total


def m_type_counts(alphabet_size: int, M: int) -> np.ndarray:
    """Count matrix of all M-types, rows lexicographic over mass vectors.

    The blocks of `_m_type_blocks`, at most _COUNT_BLOCK_BYTES // (8k + 32)
    rows (a charge for each row's walker temporaries), cast into an int64
    matrix in C order, k = alphabet_size columns; both arguments are positive
    ints. More than MAX_TYPES rows, or more than MAX_COUNT_BYTES of matrix,
    raise ResourceLimitError before any row is built; an M past the largest
    int64 raises ValidationError. The worst-input search and the commands'
    type profiles enumerate through it; the exact engine, the bad-codeword
    count and the types-bound sweep walk the tree and never hold the matrix.
    """
    total = _m_type_total(alphabet_size, M)
    check_budget(f"the {total} x {alphabet_size} M-type count matrix",
                 total * alphabet_size * np.dtype(np.int64).itemsize, MAX_COUNT_BYTES)
    counts = np.empty((total, alphabet_size), dtype=np.int64)
    lo = 0
    for rows in _m_type_blocks(alphabet_size, M, _COUNT_BLOCK_BYTES // (8 * alphabet_size + 32)):
        counts[lo:lo + rows.shape[0]] = rows
        lo += rows.shape[0]
    return counts


def _m_type_blocks(alphabet_size: int, M: int, block: int):
    """The count rows of every M-type, in `m_type_counts` order and blocks of at most `block`.

    `_m_type_sums` over the k × k identity, on which Σ_x c_x·e_x is the count
    vector c itself, in the narrowest signed dtype that holds −M − 1, so its
    partial sums, all in −M…M, are exact. More than MAX_TYPES rows, or an
    identity of more than MAX_COUNT_BYTES as int64, raise ResourceLimitError
    at the call, before any block is drawn; an M past the largest int64
    raises ValidationError.
    """
    _m_type_total(alphabet_size, M)
    check_budget(f"the {alphabet_size} x {alphabet_size} identity of the type walk",
                 alphabet_size ** 2 * np.dtype(np.int64).itemsize, MAX_COUNT_BYTES)
    return _m_type_sums(np.eye(alphabet_size, dtype=np.min_scalar_type(-M - 1)), M, block)


def _m_type_tree(alphabet_size: int, M: int) -> tuple[bool, int, int]:
    """(letters, levels, top): the shorter side of stars and bars as a tree.

    Each M-type is a non-decreasing sequence of `levels` values in 0…top.
    For M < k it is its sorted letters a₁ ≤ … ≤ a_M (top k − 1), and
    `m_type_counts` order is the descending order of those sequences, so a
    node's children run from top down to its value. Otherwise it is the
    k − 1 bars (top M) in ascending order, children from the node's value
    up to M. The root's value is 0.
    """
    letters = M < alphabet_size
    return (letters, M, alphabet_size - 1) if letters else (letters, alphabet_size - 1, M)


def _leaves(room: np.ndarray, depth: int) -> np.ndarray:
    """C(room + depth, depth): the leaves `depth` levels below nodes `room` below the top.

    int64; after step i the product is C(room + i, i), so every division is
    exact and no partial product passes depth times the whole tree's size.
    """
    out = np.ones(room.shape, dtype=np.int64)
    for i in range(1, depth + 1):
        out = out * (room + i) // i
    return out


def _m_type_sums(rows: np.ndarray, M: int, block: int):
    """Yield Σ_x c_x·rows[x] for every M-type c of len(rows) letters, in blocks.

    The blocks follow `m_type_counts` row order, each at most `block` rows
    (a positive int). The tree of `_m_type_tree` is walked depth first over
    chunks of sibling prefixes: a chunk with at most `block` leaves below it
    is grown level by level to its leaves and yielded; a longer one is cut
    into runs of at most `block` leaves (a single prefix on its own), and a
    single prefix with more grows its children in runs of at most `block`.
    So no array holds more than `block` rows, and at most one per level
    waits on the stack. A prefix's partial sum is formed once and shared by all
    its children. On the letters side the root holds 0 and level j adds
    rows[a_j]. On the bars side the sum Σ_j (b_j − b_{j−1})·rows[j−1] +
    (M − b_{k−1})·rows[k−1] telescopes to M·rows[k−1] + Σ_j
    b_j·(rows[j−1] − rows[j]): the root holds the first term and level j
    adds the j-th. A sum's bits depend only on its M-type, not on `block`.
    The caller checks the size with `_m_type_total`.
    """
    letters, levels, top = _m_type_tree(rows.shape[0], M)

    def grow(level, last, sums, run=None):
        """The children of every prefix, or children run[0]…run[1] − 1 of a single one."""
        if run is None:
            fan = top + 1 - last
            step = np.arange(fan.sum()) - np.repeat(np.cumsum(fan) - fan, fan)
        else:
            fan, step = [run[1] - run[0]], np.arange(*run)
        sums = np.repeat(sums, fan, axis=0)
        if letters:
            child = top - step
            sums += rows.take(child, axis=0)
        else:
            child = np.repeat(last, fan) + step
            sums += child[:, None] * (rows[level] - rows[level + 1])
        return child, sums

    root = np.zeros(rows.shape[1], rows.dtype) if letters else M * rows[-1]
    stack = [(0, np.zeros(1, dtype=np.intp), root[None], None)]
    while stack:
        level, last, sums, run = stack.pop()
        if run is not None:
            last, sums = grow(level, last, sums, run)
            level += 1
        ends = np.cumsum(_leaves(top - last, levels - level))
        if ends[-1] <= block:
            for j in range(level, levels):
                last, sums = grow(j, last, sums)
            yield sums
        elif last.size == 1:
            fan = top + 1 - int(last[0])
            stack.extend((level, last, sums, (lo, min(lo + block, fan)))
                         for lo in reversed(range(0, fan, block)))
        else:
            cuts, lo = [], 0
            while lo < last.size:
                hi = int(np.searchsorted(ends, (ends[lo - 1] if lo else 0) + block, "right"))
                cuts.append((lo, max(hi, lo + 1)))
                lo = cuts[-1][1]
            stack.extend((level, last[lo:hi], sums[lo:hi], None) for lo, hi in reversed(cuts))


def _m_type_at(alphabet_size: int, M: int, index: int) -> np.ndarray:
    """The int64 counts of row `index` of `m_type_counts(alphabet_size, M)`.

    One root-to-leaf walk of the `_m_type_tree`: at each level the child
    whose leaves hold the index.
    """
    letters, levels, top = _m_type_tree(alphabet_size, M)
    seq, last = [], 0
    for level in range(levels):
        child = np.arange(top, last - 1, -1) if letters else np.arange(last, top + 1)
        ends = np.cumsum(_leaves(top - child, levels - level - 1))
        i = int(np.searchsorted(ends, index, "right"))
        index -= int(ends[i - 1]) if i else 0
        last = int(child[i])
        seq.append(last)
    if letters:
        return np.bincount(seq, minlength=alphabet_size)
    return np.diff(np.array([0, *seq, M], dtype=np.int64))


def _parse_complex_matrix(entry, where: str) -> np.ndarray:
    """A square JSON matrix of [re, im] pairs as a complex array.

    Raises ValidationError on a ragged or non-square shape, or on an entry
    that is not a number.
    """
    try:
        arr = np.asarray(entry, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{where}: expected a matrix of [re, im] numbers: {exc}")
    if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 2:
        raise ValidationError(
            f"{where}: matrix must be square with [re, im] entries, got shape {arr.shape}")
    return arr.view(complex)[..., 0]


def _read_json(source):
    """A str, bytes or path-like source read as a UTF-8 JSON file; any other source as is."""
    if not isinstance(source, (str, bytes, os.PathLike)):
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return json.load(fh)


def channel_from_json(source) -> CQChannel:
    """Parse a channel file: {"dim": d, "inputs": [{"label": …, "state": …}]}.

    `source` is a path or an already-parsed document (`_read_json`). State
    entries are [re, im] pairs in a dim×dim nested array. A label is a JSON
    string or number and is stored in its string form, so the JSON keys of
    a distribution or ID-code `dist` can name it.
    """
    doc = _read_json(source)
    if not isinstance(doc, dict) or "dim" not in doc or "inputs" not in doc:
        raise ValidationError("channel file must be an object with 'dim' and 'inputs'")
    dim = doc["dim"]
    check_positive_int("dim", dim)
    if not isinstance(doc["inputs"], list):
        raise ValidationError("channel file 'inputs' must be an array")
    labels = []
    states = []
    for i, item in enumerate(doc["inputs"]):
        where = f"inputs[{i}]"
        if not isinstance(item, dict) or "label" not in item or "state" not in item:
            raise ValidationError(f"{where}: expected an object with 'label' and 'state'")
        label = item["label"]
        if isinstance(label, bool) or not isinstance(label, (str, int, float)):
            raise ValidationError(
                f"{where}: label must be a JSON string or number, got {label!r}")
        mat = _parse_complex_matrix(item["state"], f"{where}.state")
        if mat.shape[0] != dim:
            raise ValidationError(f"{where}: state is not {dim}x{dim}")
        labels.append(str(label))
        states.append(mat)
    return CQChannel(labels, states)


def distribution_from_json(source, labels: Sequence[Label] | None = None) -> Distribution:
    """Parse a {label: mass} JSON map (`_read_json`), aligned to `labels` when given."""
    return Distribution.from_dict(_read_json(source), labels)

