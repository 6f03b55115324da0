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
from dataclasses import dataclass
from typing import Hashable, Sequence

import numpy as np

from .errors import (MAX_COUNT_BYTES, MAX_MATRIX_BYTES, MAX_TYPES, DimensionMismatchError,
                     ValidationError, check_budget, check_nonnegative_int,
                     check_positive_int)
from .linalg import _check_densities, _kron_rows, as_matrix

DIST_SUM_TOL = 1e-12
MTYPE_INT_TOL = 1e-9

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
                     f"{self.dim}^{n}", self.size ** n * self.dim ** (2 * n)
                     * self.states.itemsize, MAX_MATRIX_BYTES)
        product = CQChannel.__new__(CQChannel)
        product.labels = tuple(itertools.product(self.labels, repeat=n))
        product.states = _kron_rows(self.states, n)
        product.states.setflags(write=False)
        return product


def output_state(channel: CQChannel, dist: Distribution) -> np.ndarray:
    """Induced output state W(p) = Σ_x p(x) W_x."""
    channel._check_alphabet(dist)
    return np.einsum("x,xij->ij", dist.masses, channel.states)


def empirical_output(channel: CQChannel, w: Word) -> np.ndarray:
    """Average single-letter output (1/n) Σ_j W_{x_j}."""
    acc = np.zeros((channel.dim, channel.dim), dtype=complex)
    for x in w.symbols:
        acc += channel.state(x)
    return acc / len(w)


def _tail_links(sizes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Block sizes of the next enumeration level, and each of its rows' tail.

    `sizes` are the block sizes of a level, blocks in order of descending
    sum t = total…0. A row of the next level with sum t is a first part c
    and a tail of sum t − c; over c = 0…t the tails run through blocks t,
    t−1, …, 0, the suffix of the level from block t's start. The links are a
    ones array with a jump back at each block start, summed by one cumsum.
    """
    starts = np.cumsum(sizes) - sizes
    rows = int(sizes.sum())
    above = rows - starts
    links = np.ones(int(above.sum()), dtype=np.intp)
    links[(np.cumsum(above) - above)[1:]] = starts[1:] - (rows - 1)
    links[0] = 0
    np.cumsum(links, out=links)
    return above, links


def compositions(total: int, parts: int) -> np.ndarray:
    """All length-`parts` nonnegative integer vectors summing to `total`.

    Rows in lexicographic (ascending) order, shape
    (C(total+parts-1, parts-1), parts), int64; total is a nonnegative int
    and parts a positive int. Level j holds the last j parts of every row:
    all compositions into j parts of each sum t ≤ total, in blocks of
    descending t, each block lexicographic. Each level row stores its first
    part and a link to its tail's row on the level below (`_tail_links`),
    and the rows of level parts−1 are the output rows, with the first part
    total − t. The columns are then filled by following the links, one
    gather per column. The work is a fixed number of array operations per
    level and per column, and no Python loop runs once per row.
    """
    check_nonnegative_int("total", total)
    check_positive_int("parts", parts)
    out = np.empty((math.comb(total + parts - 1, parts - 1), parts), dtype=np.int64)
    if parts == 1:
        out[0, 0] = total
        return out
    sums = np.arange(total, -1, -1, dtype=np.int64)
    # Level 0 is the empty composition of 0 (so every block but t = 0 is
    # empty); it has no column.
    sizes = (sums == 0).astype(np.int64)
    row_sums = np.zeros(1, dtype=np.int64)
    heads, links = [], []
    for _ in range(parts - 2):
        sizes, link = _tail_links(sizes)
        block_sums = np.repeat(sums, sizes)
        heads.append(block_sums - row_sums[link])
        links.append(link)
        row_sums = block_sums
    # The top level's row sums and first parts go straight into the output
    # (the row sum is total minus the first column), so the largest arrays
    # alive at once are the output, the top level's links and one gather.
    sizes, link = _tail_links(sizes)
    np.subtract(total, np.repeat(sums, sizes), out=out[:, 0])
    np.subtract(total, out[:, 0], out=out[:, 1])
    out[:, 1] -= row_sums[link]
    del row_sums
    for col, head, below in zip(range(2, parts), reversed(heads), reversed(links)):
        out[:, col] = head[link]
        if col < parts - 1:
            link = below[link]
    return out


def m_type_counts(alphabet_size: int, M: int) -> np.ndarray:
    """Count matrix of all M-types, rows lexicographic over mass vectors.

    The rows are `compositions(M, alphabet_size)`; both arguments are
    positive ints. More than MAX_TYPES rows, or a matrix of more than
    MAX_COUNT_BYTES, raise ResourceLimitError before any row is built.
    """
    check_positive_int("alphabet_size", alphabet_size)
    check_positive_int("M", M)
    total = math.comb(M + alphabet_size - 1, alphabet_size - 1)
    check_budget(f"enumerating {alphabet_size} letters at M = {M}", total, MAX_TYPES, "M-types")
    check_budget(f"the {total} x {alphabet_size} M-type count matrix",
                 total * alphabet_size * np.dtype(np.int64).itemsize, MAX_COUNT_BYTES)
    return compositions(M, alphabet_size)


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

