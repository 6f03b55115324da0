"""Method-of-types machinery in a fixed orthonormal basis.

Empirical states, type projectors and pinchings, the twirling domination
margin, bad codewords, and the commuting types bound, all at finite block
length with exact integer rank arithmetic wherever counts are involved.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np

from .channel import CQChannel, Distribution, Word, _m_type_blocks, _m_type_sums, m_type_counts
from .errors import (MAX_MATRIX_BYTES, DimensionMismatchError, ValidationError, check_budget,
                     check_positive_int, check_real, is_integer)
from .info import SUPPORT_EIG_TOL, PinchingMap
from .linalg import _batch_rows, tensor_power, validate_density

BASIS_GRAM_TOL = 1e-10
BAD_GAP_TIE_TOL = 1e-9


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of C^d, stored as the columns of a unitary matrix."""

    vectors: np.ndarray
    _standard: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=complex)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValidationError(f"basis must be a square matrix, got {v.shape}")
        gram = v.conj().T @ v
        if float(np.max(np.abs(gram - np.eye(v.shape[0])))) > BASIS_GRAM_TOL:
            raise ValidationError("basis vectors are not orthonormal")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "_standard",
                           bool(np.allclose(v, np.eye(v.shape[0]), atol=1e-14)))

    @classmethod
    def standard(cls, d: int) -> "Basis":
        return cls(np.eye(d, dtype=complex))

    @property
    def dim(self) -> int:
        return int(self.vectors.shape[0])

    @property
    def is_standard(self) -> bool:
        """Whether the vectors are the identity within atol 1e-14 (np.allclose).

        Decided once, when the basis is built; a type projector in the
        standard basis is a diagonal mask, with no tensor power of the vectors.
        """
        return self._standard


@dataclass(frozen=True)
class EmpiricalState:
    """Letter-count profile of a length-n word over d basis indices."""

    counts: tuple[int, ...]
    n: int

    def __post_init__(self):
        check_positive_int("n", self.n)
        bad = [c for c in self.counts if not is_integer(c)]
        if bad:
            raise ValidationError(f"counts must be integers, got {bad[0]!r}")
        counts = tuple(int(c) for c in self.counts)
        if any(c < 0 for c in counts):
            raise ValidationError(f"counts must be nonnegative, got {counts}")
        if sum(counts) != self.n:
            raise ValidationError(
                f"counts {counts} sum to {sum(counts)}, expected n = {self.n}")
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    def rank(self) -> int:
        """Exact number of words with this profile: n! / ∏ counts_j!."""
        return _multinomial(self.counts)


def _multinomial(counts) -> int:
    """n! / ∏_j c_j! = ∏_j C(c₁ + … + c_j, c_j) for Python ints c, in any order; no n!."""
    return math.prod(map(math.comb, itertools.accumulate(counts), counts))


def _empirical_state(w: Word, d: int) -> EmpiricalState:
    """Occurrence counts of the word's basis indices."""
    counts = [0] * d
    for sym in w.symbols:
        if not is_integer(sym):
            raise ValidationError(f"word symbols must be basis indices, got {sym!r}")
        if not (0 <= int(sym) < d):
            raise ValidationError(f"basis index {sym} out of range for d = {d}")
        counts[int(sym)] += 1
    return EmpiricalState(tuple(counts), len(w.symbols))


@dataclass(frozen=True)
class TypeProjector:
    """Projector onto all basis words with a fixed letter-count profile."""

    type: EmpiricalState
    basis: Basis
    matrix: np.ndarray
    rank: int


def type_projector(t: EmpiricalState, basis: Basis) -> TypeProjector:
    """Σ over words with profile t of |v[x^n]⟩⟨v[x^n]|, with exact rank.

    The words are those whose `_word_type_keys` entry is the profile's key.
    A dⁿ×dⁿ projector of more than MAX_MATRIX_BYTES (dⁿ > 4096) raises
    ResourceLimitError before any key is formed.
    """
    if basis.dim != t.dim:
        raise DimensionMismatchError(f"basis dim {basis.dim} vs profile dim {t.dim}")
    _check_projector_budget(t.dim, t.n)
    return _type_projector(t, basis, _word_type_keys(t.dim, t.n),
                           _type_keys(np.array([t.counts]))[0])


def type_pinching(basis: Basis, n: int) -> PinchingMap:
    """Pinching map whose blocks are the type projectors of the rows of `m_type_counts`.

    The word keys are formed once for all the types.
    """
    check_positive_int("n", n)
    types = m_type_counts(basis.dim, n)
    _check_projector_budget(basis.dim, n)
    words = _word_type_keys(basis.dim, n)
    return PinchingMap(tuple(_type_projector(EmpiricalState(tuple(c), n), basis, words, key).matrix
                             for c, key in zip(types.tolist(), _type_keys(types).tolist())))


def _check_projector_budget(d: int, n: int) -> None:
    check_budget(f"the {d}^{n} x {d}^{n} type projector",
                 (np.dtype(complex).itemsize, d * d, n), MAX_MATRIX_BYTES)


def _type_projector(t: EmpiricalState, basis: Basis, words: np.ndarray,
                    key: int) -> TypeProjector:
    """The projector of profile t onto the words whose entry of `words` is `key`."""
    mask = words == key
    rank = t.rank()
    if int(np.count_nonzero(mask)) != rank:
        raise ValidationError("word enumeration disagrees with the factorial rank")
    if basis.is_standard:
        matrix = np.diag(mask.astype(complex))
    else:
        cols = tensor_power(basis.vectors, t.n)[:, mask]
        matrix = cols @ cols.conj().T
    return TypeProjector(t, basis, matrix, rank)


def _word_type_keys(d: int, n: int) -> np.ndarray:
    """The type key of every length-n word over d letters, in C order.

    A word's key is its letters sorted ascending, read as n base-d digits,
    so two words share a key exactly when they share a type; `_type_keys`
    forms the same key from a count row. Word w's letters are its base-d
    digits, with no array axis per letter, so d = 1 has one word at any n.
    Keys are below dⁿ, so int64 holds them for every dⁿ within a budget.
    """
    places = d ** np.arange(n - 1, -1, -1, dtype=np.int64)
    letters = np.arange(d ** n)[:, None] // places
    letters %= d
    letters.sort(axis=1)
    return letters @ places


def _type_keys(counts: np.ndarray) -> np.ndarray:
    """The key of each count row's words (see `_word_type_keys`): that of its least word.

    The least word repeats each nonzero letter of the row by its count, in
    ascending order, and is read with the places of `_word_type_keys`.
    """
    d, n = counts.shape[1], int(counts[0].sum())
    rows, letters = np.nonzero(counts)
    least = np.repeat(letters, counts[rows, letters]).reshape(len(counts), n)
    return least @ d ** np.arange(n - 1, -1, -1, dtype=np.int64)


def _standard_partition(types: np.ndarray, ranks: list[int]) -> float:
    """max |Σ_c P_c − 1| entrywise over the standard-basis projectors of the count rows.

    No projector is built. Off the diagonal every P_c is exactly 0, so the
    deviation is the largest |number of rows whose key is a word's − 1| over
    the words, with the rows matched to the words by their own keys: a
    repeated or missing row deviates by 1. First each row must mark exactly
    its rank `ranks[i]` of words, else ValidationError.
    """
    words, keys = np.sort(_word_type_keys(types.shape[1], int(types[0].sum()))), _type_keys(types)
    marked = np.searchsorted(words, keys, "right") - np.searchsorted(words, keys, "left")
    if marked.tolist() != ranks:
        raise ValidationError("word enumeration disagrees with the factorial rank")
    keys.sort()
    rows = np.searchsorted(keys, words, "right") - np.searchsorted(keys, words, "left")
    return float(np.max(np.abs(rows - 1)))


def ee31_margin(w: Word, d: int) -> float:
    """Min eigenvalue of (n+1)^{d-1}·e(x^n)^{⊗n} − twirl(|x^n⟩⟨x^n|).

    Nonnegative (within slack) certifies the twirling domination for the
    word; the word's letters are standard-basis indices. Twirling the word
    projector gives the projector onto the word's type class T_c divided by
    |T_c|, so both terms are diagonal in the word basis and the margin is
    the minimum over types m of (n+1)^{d-1}·∏_j q_j^{m_j} − [m = c]/|T_c|,
    q = c/n. Over m ≠ c the product is least with all n letters on the
    rarest letter (0 when the word lacks a letter), so only that type and c
    are evaluated; for d = 1 both are c. No dⁿ matrix and no type list is
    built, so neither has a cap. d is a positive int. Past the float range,
    (n+1)^{d-1} times a positive product is ∞, not an OverflowError.
    """
    check_positive_int("d", d)
    t = _empirical_state(w, d)
    return float(_twirl_margins(np.array([t.counts]), [t.rank()])[0])


def _twirl_margins(counts: np.ndarray, ranks: list[int]) -> np.ndarray:
    """`ee31_margin` of the words of each int64 count row, all of one n, of multinomials `ranks`.

    Every row gets the bits it gets alone: each power, product and scaling
    is elementwise, and each product runs over the letters in order. The
    rows go in blocks of about EIG_BATCH_BYTES of products.
    """
    d, n = counts.shape[1], int(counts[0].sum())
    scale, inverses = (n + 1) ** (d - 1), np.array([1 / rank for rank in ranks])
    margins, step = np.empty(len(counts)), _batch_rows(2 * d * np.dtype(float).itemsize)
    for lo in range(0, len(counts), step):
        block = counts[lo:lo + step]
        rarest = n * (np.arange(d) == np.argmin(block, axis=1)[:, None])
        types = np.stack([block, rarest], axis=1)
        products = np.prod((block[:, None] / n) ** types, axis=2)
        with np.errstate(over="ignore"):  # the scale as a float mantissa and a power of two
            diag = np.ldexp(scale / 2 ** scale.bit_length() * products, scale.bit_length())
        diag -= np.all(types == block[:, None], axis=2) * inverses[lo:lo + step, None]
        margins[lo:lo + step] = diag.min(axis=1)
    return margins


def bad_codeword_count(channel: CQChannel, dist: Distribution, n: int,
                       delta: float) -> int:
    """How many words x^n have ‖(1/n)Σ_j W_{x_j} − W(p)‖₁ ≥ δ: the bad codewords.

    A word's gap depends only on its type c, an M-type at M = n from
    `_m_type_blocks`, so each bad type adds n!/∏_x c_x! words, a product of
    binomials over its n largest counts (no others are nonzero), which
    `np.partition` gives unordered. `_m_type_sums` walks the k rows of
    `_OutputRows(channel, 1)` in the same blocks, into the sums Σ_x c_x·W_x,
    and a gap is twice a batched distance to n·W(p), over n; on the diagonal
    path one within BAD_GAP_TIE_TOL of δ is decided exactly in the float
    inputs. The walk's budgets raise ResourceLimitError first.
    """
    # imported here: the rest of this module needs none of resolvability
    from .resolvability import _OutputRows, _rational_half_l1

    check_positive_int("n", n)
    check_real("delta", delta, 0.0, open_lo=True)
    channel._check_alphabet(dist)
    outputs, k = _OutputRows(channel, 1), channel.size
    target, bad = outputs.targets(dist.masses[None]), 0
    step = _batch_rows(np.dtype(float).itemsize * k)
    for counts, sums in zip(_m_type_blocks(k, n, step), _m_type_sums(outputs.rows, n, step)):
        gaps = 2 * outputs.distance_table(n * target, sums)[0] / n
        is_bad = gaps >= delta
        if outputs.diagonal:
            for i in np.flatnonzero(np.abs(gaps - delta) <= BAD_GAP_TIE_TOL):
                is_bad[i] = 2 * _rational_half_l1(channel, dist, 1, counts[i], n) >= delta
        largest = np.partition(counts[is_bad], max(k - n, 0), axis=1)[:, -n:]
        bad += sum(map(_multinomial, largest.tolist()))
    return bad


@dataclass(frozen=True)
class TypesBoundCheck:
    """One row of the commuting types-bound sweep."""

    lhs: float
    rhs: float
    ok: bool


def commuting_types_bound_check(rho, rho_prime: EmpiricalState) -> TypesBoundCheck:
    """Exact Tr ρ^{⊗n} T_{ρ'} vs 2^{−n D(ρ'‖ρ)} for diagonal ρ, n the profile's n.

    The one-row case of `_types_bound_checks`, given only the powers its row
    reads; no n-fold matrix is built. A counted letter of mass at most
    SUPPORT_EIG_TOL in ρ zeroes both sides: the bound holds vacuously.
    """
    m = validate_density(rho)
    off = m - np.diag(np.diag(m))
    if float(np.max(np.abs(off))) > 1e-10:
        raise ValidationError("the types bound check requires a diagonal state")
    if m.shape[0] != rho_prime.dim:
        raise DimensionMismatchError(
            f"state dim {m.shape[0]} vs profile dim {rho_prime.dim}")
    probs, row = np.real(np.diag(m)), rho_prime.counts
    powers = [{c: p.as_integer_ratio()[0] ** c} for p, c in zip(probs.tolist(), row)]
    return next(_types_bound_checks(probs, np.array([row]), powers))


def _types_bound_checks(probs: np.ndarray, counts: np.ndarray, powers) -> Iterator[TypesBoundCheck]:
    """Yield the types-bound row of each count row of one n, against the masses `probs`.

    A mass is p_num / 2^k exactly and `powers[x][c]` is letter x's p_num^c,
    for each c the rows read; with the row's `_multinomial` a left side is
    one correctly rounded division of exact integers and underflows only
    where the value does. The divergences are one array expression, a row's
    uncounted letters adding 0; a right side is 2^{−n D} as a Python float.
    A row counting a letter of mass ≤ SUPPORT_EIG_TOL is (0, 0, True).
    """
    n, live = int(counts[0].sum()), counts > 0
    freq, shifts = counts / n, [p.as_integer_ratio()[1].bit_length() - 1 for p in probs.tolist()]
    with np.errstate(divide="ignore", invalid="ignore"):  # log2 of the zero counts and masses
        divs = np.add.reduce(np.where(live, freq * (np.log2(freq) - np.log2(probs)), 0.0), axis=1)
    vacuous = np.any(live & (probs <= SUPPORT_EIG_TOL), axis=1)
    for row, div, dead in zip(counts.tolist(), divs.tolist(), vacuous.tolist()):
        if dead:
            yield TypesBoundCheck(0.0, 0.0, True)
            continue
        num, shift = _multinomial(row), 0
        for column, bits, c in zip(powers, shifts, row):
            num, shift = num * column[c], shift + c * bits
        lhs, rhs = num / (1 << shift), 2.0 ** (-n * div)
        yield TypesBoundCheck(lhs, rhs, lhs <= rhs * (1.0 + 1e-9))


def _types_bound_sweep(probs: np.ndarray, n_max: int):
    """Yield n, the count list and the `_types_bound_checks` row of every type of n = 1…n_max.

    The types of each n come from `_m_type_blocks` in blocks of about
    EIG_BATCH_BYTES of floats, with no count matrix; each mass numerator's
    powers, 0…n, come from a table grown by one multiplication per n.
    """
    nums = [p.as_integer_ratio()[0] for p in probs.tolist()]
    powers, step = [[1] for _ in nums], _batch_rows(4 * probs.nbytes)
    for n in range(1, n_max + 1):
        for p_num, column in zip(nums, powers):
            column.append(column[-1] * p_num)
        for block in _m_type_blocks(probs.size, n, step):
            yield from zip(itertools.repeat(n), block.tolist(),
                           _types_bound_checks(probs, block, powers))
