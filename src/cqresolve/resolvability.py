"""Exact and bounded resolution errors.

Exact errors brute-force the finite feasible set of M-types on the product
alphabet, streamed in blocks whose M-types share their prefixes' sums. When
every letter state is diagonal, the trace distances are ℓ₁ distances
between real diagonals, mixed in plain float arithmetic and summed in
numpy's pairwise order (narrow diagonals column by column, as whole-array
adds), and the minimum's distance is recomputed in exact arithmetic so that
it is correctly rounded; otherwise they come from batched eigvalsh.
The worst-input search reports a certified lower bound from a simplex grid
plus local refinement; the grid is searched in byte-sized batches, and
points whose upper bound from a sampled set of witness candidates falls
strictly below the sampled lower bound are skipped.
Soft-covering Monte Carlo draws codebook sample i from the Philox stream
keyed by the seed at counter (0, 0, 0, i), so a sample's letters do not
depend on how many samples are drawn; its distances take the same diagonal
or eigvalsh path as the exact errors.
The one-shot error bounds are evaluated literally from their defining
expressions.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import numpy.linalg as npl

from .channel import (CQChannel, Distribution, MType, _m_type_at, _m_type_sums, _m_type_total,
                      m_type_counts, output_state)
from .errors import (MAX_COUNT_BYTES, MAX_MATRIX_BYTES, ResourceLimitError, ValidationError,
                     check_budget, check_positive_int, check_real)
from .info import (KERNEL_MASS_TOL, SUPPORT_EIG_TOL, RenyiOrder, _kernel_mass,
                   _renyi_fixed_points, pinch, pinching_from_spectrum)
from .linalg import (_batch_rows, _kron_rows, eigh, hermitianize,
                     positive_part_projector, validate_density)

ARGMIN_TIE_TOL = 1e-12
WORST_REFINE_TOL = 1e-6
CEIL_GRID_SNAP = 1e-9
# The worst-input grid search evaluates every this-many-th grid point in full
# first, for a lower bound and the witnesses that prune the rest.
WORST_SAMPLE_STRIDE = 32
# 2.0 ** x overflows a float from here on.
MAX_RATE_EXPONENT = 1024
# Bytes of the reused buffer of uniforms that codebook draws become letters in.
DRAW_CHUNK_BYTES = 2 ** 18
# Alphabets of at least this many letters turn draws into letters by binary
# search, smaller ones by counting thresholds in uint8 (`_letters`): one
# pass per letter, against a search whose branches random draws mispredict.
# Counting costs less up to about 384 letters, past what uint8 counts hold.
SEARCHED_LETTERS = 256
# Diagonals of at least this many entries are summed by numpy's row
# reduction, narrower ones column by column (`_half_l1_distances`).
WIDE_ROW = 16
# Bytes of the reused |difference| buffer that wide diagonals are summed in:
# a chunk small enough to stay in a core's cache from subtract to sum.
WIDE_CHUNK_BYTES = 2 ** 18


@dataclass(frozen=True)
class ResolutionResult:
    """Exact (or certified-lower-bound) resolution error with its witnesses."""

    error: float
    argmin: MType
    M: int
    n: int
    approximate: str | None = None
    worst_input: Distribution | None = None

    def __post_init__(self):
        check_real("error", self.error, 0.0, 1.0 + 1e-12)


@dataclass(frozen=True)
class SmoothingParams:
    """Geometric-grid smoothing parameters: grid step λ, depth v, threshold L."""

    lam: float
    v: int
    L: float = 1.0

    def __post_init__(self):
        check_real("lambda", self.lam, 0.0, open_lo=True)
        check_positive_int("v", self.v)
        check_real("L", self.L, 0.0, open_lo=True)


@dataclass(frozen=True)
class SoftCoverReport:
    """Monte-Carlo codebook experiment summary plus the analytic bounds.

    ``renyi_converged`` and ``renyi_iterations`` carry, per order α, the
    evidence of the Rényi fixed point behind ``bounds[α]``.
    """

    samples: int
    mean_error: float
    bounds: dict[float, float]
    seed: int
    M: int
    n: int
    std_error: float
    distances: np.ndarray = field(repr=False)
    renyi_converged: dict[float, bool]
    renyi_iterations: dict[float, int]

    def __post_init__(self):
        check_positive_int("samples", self.samples)
        check_real("mean error", self.mean_error, -1e-12, 1.0 + 1e-12)


def _half_trace_distances(flat_outputs: np.ndarray, target_flat: np.ndarray,
                          dim: int) -> np.ndarray:
    """½‖row − target‖₁ over the last axis of flattened Hermitian matrices (broadcasts)."""
    diffs = flat_outputs - target_flat
    spectra = npl.eigvalsh(diffs.reshape(diffs.shape[:-1] + (dim, dim)))
    return 0.5 * np.sum(np.abs(spectra), axis=-1)


def _half_l1_distances(diagonals: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """½‖row − target‖₁ for every target and row of real diagonals, as a targets × rows table.

    Each sum has the bits of np.sum over its row of |differences|, whose
    order is numpy's pairwise_sum: fewer than 8 entries in sequence; 8 to
    128 in eight lanes, added as ((r₀+r₁)+(r₂+r₃))+((r₄+r₅)+(r₆+r₇)), then
    the rest in sequence; more split in two at half the width rounded down
    to a multiple of 8. Rows of fewer than WIDE_ROW entries take that order
    column by column: every |row − target| column of the block goes into
    one (width, targets, rows) buffer, and the columns are added as whole
    arrays, so no per-row reduction runs. Wider rows are summed by numpy's
    own row reduction, which costs less per entry there than whole-array
    adds of strided columns, over chunks of one reused buffer of about
    WIDE_CHUNK_BYTES.
    """
    (t, width), rows = targets.shape, diagonals.shape[0]
    if width >= WIDE_ROW:
        table = np.empty((t, rows))
        chunk = max(1, WIDE_CHUNK_BYTES // (t * width * diagonals.itemsize))
        diffs = np.empty((t, min(chunk, rows), width))
        for lo in range(0, rows, chunk):
            part = diffs[:, :min(chunk, rows - lo)]
            np.subtract(diagonals[lo:lo + chunk], targets[:, None], out=part)
            np.abs(part, out=part)
            np.add.reduce(part, axis=-1, out=table[:, lo:lo + chunk])
        table *= 0.5
        return table
    cols = np.empty((width, t, rows))
    np.subtract(diagonals.T[:, None], targets.T[:, :, None], out=cols)
    np.abs(cols, out=cols)
    done = 1
    if width >= 8:
        # one round of eight lanes, columns 0-7, then their tree in place
        for step in (1, 2, 4):
            for j in range(0, 8, 2 * step):
                cols[j] += cols[j + step]
        done = 8
    for j in range(done, width):
        cols[0] += cols[j]
    return 0.5 * cols[0]


def _letter_rows(channel: CQChannel, n: int) -> np.ndarray:
    """The letter rows whose n-fold products are the engines' n-letter rows.

    The real diagonals when every off-diagonal entry of every letter is
    exactly 0, as then is every product's, else the complex states. (A
    product of nonzero entries can underflow to 0; it stays on the eigvalsh
    path, which needs no exactness.) For n ≥ 2 the products, 8·(k·d)ⁿ or
    16·(k·d²)ⁿ bytes, must fit in MAX_MATRIX_BYTES, else ResourceLimitError.
    """
    diagonals = np.diagonal(channel.states, axis1=1, axis2=2)
    diagonal = np.count_nonzero(channel.states) == np.count_nonzero(diagonals)
    rows = diagonals.real.copy() if diagonal else channel.states
    if n > 1:
        d = channel.dim
        what = f"diagonals of {d}^{n} entries" if diagonal else f"states of dimension {d}^{n}"
        check_budget(f"the {n}-letter channel of {channel.size}^{n} {what}",
                     (rows.itemsize, rows.size, n), MAX_MATRIX_BYTES)
    return rows


def _check_exact_rows(channel: CQChannel, n: int) -> None:
    """Hold the exact engine's n-letter rows and its copy of them scaled by 1/M to budget.

    `_letter_rows` charges the rows. The copy that the M-type sums start
    from is as large, so a check of its own charges both together against
    MAX_MATRIX_BYTES after it, and every refusal of the rows alone keeps its
    need. At n = 1 neither is charged, as the letters are the channel's.
    """
    letters = _letter_rows(channel, n)
    if n > 1:
        check_budget(f"the {n}-letter rows plus their copy scaled by 1/M",
                     (2 * letters.itemsize, letters.size, n), MAX_MATRIX_BYTES)


class _OutputRows:
    """The n-letter product states as rows that mix into outputs, and their distances.

    The rows are the `_kron_rows` products of `_letter_rows`, with n-tuples
    of letters as labels in the same C order (n = 1: the letters). On real
    diagonals ½‖·‖₁ is ½·Σ|difference|, in real arithmetic throughout, with
    each sum in numpy's pairwise order (`_half_l1_distances`), so it has the
    bits of np.sum over its row of |differences|. Otherwise the rows are the
    flattened matrices and ½‖·‖₁ comes from eigvalsh. Each distance depends
    only on its own two rows, so it has the same bits in any batch.
    """

    def __init__(self, channel: CQChannel, n: int):
        letters = _letter_rows(channel, n)
        self.diagonal = letters.ndim == 2
        self.labels = channel.labels if n == 1 else tuple(
            itertools.product(channel.labels, repeat=n))
        self.dim = channel.dim ** n
        self.rows = _kron_rows(letters, n).reshape(channel.size ** n, -1)
        # bytes charged per distance: on the eigvalsh path the difference of
        # two rows, its eigenvalues and their absolute values; the diagonal
        # path holds at most one |difference| per pair (its column buffer,
        # or a reused chunk for wide rows) but is charged the same, so both
        # paths batch alike
        self.pair_bytes = self.rows[0].nbytes + 2 * self.dim * np.dtype(float).itemsize

    def targets(self, weights: np.ndarray) -> np.ndarray:
        """The row of Σ_x w_x W_x for each row of weights.

        One matmul of a stack of one-row matrices: numpy runs each as the
        matrix-vector product w @ rows, so a row has the same bits for any
        row count. One matrix-matrix product over all rows would not.
        """
        return (weights[:, None, :] @ self.rows)[:, 0]

    def distance_table(self, targets: np.ndarray, outputs: np.ndarray) -> np.ndarray:
        """½‖output − target‖₁ for every pair, as a targets × outputs table.

        Pairs are taken in blocks of about EIG_BATCH_BYTES of temporaries.
        """
        table = np.empty((targets.shape[0], outputs.shape[0]))
        cols = min(outputs.shape[0], _batch_rows(self.pair_bytes))
        rows = _batch_rows(cols * self.pair_bytes)
        for lo in range(0, targets.shape[0], rows):
            block = targets[lo:lo + rows]
            for c in range(0, outputs.shape[0], cols):
                table[lo:lo + rows, c:c + cols] = \
                    _half_l1_distances(outputs[c:c + cols], block) if self.diagonal \
                    else _half_trace_distances(outputs[c:c + cols], block[:, None], self.dim)
        return table


def _first_argmin(errors: np.ndarray) -> tuple[float, int]:
    """The minimum, and the first index within ARGMIN_TIE_TOL of it."""
    best = float(errors.min())
    return best, int(np.flatnonzero(errors <= best + ARGMIN_TIE_TOL)[0])


def _rational_half_l1(channel: CQChannel, dist: Distribution, n: int,
                      counts: np.ndarray, M: int) -> Fraction:
    """½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁ for diagonal states, exactly in the float inputs.

    Every float is an integer over a power of two, so on one scale 2^e for
    all diagonals and masses the sums are exact integer sums, and the value
    is one integer over another, whose float is correctly rounded. For a law
    on the base alphabet the target is W(p)^{⊗n}, which costs dⁿ·n products
    instead of kⁿ·dⁿ·n; the M-type q puts mass on at most M words.
    """
    diag = np.diagonal(channel.states, axis1=1, axis2=2).real.tolist()
    ratios = [v.as_integer_ratio() for v in itertools.chain(*diag, dist.masses.tolist())]
    e = max(den for _, den in ratios).bit_length() - 1
    scaled = iter([num * (2 ** e // den) for num, den in ratios])
    diagonals = [[next(scaled) for _ in row] for row in diag]
    masses = list(scaled)

    def mixture(weights, words) -> list[int]:
        terms = [[w * math.prod(f) for f in itertools.product(*(diagonals[x] for x in word))]
                 for w, word in zip(weights, words)]
        return [sum(column) for column in zip(*terms)]

    def words(index: np.ndarray) -> list[list[int]]:
        return np.transpose(np.unravel_index(index, (channel.size,) * n)).tolist()

    # the target's scale is 2^scale, the candidate's M·2^{ne}
    if dist.labels == channel.labels:
        single = mixture(masses, [[x] for x in range(channel.size)])
        target = [math.prod(f) for f in itertools.product(single, repeat=n)]
        scale = 2 * n * e
    else:
        target, scale = mixture(masses, words(np.arange(len(masses)))), (n + 1) * e
    live = np.flatnonzero(counts)
    cand = mixture([int(counts[i]) for i in live], words(live))
    total = sum(abs(M * t - (c << (scale - n * e))) for t, c in zip(target, cand))
    return Fraction(total, M << (scale + 1))


def resolution_error_exact(channel: CQChannel, dist: Distribution, M: int,
                           n: int = 1) -> ResolutionResult:
    """min over M-types q on X^n of ½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁, exactly.

    The law p is on the base alphabet, taken i.i.d., or on the product one.
    The M-types come from `channel._m_type_sums` in `m_type_counts` order
    (stars and bars, lexicographic), as blocks of mixed outputs of about
    EIG_BATCH_BYTES; M-types with a common prefix share its partial sum, and
    no count matrix is built. Ties within 1e-12 of the minimum resolve to
    the lexicographically first M-type, whose counts are then found from its
    index. When every letter state is diagonal, the outputs are real
    diagonals and each distance is ½·Σ|difference|, in float arithmetic with
    the sum in numpy's pairwise order (`_half_l1_distances`), and the
    argmin's distance is recomputed in exact arithmetic, so the reported
    error is correctly rounded at the argmin. Otherwise the outputs are
    flattened matrices and each distance comes from eigvalsh; the reported
    error is the argmin's distance, with its output mixed from its counts as
    `_OutputRows.targets` mixes a row. M and n must be positive ints;
    `_check_exact_rows` holds the product rows and their scaled copy to
    their budget, and more than MAX_TYPES M-types raise ResourceLimitError
    before any is formed.
    """
    check_positive_int("M", M)
    check_positive_int("n", n)
    _check_exact_rows(channel, n)
    outputs = _OutputRows(channel, n)
    if dist.labels not in (channel.labels, outputs.labels):
        raise ValidationError(
            "distribution labels match neither the base alphabet nor the n-fold product")
    masses = _kron_rows(dist.masses, n) if dist.labels == channel.labels else dist.masses
    target = outputs.targets(masses[None])
    k = len(outputs.labels)
    errors = np.empty(_m_type_total(k, M))
    lo = 0
    for mixed in _m_type_sums(outputs.rows / M, M, _batch_rows(outputs.rows[0].nbytes)):
        errors[lo:lo + mixed.shape[0]] = outputs.distance_table(target, mixed)[0]
        lo += mixed.shape[0]
    best, idx = _first_argmin(errors)
    counts = _m_type_at(k, M, idx)
    if outputs.diagonal:
        best = float(_rational_half_l1(channel, dist, n, counts, M))
    else:
        best = float(outputs.distance_table(target, outputs.targets(counts[None] / M))[0, 0])
    argmin = MType.from_counts(outputs.labels, counts, M)
    return ResolutionResult(min(best, 1.0), argmin, M, n)


def _worst_grid_point(outputs: _OutputRows, cand: np.ndarray,
                      grid_counts: np.ndarray, grid: int) -> tuple[float, int]:
    """The largest inner minimum over the grid, and the first point attaining it.

    The sampled floor and the witness bound are described in
    `resolution_error_worst`. A witness distance has the same bits as that
    entry of the point's full row, so a point whose bound is strictly below
    an attained value can be neither the maximum nor tied with it. Points
    are taken in blocks whose full distance table fits in about
    EIG_BATCH_BYTES.
    """
    sample = outputs.distance_table(
        outputs.targets(grid_counts[::WORST_SAMPLE_STRIDE] / grid), cand)
    is_witness = np.zeros(cand.shape[0], dtype=bool)
    is_witness[np.argmin(sample, axis=1)] = True
    witnesses = cand[is_witness]
    floor = float(sample.min(axis=1).max())

    best_val, best_idx = -1.0, 0
    block = _batch_rows(cand.shape[0] * outputs.pair_bytes)
    for lo in range(0, grid_counts.shape[0], block):
        idx = np.arange(lo, min(lo + block, grid_counts.shape[0]))
        rows = outputs.targets(grid_counts[idx] / grid)
        bound = outputs.distance_table(rows, witnesses).min(axis=1)
        keep = np.flatnonzero(bound >= max(floor, best_val))
        if keep.size == 0:
            continue
        vals = outputs.distance_table(rows[keep], cand).min(axis=1)
        top = int(np.argmax(vals))
        if vals[top] > best_val:
            best_val, best_idx = float(vals[top]), int(idx[keep[top]])
    return best_val, best_idx


def resolution_error_worst(channel: CQChannel, M: int, n: int = 1, *,
                           grid: int = 20) -> ResolutionResult:
    """Certified lower bound on sup_p min_{M-type q} ½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁.

    Finds the first point of a simplex grid of step 1/grid with the largest
    inner minimum, then refines it by coordinatewise mass moves with step
    halving down to 1e-6. The reported error is ½‖W^{⊗n}(p) − W^{⊗n}(q)‖₁
    at the reported ``worst_input`` p and ``argmin`` q, a true lower bound on
    the supremum. On the diagonal path every candidate within 1e-12 of the
    float minimum at p is recomputed in exact arithmetic, q is the first
    with the least exact distance, and the error is that distance, correctly
    rounded. Candidates and grid points come from `m_type_counts`, in
    lexicographic order. When every letter state is diagonal, the
    candidate outputs are real diagonals and each distance is
    ½·Σ|difference|, in float arithmetic with the sum in numpy's pairwise
    order (`_half_l1_distances`); otherwise they are flattened
    matrices and the distances come from eigvalsh.

    The grid phase evaluates every WORST_SAMPLE_STRIDE-th point in full. The
    largest of those inner minima is a lower bound on the grid maximum, and
    their argmins are witnesses: a point's least distance to a witness
    bounds its inner minimum from above, so a point whose bound is strictly
    below an attained value is skipped. The remaining points are evaluated
    in full. Distances are taken in batches of about EIG_BATCH_BYTES, and
    each point's output comes from its own matrix-vector product, so the
    result has the same bits as evaluating every grid point in turn.

    A refinement sweep tries the moves (i, j), mass from j to i, in order.
    It evaluates the moves from the current point in blocks that fit in
    about EIG_BATCH_BYTES, accepts the first that beats the best value by
    more than 1e-15, and goes on from the new point with the moves after
    it; so it accepts the same points as trying one move at a time. M, n
    and grid must be positive ints. `_OutputRows` and `m_type_counts` hold
    the product rows, candidates and grid points to their budgets; the
    candidates' outputs, held at once, must fit in MAX_MATRIX_BYTES.
    """
    check_positive_int("M", M)
    check_positive_int("n", n)
    check_positive_int("grid", grid)
    outputs = _OutputRows(channel, n)
    k = len(outputs.labels)
    types = math.comb(M + k - 1, k - 1)
    check_budget(f"the outputs of the M-types of {k} letters at M = {M}",
                 types * outputs.rows[0].nbytes, MAX_MATRIX_BYTES)
    cand_counts = m_type_counts(k, M)
    cand = (cand_counts / M) @ outputs.rows
    grid_counts = m_type_counts(k, grid)
    best_val, idx = _worst_grid_point(outputs, cand, grid_counts, grid)
    best_p = grid_counts[idx] / grid

    to, fro = np.nonzero(~np.eye(k, dtype=bool))
    block = _batch_rows(cand.shape[0] * outputs.pair_bytes)
    step = 1.0 / grid
    while step >= WORST_REFINE_TOL:
        improved, lo = False, 0
        while lo < to.size:
            moves = lo + np.flatnonzero(best_p[fro[lo:lo + block]] >= step)
            trials = np.repeat(best_p[None], moves.size, axis=0)
            trials[np.arange(moves.size), fro[moves]] -= step
            trials[np.arange(moves.size), to[moves]] += step
            vals = outputs.distance_table(outputs.targets(trials), cand).min(axis=1)
            up = np.flatnonzero(vals > best_val + 1e-15)
            lo = moves[up[0]] + 1 if up.size else lo + block
            if up.size:
                best_val, best_p, improved = float(vals[up[0]]), trials[up[0]], True
        if not improved:
            step /= 2.0
    dists = outputs.distance_table(outputs.targets(best_p[None]), cand)[0]
    final_val, q_idx = _first_argmin(dists)
    worst = Distribution(outputs.labels, best_p)
    if outputs.diagonal:
        ties = np.flatnonzero(dists <= final_val + ARGMIN_TIE_TOL)
        final_val, q_idx = min(
            (float(_rational_half_l1(channel, worst, n, cand_counts[i], M)), int(i)) for i in ties)
    argmin = MType.from_counts(outputs.labels, cand_counts[q_idx], M)
    return ResolutionResult(max(final_val, 0.0), argmin, M, n,
                            approximate="lower bound", worst_input=worst)


def _soft_cover_from_info(alpha: float, info_bits: float, M: int) -> float:
    """The mean-error bound 2^{2/α − 2} · 2^{((α−1)/α)·(I_α − log₂ M)}, I_α in bits.

    The −log₂ M term sits inside the (α−1)/α factor: at α = 2 the bound is
    ½·√(2^{I₂}/M), the familiar χ²-style covering bound with the 1/√M decay
    that the codebook average actually exhibits.  Placing −log₂ M outside the
    factor would claim a 1/M decay, which the sample mean provably exceeds
    for any nondegenerate channel once M is large.
    """
    exponent = (2.0 / alpha - 2.0) \
        + ((alpha - 1.0) / alpha) * (info_bits - math.log2(M))
    return 2.0 ** exponent


def _letters(uniforms: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    """The letter of each uniform u: how many of the cumulative masses cdf[:-1] are ≤ u.

    That is searchsorted(cdf, u, "right") capped at k − 1, as the cdf is
    non-decreasing. Below SEARCHED_LETTERS letters it is counted by whole-array
    compare-adds in uint8, one per threshold; from there on numpy's binary
    search does it.
    """
    k = cdf.size
    if k >= SEARCHED_LETTERS:
        letters = np.searchsorted(cdf, uniforms, side="right")
        return np.minimum(letters, k - 1, out=letters)
    letters = np.zeros(uniforms.shape, dtype=np.uint8)
    above = np.empty(uniforms.shape, dtype=bool)
    for threshold in cdf[:-1]:
        np.greater_equal(uniforms, threshold, out=above)
        letters += above.view(np.uint8)
    return letters


def _codeword_indices(seed: int, samples: int, M: int, n: int,
                      cdf: np.ndarray) -> np.ndarray:
    """(samples, M) C-order indices of the letters `_letters(u, cdf)` of each codeword.

    Row i's uniforms are Philox(key=seed, counter=[0, 0, 0, i]).random((M, n)).
    One generator draws them all, in a reused buffer of about DRAW_CHUNK_BYTES
    of whole codewords. At the start of row i its state is set to counter
    (0, 0, 0, i) with the buffer empty, the state of a generator built there.
    """
    k = cdf.size
    bits = np.random.Philox(key=seed)
    gen = np.random.Generator(bits)
    # in Python ints, which the state setter reads faster than numpy scalars
    state = bits.state
    counter = state["state"]["counter"] = [0, 0, 0, 0]
    state["state"]["key"] = state["state"]["key"].tolist()
    state["buffer"], state["buffer_pos"] = [0] * 4, 4
    words = np.empty(samples * M, dtype=np.int64)
    rows = max(1, DRAW_CHUNK_BYTES // (n * np.dtype(float).itemsize))
    buf = np.empty((min(rows, words.size), n))
    for lo in range(0, words.size, rows):
        hi = min(lo + rows, words.size)
        # codewords lo…hi−1, drawn up to the end of each sample in turn
        start = lo
        while start < hi:
            end = min(hi, start - start % M + M)
            if start % M == 0:
                counter[3] = start // M
                bits.state = state
            gen.random(out=buf[start - lo:end - lo])
            start = end
        letters = _letters(buf[:hi - lo], cdf)
        words[lo:hi] = letters[:, 0]
        for column in letters.T[1:]:  # Horner's rule in int64, first letter most significant
            words[lo:hi] = words[lo:hi] * k + column
    return words.reshape(samples, M)


def soft_cover_simulate(channel: CQChannel, dist: Distribution, M: int, n: int,
                        samples: int, seed: int, *,
                        orders: tuple[RenyiOrder, ...] = (RenyiOrder(2.0),)
                        ) -> SoftCoverReport:
    """Monte-Carlo mean of ½‖W_C − W^{⊗n}(q^{⊗n})‖₁ over i.i.d. codebooks.

    Codebook sample i consists of M codewords drawn i.i.d. from q^{⊗n}
    out of the Philox stream with key ``seed`` and counter (0, 0, 0, i), so
    sample i's letters are the same for any ``samples`` ≥ i + 1. One
    generator draws every sample and is set to each sample's counter, with
    an empty buffer, before drawing it, which gives each sample the
    uniforms of a generator built at its counter (`_codeword_indices`). A
    uniform u becomes the least letter x with u < cdf[x], or the last letter
    if there is none: the count of cumulative masses cdf[:-1] at or below u,
    taken by whole-array compare-adds in uint8 below SEARCHED_LETTERS
    letters and by binary search from there on, with the same letters
    either way. The
    seed must lie in [0, 2¹²⁸). The draws run in one thread; the command
    line's ``--workers`` flag is checked (≥ 1) and has no effect. The
    product rows are held to their budget by `_letter_rows`. More than
    MAX_COUNT_BYTES of draws and codeword counts (8 bytes each,
    samples × (M·n + kⁿ)) raise ResourceLimitError before any is drawn,
    and the draws' peak memory stays near that budget.

    The bound for each order uses I_α(X^n;B^n) = n·I_α(X;B), since the
    sandwiched Rényi mutual information is additive for α ≥ 1/2; the
    fixed point runs on the k-letter channel, not on its kⁿ-letter power,
    and for all orders at once (`info._renyi_fixed_points`). It depends on
    neither n nor M, so it is memoized in-process: keyed on the orders and
    the bytes of the k-letter states and the law, at most RENYI_MEMO_ENTRIES
    entries, each call given σ arrays of its own. Repeated calls on one
    channel, law and order list run it once.
    """
    channel._check_alphabet(dist)
    check_positive_int("M", M)
    check_positive_int("n", n)
    check_positive_int("samples", samples)
    if isinstance(seed, bool) or not (isinstance(seed, int) and 0 <= seed < 2 ** 128):
        raise ValidationError(f"seed must be an integer in [0, 2^128), got {seed}")
    outputs = _OutputRows(channel, n)
    size = len(outputs.labels)
    check_budget(f"a codebook experiment of {samples} samples of {M} x {n} draws and "
                 f"{size} codeword counts", samples * (M * n + size)
                 * np.dtype(np.int64).itemsize, MAX_COUNT_BYTES)

    words = _codeword_indices(seed, samples, M, n, np.cumsum(dist.masses))
    words += size * np.arange(samples)[:, None]
    counts = np.bincount(words.ravel(), minlength=samples * size).reshape(samples, size)
    outs = outputs.targets(counts / M)
    distances = outputs.distance_table(
        outputs.targets(_kron_rows(dist.masses, n)[None]), outs)[0]

    infos = _renyi_fixed_points(tuple(order.alpha for order in orders), channel, dist)
    bounds, converged, iterations = {}, {}, {}
    for order, info in zip(orders, infos):
        bounds[order.alpha] = _soft_cover_from_info(order.alpha, n * info.value, M)
        converged[order.alpha] = info.converged
        iterations[order.alpha] = info.iterations
    mean = float(distances.mean())
    std = float(distances.std(ddof=1)) if samples > 1 else 0.0
    return SoftCoverReport(samples=samples, mean_error=mean, bounds=bounds,
                           seed=seed, M=M, n=n, std_error=std,
                           distances=distances, renyi_converged=converged,
                           renyi_iterations=iterations)


def ceil_operator(rho, params: SmoothingParams) -> np.ndarray:
    """Spectral rounding of ρ up onto the geometric grid s₁·2^{λk}, k ≥ −v.

    Each eigenvalue s maps to s₁·2^{λ·max(−v, ⌈log₂(s/s₁)/λ⌉)}; eigenvalues
    at (or below) the grid floor — including zeros — map to s₁·2^{−vλ}, so
    the result is full rank with at most v+1 distinct eigenvalues and
    satisfies ρ ≤ ⌈ρ⌉ ≤ 2^λρ + 2^{−vλ}I.
    """
    m = validate_density(rho)
    dec = eigh(m)
    top = float(dec.eigenvalues[0])
    if top <= 0.0:
        raise ValidationError("cannot smooth the zero operator")
    levels = np.empty_like(dec.eigenvalues)
    for i, s in enumerate(dec.eigenvalues):
        if s <= 0.0:
            levels[i] = -params.v
            continue
        ratio = math.log2(s / top) / params.lam
        nearest = round(ratio)
        k = nearest if abs(ratio - nearest) <= CEIL_GRID_SNAP else math.ceil(ratio)
        levels[i] = max(-params.v, k)
    new_vals = top * np.exp2(params.lam * levels)
    u = dec.eigenvectors
    return hermitianize((u * new_vals) @ u.conj().T)


def _pinched_inputs(channel: CQChannel, dist: Distribution, pmap, ref: np.ndarray):
    """Yield p(x), W_x, E(W_x) and the projector {E(W_x) ≥ ref} for each x with p(x) > 0."""
    for w, mass in zip(channel.states, dist.masses):
        if mass > 0.0:
            pinched = pinch(pmap, w)
            yield float(mass), w, pinched, positive_part_projector(ref, pinched)


def ll2_bound(channel: CQChannel, dist: Distribution, sigma, Cthr: float,
              M: int) -> float:
    """4√(Σ_x p(x) Tr W_x{E_σ(W_x) ≥ Cσ}) + √((v′/M)Σ_x p(x) Tr σ⁻¹E_σ(W_x)²{E_σ(W_x) < Cσ}).

    E_σ is the pinching onto σ's spectral blocks and v′ their count; σ⁻¹ is
    the pseudo-inverse on σ's support.
    """
    channel._check_alphabet(dist)
    check_real("Cthr", Cthr, 0.0, open_lo=True)
    check_positive_int("M", M)
    s = validate_density(sigma)
    if s.shape[0] != channel.dim:
        raise ValidationError("reference state dimension does not match the channel")
    dec = eigh(s)
    if any(mass > 0.0 and _kernel_mass(w, dec) > KERNEL_MASS_TOL
           for w, mass in zip(channel.states, dist.masses)):
        raise ValidationError(
            "a channel state with positive mass leaks outside the reference support")
    pmap = pinching_from_spectrum(s)
    v_prime = pmap.num_blocks
    support = dec.eigenvalues > SUPPORT_EIG_TOL
    inv_vals = np.where(support, 1.0 / np.where(support, dec.eigenvalues, 1.0), 0.0)
    u = dec.eigenvectors
    sigma_inv = (u * inv_vals) @ u.conj().T

    term1 = 0.0
    term2 = 0.0
    for mass, w, pinched, high in _pinched_inputs(channel, dist, pmap, Cthr * s):
        low = np.eye(channel.dim) - high
        term1 += mass * max(0.0, float(np.real(np.trace(w @ high))))
        quad = float(np.real(np.trace(sigma_inv @ pinched @ pinched @ low)))
        term2 += mass * max(0.0, quad)
    return 4.0 * math.sqrt(term1) + math.sqrt(v_prime / M * term2)


def ll1b_bound(channel: CQChannel, dist: Distribution, params: SmoothingParams,
               M: int) -> float:
    """4√(Σ_x p(x) Tr W_x{E_τ(W_x) ≥ Lτ}) + √(vL/M) with τ = ⌈W(p)⌉_{λ,v}."""
    channel._check_alphabet(dist)
    check_positive_int("M", M)
    tau = ceil_operator(output_state(channel, dist), params)
    pmap = pinching_from_spectrum(tau)
    term1 = sum(mass * max(0.0, float(np.real(np.trace(w @ high))))
                for mass, w, _, high in _pinched_inputs(channel, dist, pmap, params.L * tau))
    return 4.0 * math.sqrt(term1) + math.sqrt(params.v * params.L / M)


def converse_trend(channel: CQChannel, dist: Distribution, R: float,
                   n_max: int) -> list[tuple[int, int, float]]:
    """Exact ε(p^{⊗n}, W^{⊗n}, ⌊2^{nR}⌋) for n = 1…n_max, as (n, M, error) rows.

    Each row is one `resolution_error_exact`, which streams its M-types in
    blocks, so memory peaks at the largest n's error vector (8 bytes per
    M-type) plus a few blocks, not at its count matrix. Raises
    ResourceLimitError when n_max·R ≥ 1024: ⌊2^{nR}⌋ no longer fits a float
    there, and its M-types are far past any enumeration cap. Each n's rows
    and their scaled copy (`_check_exact_rows`), then M-type, budget is
    checked, in order, before the first n runs.
    """
    check_real("rate", R, 0.0)
    check_positive_int("n_max", n_max)
    channel._check_alphabet(dist)
    if n_max * R >= MAX_RATE_EXPONENT:
        raise ResourceLimitError(
            f"M = 2^(n*R) at n = {n_max}, R = {R} exceeds 2^{MAX_RATE_EXPONENT}; "
            "its M-types are far past any enumeration cap")
    sizes = [(n, max(1, math.floor(2.0 ** (n * R)))) for n in range(1, n_max + 1)]
    for n, M in sizes:
        _check_exact_rows(channel, n)
        _m_type_total(channel.size ** n, M)
    return [(n, M, resolution_error_exact(channel, dist, M, n).error) for n, M in sizes]
