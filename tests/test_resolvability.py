"""Tests for exact resolution errors, soft-covering bounds, and smoothing."""

import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cqresolve as cq
import cqresolve.linalg as linalg
import cqresolve.resolvability as rv
from cqresolve import ValidationError

import oracles as orc
from conftest import assert_psd, build_flip_erase_channel, distinct_eigenvalue_count


def build_binary_flip(eps: float) -> tuple[cq.CQChannel, cq.Distribution]:
    ch = cq.CQChannel(
        ("0", "1"),
        (
            np.diag([1.0 - eps, eps]).astype(complex),
            np.diag([eps, 1.0 - eps]).astype(complex),
        ),
    )
    p = cq.Distribution(("0", "1"), (0.5, 0.5))
    return ch, p


# ---------------------------------------------------------------------------
# resolution_error_exact
# ---------------------------------------------------------------------------


class TestResolutionErrorExact:
    def test_flip_erase_m1_is_zero_via_point_mass(self, flip_erase_channel):
        ch, p = flip_erase_channel
        res = cq.resolution_error_exact(ch, p, 1)
        assert res.error == pytest.approx(0.0, abs=1e-12)
        # The witness is the point mass on the symbol whose output state
        # already equals the p-average output.
        masses = dict(zip(res.argmin.distribution.labels,
                          res.argmin.distribution.masses))
        assert masses["e"] == pytest.approx(1.0)

    def test_p_itself_an_m_type_gives_zero(self):
        ch, _ = build_binary_flip(0.1)
        p = cq.Distribution(("0", "1"), (1.0 / 3.0, 2.0 / 3.0))
        res = cq.resolution_error_exact(ch, p, 3)
        assert res.error == pytest.approx(0.0, abs=1e-12)

    def test_binary_flip_m1_value(self):
        ch, p = build_binary_flip(0.1)
        res = cq.resolution_error_exact(ch, p, 1)
        assert res.error == pytest.approx(0.4, abs=1e-12)
        assert res.error == pytest.approx(orc.binary_flip_exact_error(0.1, 1),
                                          abs=1e-12)

    def test_matches_brute_oracle_n2(self):
        ch, p = build_binary_flip(0.1)
        res = cq.resolution_error_exact(ch, p, 1, 2)
        assert res.error == pytest.approx(orc.binary_flip_exact_error(0.1, 2),
                                          abs=1e-12)

    def test_nonincreasing_when_m_multiplied(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        p = cq.Distribution(("0", "1", "e"), (0.55, 0.25, 0.2))
        errs = [cq.resolution_error_exact(ch, p, 2 * k).error
                for k in (1, 2, 4)]
        assert errs[0] >= errs[1] - 1e-12
        assert errs[1] >= errs[2] - 1e-12

    def test_argmin_is_valid_m_type(self):
        ch, p = build_binary_flip(0.3)
        res = cq.resolution_error_exact(ch, p, 5)
        counts = res.argmin.counts
        assert sum(counts) == 5
        assert counts.dtype.kind == "i" and all(c >= 0 for c in counts)

    def test_result_records_m_and_n(self):
        ch, p = build_binary_flip(0.2)
        res = cq.resolution_error_exact(ch, p, 3, 2)
        assert res.M == 3 and res.n == 2
        assert res.approximate is None

    def test_type_cap_raises(self):
        # 10^7 + 1 M-types of two letters, one past MAX_TYPES
        ch, p = build_binary_flip(0.1)
        with pytest.raises(cq.ResourceLimitError, match="10000001 M-types"):
            cq.resolution_error_exact(ch, p, 10 ** 7, 1)


# ---------------------------------------------------------------------------
# resolution_error_worst
# ---------------------------------------------------------------------------


class TestResolutionErrorWorst:
    def test_single_input_channel_is_zero(self):
        ch = cq.CQChannel(("a",), (np.diag([0.7, 0.3]).astype(complex),))
        res = cq.resolution_error_worst(ch, 1)
        assert res.error == pytest.approx(0.0, abs=1e-12)

    def test_flip_erase_m1_grid_value(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        res = cq.resolution_error_worst(ch, 1, grid=20)
        # Outputs of the three point masses sit at 0.9, 0.1, 0.5 on the
        # diagonal; the hardest achievable average is at 0.3 or 0.7, at
        # trace distance 0.2 from the nearest point mass.
        assert res.error == pytest.approx(0.2, abs=1e-2)
        assert res.error <= 0.2 + 1e-9
        assert res.approximate == "lower bound"
        assert res.worst_input is not None

    def test_nonincreasing_in_m(self, flip_erase_channel):
        ch, _ = flip_erase_channel
        errs = [cq.resolution_error_worst(ch, M, grid=10).error
                for M in (1, 2, 4)]
        assert errs[0] >= errs[1] - 1e-12
        assert errs[1] >= errs[2] - 1e-12

    def test_type_cap_raises(self):
        # their outputs (16 bytes each) fit MAX_MATRIX_BYTES; their count does not
        with pytest.raises(cq.ResourceLimitError, match="10000001 M-types"):
            cq.resolution_error_worst(build_binary_flip(0.1)[0], 10 ** 7, 1)

    def test_candidate_outputs_past_the_matrix_budget_raise(self):
        # 8,347,680 M-types of 8 letters fit their count budget (534 MB), but
        # their 8 x 8 complex outputs would take 8.5 GB.
        ch = cq.CQChannel(("0", "+"), (np.diag([1.0, 0.0]), np.full((2, 2), 0.5)))
        with pytest.raises(cq.ResourceLimitError,
                           match="8 letters at M = 29 needs 8548024320 bytes"):
            cq.resolution_error_worst(ch, 29, 3)


# ---------------------------------------------------------------------------
# the pruned, batched worst-input grid phase against the one-point-at-a-time
# search in oracles.grid_refine_worst: every bit of the result must agree
# ---------------------------------------------------------------------------


def assert_worst_matches_oracle(ch: cq.CQChannel, M: int, n: int, grid: int) -> None:
    res = cq.resolution_error_worst(ch, M, n, grid=grid)
    want = orc.grid_refine_worst(ch.power(n).states, M, grid)
    assert np.array_equal(res.worst_input.masses, want.worst_input)
    if np.any(ch.states[:, ~np.eye(ch.dim, dtype=bool)]):
        assert np.array_equal(res.argmin.distribution.masses, want.argmin_counts / M)
        assert res.error == want.error
    else:
        # diagonal states: the least exact distance over the near-ties at that
        # input, correctly rounded, and the first near-tie attaining it
        exact = [orc.rational_half_l1(np.diagonal(ch.states, axis1=1, axis2=2).real, n,
                                      want.worst_input, counts, M)
                 for counts in want.tie_counts]
        assert res.error == min(exact)
        assert np.array_equal(res.argmin.distribution.masses,
                              want.tie_counts[exact.index(min(exact))] / M)


EPS_SWEEP = [round(0.05 * i, 2) for i in range(1, 10)]


@pytest.mark.parametrize("grid", range(3, 9))
@pytest.mark.parametrize("M", (2, 3, 4))
@pytest.mark.parametrize("eps", EPS_SWEEP)
def test_worst_example1_n1_matches_oracle(eps, M, grid):
    assert_worst_matches_oracle(build_flip_erase_channel(eps)[0], M, 1, grid)


# At n = 2 each case takes up to a second, so the nine ε values cycle
# through the M values and the grid sizes instead of taking their product.
@pytest.mark.parametrize("i", range(len(EPS_SWEEP)))
def test_worst_example1_n2_matches_oracle(i):
    assert_worst_matches_oracle(build_flip_erase_channel(EPS_SWEEP[i])[0],
                                (2, 3, 4)[i % 3], 2, 3 + i % 6)


@pytest.mark.parametrize("eps, M, grid, least", [(0.1, 4, 10, 0.08), (0.25, 1, 5, 0.15)])
def test_worst_bound_is_the_least_exact_distance_among_near_ties(eps, M, grid, least):
    # the float-first near-tie at the worst input is one ulp above the least
    assert cq.resolution_error_worst(build_flip_erase_channel(eps)[0], M, 2,
                                     grid=grid).error == least


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n, M, grid", [(1, 3, 8), (2, 2, 5), (2, 3, 4)])
def test_worst_random_diagonal_matches_oracle(seed, n, M, grid):
    ch, _ = random_diagonal_channel(seed, d=2 + seed % 2)
    assert_worst_matches_oracle(ch, M, n, grid)


def random_qubit_channel(seed: int) -> cq.CQChannel:
    rng = np.random.default_rng(seed)
    return cq.CQChannel(("a", "b"), [orc.random_density(rng, 2) for _ in range(2)])


@pytest.mark.parametrize("n, M, grid", [(1, 3, 8), (2, 2, 4)])
@pytest.mark.parametrize("make", [lambda: non_diagonal_channel()[0],
                                  lambda: random_qubit_channel(0),
                                  lambda: random_qubit_channel(1)],
                         ids=["three-letter", "random-0", "random-1"])
def test_worst_non_diagonal_matches_oracle(make, n, M, grid):
    assert_worst_matches_oracle(make(), M, n, grid)


def test_worst_refinement_split_across_blocks_matches_oracle(monkeypatch):
    # 256 bytes hold less than one pair of 4x4 distance temporaries, so each
    # block of a refinement sweep holds one of its 12 moves.
    monkeypatch.setattr(linalg, "EIG_BATCH_BYTES", 256)
    assert_worst_matches_oracle(random_qubit_channel(1), 2, 2, 4)


def tied_channel() -> cq.CQChannel:
    """Two letters share a state, and every entry is dyadic.

    On a grid of quarters each target and distance is exact, so the grid
    points that split the same mass between "a" and "b" tie exactly.
    """
    shared = np.diag([0.75, 0.25])
    return cq.CQChannel(("a", "b", "c"), [shared, shared, np.diag([0.25, 0.75])])


@pytest.mark.parametrize("budget", [None, 256], ids=["default", "tiny-budget"])
def test_worst_grid_tie_goes_to_first_point(monkeypatch, budget):
    if budget is not None:
        monkeypatch.setattr(linalg, "EIG_BATCH_BYTES", budget)
    ch, M, grid = tied_channel(), 2, 4
    outputs = rv._OutputRows(ch, 1)
    cand = (cq.m_type_counts(3, M) / M) @ outputs.rows
    grid_counts = cq.m_type_counts(3, grid)
    values = np.array([outputs.distance_table(outputs.targets(c[None] / grid), cand).min()
                       for c in grid_counts])
    tied = np.flatnonzero(values == values.max())
    assert tied.size > 1
    assert rv._worst_grid_point(outputs, cand, grid_counts, grid) == (values.max(), tied[0])
    assert_worst_matches_oracle(ch, M, 1, grid)


def test_worst_error_is_the_least_distance_to_candidates_mixed_row_by_row():
    # Each candidate's output is its own vector-matrix product, as every
    # engine mixes a row, so its bits do not depend on the candidate count;
    # one matrix product over all candidates missed this bound on 2 of these
    # 16 channels.
    rng = np.random.default_rng(85)
    for case in range(16):
        k, M = int(rng.integers(5, 9)), int(rng.integers(3, 5))
        ch = cq.CQChannel(tuple(str(x) for x in range(k)),
                          tuple(orc.random_density(rng, 2) for _ in range(k)))
        res = cq.resolution_error_worst(ch, M, grid=4)
        outputs = rv._OutputRows(ch, 1)
        cand = np.array([weights @ outputs.rows for weights in cq.m_type_counts(k, M) / M])
        target = outputs.targets(res.worst_input.masses[None])
        assert res.error == max(float(outputs.distance_table(target, cand)[0].min()), 0.0), case


# ---------------------------------------------------------------------------
# argument checks shared by resolution_error_exact and resolution_error_worst
# ---------------------------------------------------------------------------


NOT_POSITIVE_INTS = [True, False, 0, -1, 2.5, "2", None]


@pytest.mark.parametrize("bad", NOT_POSITIVE_INTS, ids=repr)
@pytest.mark.parametrize("arg", ["M", "n"])
def test_exact_rejects_non_positive_int(arg, bad):
    ch, p = build_binary_flip(0.1)
    args = {"M": 2, "n": 1, arg: bad}
    with pytest.raises(ValidationError, match=f"{arg} must be a positive integer"):
        cq.resolution_error_exact(ch, p, args["M"], args["n"])


@pytest.mark.parametrize("bad", NOT_POSITIVE_INTS, ids=repr)
@pytest.mark.parametrize("arg", ["M", "n", "grid"])
def test_worst_rejects_non_positive_int(arg, bad):
    ch, _ = build_binary_flip(0.1)
    args = {"M": 2, "n": 1, "grid": 4, arg: bad}
    with pytest.raises(ValidationError, match=f"{arg} must be a positive integer"):
        cq.resolution_error_worst(ch, args["M"], args["n"], grid=args["grid"])


@pytest.mark.parametrize("bad", NOT_POSITIVE_INTS, ids=repr)
@pytest.mark.parametrize("arg", ["power", "tensor_power", "n", "samples"])
def test_product_space_entry_points_reject_non_positive_int(arg, bad):
    ch, p = build_binary_flip(0.1)
    calls = {"power": lambda: ch.power(bad),
             "tensor_power": lambda: cq.tensor_power(ch.states[0], bad),
             "n": lambda: cq.soft_cover_simulate(ch, p, 2, bad, 3, 0),
             "samples": lambda: cq.soft_cover_simulate(ch, p, 2, 1, bad, 0)}
    with pytest.raises(ValidationError, match="must be a positive integer"):
        calls[arg]()


# ---------------------------------------------------------------------------
# exact engine: diagonal path, eigvalsh path, byte budget
# ---------------------------------------------------------------------------


def random_diagonal_channel(seed: int, d: int = 3):
    rng = np.random.default_rng(seed)
    labels = ("a", "b", "c")
    ch = cq.CQChannel(labels, [np.diag(rng.dirichlet(np.ones(d))) for _ in labels])
    return ch, cq.Distribution(labels, rng.dirichlet(np.ones(len(labels))))


def non_diagonal_channel():
    labels = ("a", "b", "c")
    states = [np.array([[0.7, 0.2], [0.2, 0.3]]),
              np.array([[0.5, 0.1j], [-0.1j, 0.5]]),
              np.diag([0.2, 0.8])]
    return cq.CQChannel(labels, states), cq.Distribution(labels, (0.2, 0.5, 0.3))


def sweep_channel(name: str):
    """example1 at ε = 0.2, a binary symmetric channel, or a random qubit channel of 2 or 3 letters."""
    if name == "example1":
        ch, _ = build_flip_erase_channel(0.2)
        return ch, cq.Distribution(ch.labels, (0.5, 0.3, 0.2))
    if name == "bsc":
        return build_binary_flip(0.1)
    k = int(name.split("-")[1])
    rng = np.random.default_rng(k)
    labels = tuple("abc"[:k])
    ch = cq.CQChannel(labels, [orc.random_density(rng, 2) for _ in labels])
    return ch, cq.Distribution(labels, rng.dirichlet(np.ones(k)))


def exact_sweep_case(i: int):
    """Case i of the exact engine's seeded sweep: a channel, its law, n and M.

    k 1–3 letters of dimension 1–3 at n 1–3. Even cases are diagonal, and
    every 7th case with two letters or more repeats its first letter, so its
    M-types tie. M is drawn among those up to 40 with at most 20,000
    M-types of the kⁿ product letters, or 1,000 on the eigvalsh path.
    """
    rng = np.random.default_rng(i)
    k, d, n = (int(v) for v in rng.integers(1, 4, size=3))
    labels = tuple("abc"[:k])
    states = [np.diag(rng.dirichlet(np.ones(d))) if i % 2 == 0 else orc.random_density(rng, d)
              for _ in labels]
    if i % 7 == 0 and k > 1:
        states[1] = states[0]
    most = 20_000 if i % 2 == 0 else 1_000
    sizes = [M for M in range(1, 41) if math.comb(M + k ** n - 1, k ** n - 1) <= most]
    return (cq.CQChannel(labels, states), cq.Distribution(labels, rng.dirichlet(np.ones(k))),
            n, int(rng.choice(sizes)))


@pytest.mark.parametrize("rows", [1, 7, 200])
@pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "eigvalsh"])
def test_targets_equal_row_by_row_target(rows, diagonal):
    ch = random_diagonal_channel(5)[0] if diagonal else non_diagonal_channel()[0]
    outputs = rv._OutputRows(ch, 2)
    assert outputs.diagonal is diagonal
    assert outputs.diagonal is not _has_off_diagonal(ch.power(2).states)
    weights = np.random.default_rng(rows).dirichlet(np.ones(9), size=rows)
    got = outputs.targets(weights)
    assert got.dtype == outputs.rows.dtype
    # each row has the bits of its own matrix-vector product
    assert np.array_equal(got, np.stack([w @ outputs.rows for w in weights]))


def _unchecked_channel(states) -> cq.CQChannel:
    """A channel over any complex stack, built as `CQChannel.power` builds one."""
    channel = cq.CQChannel.__new__(cq.CQChannel)
    channel.states = np.asarray(states, dtype=complex)
    channel.labels = tuple(str(i) for i in range(len(channel.states)))
    return channel


def _has_off_diagonal(states) -> bool:
    """The diagonal test as a copy of every off-diagonal entry."""
    dim = states.shape[1]
    return bool(np.any(states[:, ~np.eye(dim, dtype=bool)]))


@pytest.mark.parametrize("case", ["imaginary", "negative-zero", "dimension-1"])
@pytest.mark.parametrize("n", (1, 2))
def test_output_rows_diagonal_reads_every_off_diagonal_entry(case, n):
    if case == "imaginary":
        # the only off-diagonal nonzeros are ±1e-3j, in the last letter
        states = [np.diag([0.9, 0.1]), np.diag([0.3, 0.7]),
                  np.array([[0.5, 1e-3j], [-1e-3j, 0.5]])]
    elif case == "negative-zero":
        states = [np.array([[0.9, -0.0], [-0.0, 0.1]]),
                  np.array([[0.3, complex(0.0, -0.0)], [complex(-0.0, 0.0), 0.7]])]
    else:
        states = [np.ones((1, 1)), np.ones((1, 1))]
    ch = cq.CQChannel(tuple(str(i) for i in range(len(states))), states)
    if case == "negative-zero":
        assert np.signbit(ch.states[0, 0, 1].real) and np.signbit(ch.states[1, 0, 1].imag)
    outputs = rv._OutputRows(ch, n)
    assert outputs.diagonal is (case != "imaginary")
    assert outputs.diagonal is not _has_off_diagonal(ch.power(n).states)
    if outputs.diagonal:
        assert np.array_equal(outputs.rows,
                              np.diagonal(ch.power(n).states, axis1=1, axis2=2).real)


def test_output_rows_diagonal_sweep_against_the_copying_test():
    # stacks of 1-5 matrices of dimension 1-6 whose entries are 0, -0.0 or
    # a real, imaginary or complex nonzero, most of them zero
    rng = np.random.default_rng(25)
    values = np.array([0.0, -0.0, complex(-0.0, -0.0), 0.25, -1e-300, 0.5j, -1e-300j, 1 + 1j])
    seen = set()
    for _ in range(600):
        k, d = int(rng.integers(1, 6)), int(rng.integers(1, 7))
        weights = np.r_[np.full(3, 0.9 / 3), np.full(5, 0.1 / 5)]
        states = values[rng.choice(values.size, p=weights, size=(k, d, d))]
        outputs = rv._OutputRows(_unchecked_channel(states), 1)
        assert outputs.diagonal is not _has_off_diagonal(states)
        seen.add(outputs.diagonal)
    assert seen == {True, False}


def test_underflowed_product_of_off_diagonal_letters_takes_the_eigvalsh_path():
    # Every off-diagonal entry of the 2-letter product is 5e-324·0.5 or
    # (5e-324)², both 0 in floats, but the letters' test reads the letters.
    ch = cq.CQChannel(("a",), [np.array([[0.5, 5e-324], [5e-324, 0.5]])])
    assert not _has_off_diagonal(ch.power(2).states)
    outputs = rv._OutputRows(ch, 2)
    assert not outputs.diagonal
    assert np.array_equal(outputs.rows, ch.power(2).states.reshape(1, -1))


@pytest.mark.parametrize("n", (1, 2, 3, 4))
def test_diagonal_rows_equal_the_power_diagonals(n):
    # seeded diagonal channels of 1-4 letters of dimension 1-4, a third of
    # the letters pure, half of the zero entries -0.0; every case whose
    # power takes at most 32 MiB. Equal as floats: a complex product's
    # imaginary part can turn -0.0, and then the sign of a zero real part
    # can differ from the real product's, which no |difference| reads.
    rng = np.random.default_rng(36 + n)
    for k, d in itertools.product(range(1, 5), repeat=2):
        if 16 * (k * d * d) ** n > 2 ** 25:
            continue
        probs = rng.dirichlet(np.ones(d), size=k)
        pure = rng.random(k) < 1 / 3
        probs[pure] = np.eye(d)[rng.integers(d, size=pure.sum())]
        probs[(probs == 0) & (rng.random((k, d)) < 0.5)] = -0.0
        ch = cq.CQChannel(tuple(range(k)), [np.diag(row) for row in probs])
        outputs = rv._OutputRows(ch, n)
        want = np.diagonal(ch.power(n).states, axis1=1, axis2=2).real
        assert outputs.diagonal
        assert outputs.rows.dtype == want.dtype
        assert np.array_equal(outputs.rows, want), (k, d)


@pytest.mark.parametrize("n", (1, 2, 3))
def test_output_rows_are_the_product_channel(n):
    ch = non_diagonal_channel()[0]
    outputs = rv._OutputRows(ch, n)
    assert outputs.labels == (ch.labels if n == 1 else
                              tuple(itertools.product(ch.labels, repeat=n)))
    assert np.array_equal(outputs.rows, linalg._kron_rows(ch.states, n).reshape(3 ** n, -1))


class TestExactEngine:
    def test_error_is_correctly_rounded_at_the_argmin(self):
        # The float distance at this argmin is 0.012574324218749995, one ulp
        # below the rational value 0.012574324218750006 on the same inputs.
        ch, _ = build_flip_erase_channel(0.43)
        p = cq.Distribution(ch.labels, np.array([1, 7, 8]) / 16)
        res = cq.resolution_error_exact(ch, p, 4, 3)
        assert res.error == 0.012574324218750006
        assert f"{res.error:.12g}" == "0.0125743242188"

    @pytest.mark.parametrize("n, M", [(1, 5), (2, 3), (3, 2)])
    @pytest.mark.parametrize("seed", range(4))
    def test_error_matches_rational_oracle(self, n, M, seed):
        # The base law's target W(p)^{⊗n} and a product law's target both
        # round to the oracle's sum over every word at the same argmin.
        ch, p = random_diagonal_channel(seed, d=2)
        product = ch.power(n)
        base = [math.prod(Fraction(p.masses[x]) for x in w)
                for w in np.ndindex(*(ch.size,) * n)]
        iid = cq.Distribution(product.labels, linalg._kron_rows(p.masses, n))
        diagonals = np.diagonal(ch.states, axis1=1, axis2=2).real
        for dist, word_masses in ((p, base), (iid, iid.masses)):
            res = cq.resolution_error_exact(ch, dist, M, n)
            want = orc.rational_half_l1(diagonals, n, word_masses, res.argmin.counts, M)
            assert res.error == want

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("name", ["example1", "bsc", "qubit-2", "qubit-3"])
    def test_matches_count_matrix_oracle(self, name, n):
        # M on both sides of the product alphabet's size K, so both sides of
        # stars and bars are walked; laws on the base and product alphabets.
        ch, p = sweep_channel(name)
        outputs = rv._OutputRows(ch, n)
        K = len(outputs.labels)
        laws = [(p, [math.prod(Fraction(p.masses[x]) for x in w)
                     for w in np.ndindex(*(ch.size,) * n)])]
        masses = np.random.default_rng(K).dirichlet(np.ones(K))
        laws.append((cq.Distribution(outputs.labels, masses), masses))
        sizes = sorted(M for M in {1, 2, K - 1, K, K + 1} if math.comb(M + K - 1, K - 1) <= 50000)
        step = linalg._batch_rows(K * 8 + outputs.rows[0].nbytes)
        for M in sizes:
            counts = cq.m_type_counts(K, M)
            for dist, word_masses in laws:
                target = outputs.targets(linalg._kron_rows(dist.masses, n)[None]
                                         if dist.labels == ch.labels else dist.masses[None])
                best, idx = orc.count_matrix_resolution_error(
                    counts, outputs.rows, target, outputs.distance_table, M, step)
                res = cq.resolution_error_exact(ch, dist, M, n)
                assert np.array_equal(res.argmin.counts, counts[idx]), (M, dist.labels)
                if outputs.diagonal:
                    best = orc.rational_half_l1(np.diagonal(ch.states, axis1=1, axis2=2).real,
                                                n, word_masses, counts[idx], M)
                    assert res.error == min(best, 1.0), (M, dist.labels)
                else:
                    # the argmin's distance from its own matrix-vector product,
                    # where the oracle took the float minimum of a batch product
                    assert res.error == pytest.approx(best, abs=1e-15), (M, dist.labels)

    def test_streamed_m_types_peak_near_one_batch(self):
        # 906,192 M-types of 27 letters: their count matrix alone would take
        # 196 MB, and their mixed outputs 58 MB; only the error vector is held
        # whole, the rest in blocks of about EIG_BATCH_BYTES.
        ch, _ = build_flip_erase_channel(0.2)
        p = cq.Distribution(ch.labels, (0.5, 0.3, 0.2))
        tracemalloc.start()
        try:
            res = cq.resolution_error_exact(ch, p, 6, 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.error == 0.014568000000000013
        assert peak <= 4 * linalg.EIG_BATCH_BYTES + 8 * math.comb(6 + 26, 26)

    def test_walk_holds_no_second_copy_of_the_rows(self):
        # example1 at n 9, M 1: 3^9 diagonals of 2^9 floats, 80.6 MB of rows;
        # the M-type sums start from the rows themselves
        ch, _ = build_flip_erase_channel(0.2)
        p = cq.Distribution(ch.labels, (0.5, 0.3, 0.2))
        tracemalloc.start()
        try:
            cq.resolution_error_exact(ch, p, 1, 9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 3 ** 9 * 2 ** 9 * 8

    def test_matches_the_walk_of_the_rows_scaled_by_one_over_M(self, monkeypatch):
        # The argmin and the printed error are the ones the former walk of the
        # rows scaled by 1/M gives; at a power-of-two M, where that scaling is
        # exact, so is every entry of the error vector.
        seen, first_argmin = [], rv._first_argmin
        monkeypatch.setattr(rv, "_first_argmin",
                            lambda errors: seen.append(errors) or first_argmin(errors))
        powers = ties = 0
        for i in range(240):
            ch, p, n, M = exact_sweep_case(i)
            outputs = rv._OutputRows(ch, n)
            target = outputs.targets(linalg._kron_rows(p.masses, n)[None])
            former = orc.scaled_walk_errors(cq.channel._m_type_sums, outputs.rows, target,
                                            outputs.distance_table, M,
                                            linalg._batch_rows(outputs.rows[0].nbytes))
            counts = cq.channel._m_type_at(len(outputs.labels), M, first_argmin(former)[1])
            if outputs.diagonal:
                want = float(rv._rational_half_l1(ch, p, n, counts, M))
            else:
                want = float(outputs.distance_table(target, outputs.targets(counts[None] / M))[0, 0])
            res = cq.resolution_error_exact(ch, p, M, n)
            errors = seen.pop()
            assert np.array_equal(res.argmin.counts, counts), i
            assert res.error == min(want, 1.0), i
            np.testing.assert_allclose(errors, former, rtol=0, atol=1e-13)
            if M & (M - 1) == 0:
                assert errors.tobytes() == former.tobytes(), i
                powers += 1
            ties += np.count_nonzero(former <= former.min() + rv.ARGMIN_TIE_TOL) > 1
        assert 0 < powers < 240 and ties

    @staticmethod
    def assert_diagonal_path_matches_eigvalsh_path(ch, p, n, M):
        # eigvalsh on the product states is the oracle of the diagonal path
        product = ch.power(n)
        outputs = rv._OutputRows(ch, n)
        assert outputs.diagonal
        masses = linalg._kron_rows(p.masses, n)
        weights = cq.m_type_counts(product.size, M) / M
        diagonal = outputs.distance_table(outputs.targets(masses[None]),
                                          weights @ outputs.rows)[0]
        flat = product.states.reshape(product.size, -1)
        eig = rv._half_trace_distances(weights @ flat, masses @ flat, product.dim)
        np.testing.assert_allclose(diagonal, eig, rtol=0, atol=1e-14)
        assert rv._first_argmin(diagonal)[1] == rv._first_argmin(eig)[1]
        res = cq.resolution_error_exact(ch, p, M, n)
        assert res.error == pytest.approx(float(eig.min()), abs=1e-14)
        assert np.array_equal(weights[rv._first_argmin(eig)[1]] * M, res.argmin.counts)

    @pytest.mark.parametrize("n, M", [(1, 6), (2, 4), (3, 2)])
    @pytest.mark.parametrize("seed", range(3))
    def test_diagonal_path_matches_eigvalsh_path(self, n, M, seed):
        self.assert_diagonal_path_matches_eigvalsh_path(*random_diagonal_channel(seed), n, M)

    @pytest.mark.parametrize("n, M", [(1, 6), (2, 4), (3, 2)])
    @pytest.mark.parametrize("law", ["uniform", "half"])
    @pytest.mark.parametrize("eps", [0.1, 0.25, 0.5])
    def test_example1_diagonal_path_matches_eigvalsh_path(self, n, M, law, eps):
        # Letters "0" and "1" mirror each other, so many M-types tie; the
        # first argmin must still be the eigvalsh path's.
        ch, half = build_flip_erase_channel(eps)
        p = half if law == "half" else cq.Distribution(ch.labels, np.full(3, 1 / 3))
        self.assert_diagonal_path_matches_eigvalsh_path(ch, p, n, M)

    def test_tiny_off_diagonal_takes_eigvalsh_path(self, monkeypatch):
        states = [np.diag([0.9, 0.1]), np.diag([0.2, 0.8]),
                  np.array([[0.6, 1e-9], [1e-9, 0.4]])]
        ch = cq.CQChannel(("a", "b", "c"), states)
        p = cq.Distribution(("a", "b", "c"), (0.2, 0.5, 0.3))

        def diagonal_path(*args):
            raise AssertionError("the diagonal path was taken")

        monkeypatch.setattr(rv, "_half_l1_distances", diagonal_path)
        for M in (1, 2, 3, 5):
            res = cq.resolution_error_exact(ch, p, M)
            want = orc.brute_force_resolution_error(states, p.masses, M)
            assert res.error == pytest.approx(want, abs=1e-12)
        cq.resolution_error_worst(ch, 2, grid=4)

    @pytest.mark.parametrize("make", [lambda: random_diagonal_channel(7, d=2),
                                      non_diagonal_channel],
                             ids=["diagonal", "non-diagonal"])
    def test_small_byte_budget_is_bit_identical(self, monkeypatch, make):
        ch, p = make()
        product = ch.power(2)

        def run():
            exact = cq.resolution_error_exact(ch, p, 3, 2)
            worst = cq.resolution_error_worst(ch, 2, 2, grid=3)
            cover = cq.soft_cover_simulate(ch, p, 3, 2, samples=7, seed=5)
            return (exact.error, tuple(exact.argmin.distribution.masses),
                    worst.error, tuple(worst.worst_input.masses),
                    cover.distances.tobytes())

        wide = run()
        # A 4x4 complex matrix takes 256 bytes: three fit in the budget, and
        # two (matrices) or seven (diagonals) rows per batch of mixed outputs.
        # A distance pair adds two 4-vectors of floats to its operand, so a
        # batch of pairs holds two (matrices) or eight (diagonals), the seven
        # codebook samples' distances span four batches of matrices, and the
        # worst-input grid phase takes one grid point per block.
        monkeypatch.setattr(linalg, "EIG_BATCH_BYTES", 3 * product.dim ** 2 * 16)
        assert linalg._batch_rows(product.dim ** 2 * 16) == 3
        assert run() == wide
        assert_worst_matches_oracle(ch, 2, 2, 4)


# ---------------------------------------------------------------------------
# the diagonal path's distance kernel against the broadcast formula
# ---------------------------------------------------------------------------


def tied_rows(rng, count: int, width: int, targets: np.ndarray) -> np.ndarray:
    """Random rows, then copies of targets, zeros and rows of eighths."""
    rows = rng.random((count, width))
    copies = min(3, len(targets))
    rows[:copies] = targets[:copies]
    rows[copies:copies + 2] = 0.0
    rows[-5:] = rng.integers(0, 9, (5, width)) / 8
    rows[-1, :width // 2] = targets[0, :width // 2]
    return rows


def strided_copy(rng, a: np.ndarray) -> np.ndarray:
    """``a`` as a view that is neither the start of its base nor contiguous."""
    base = rng.random((a.shape[0] + 3, a.shape[1] + 3))
    base[2:-1, 1:-2] = a
    return base[2:-1, 1:-2]


# At 264 targets the default chunk of wide rows already holds one row.
@pytest.mark.parametrize("count, chunk_bytes", [(1, None), (1, 3000), (2, None), (2, 3000),
                                                (264, None)])
@pytest.mark.parametrize("sliced", [False, True], ids=["contiguous", "sliced"])
def test_half_l1_kernel_has_the_formula_bits(monkeypatch, count, sliced, chunk_bytes):
    # Every width up to 300: both sides of 8 (lanes), 16 (WIDE_ROW), 128
    # (numpy's pairwise block) and 256, and 136, which splits off 64; wide
    # rows in one chunk or several, the last one short.
    if chunk_bytes is not None:
        monkeypatch.setattr(linalg, "CHUNK_BYTES", chunk_bytes)
    rng = np.random.default_rng(count)
    for width in range(1, 301):
        targets = rng.integers(0, 9, (count, width)) / 8
        targets[1::2] = rng.random((count // 2, width))
        rows = tied_rows(rng, 12, width, targets)
        if sliced:
            targets, rows = strided_copy(rng, targets), strided_copy(rng, rows)
        got = rv._half_l1_distances(rows, targets)
        assert got.shape == (count, 12)
        assert np.array_equal(got, orc.half_l1_distances(rows, targets)), width


def test_exact_engine_wide_diagonals_have_the_formula_bits(monkeypatch):
    # A 2-letter diagonal qutrit channel at n = 5: rows of 3^5 = 243 entries,
    # past numpy's pairwise block of 128, and 528 M-types at M = 2. The
    # reported error is recomputed exactly, so only the distances show a
    # change of summation order.
    rng = np.random.default_rng(23)
    ch = cq.CQChannel(("a", "b"), [np.diag(rng.dirichlet(np.ones(3))) for _ in "ab"])
    p = cq.Distribution(ch.labels, (0.3, 0.7))
    kernel, distances = rv._half_l1_distances, []

    def checked(rows, targets):
        got = kernel(rows, targets)
        assert np.array_equal(got, orc.half_l1_distances(rows, targets))
        distances.append(got)
        return got

    monkeypatch.setattr(rv, "_half_l1_distances", checked)
    cq.resolution_error_exact(ch, p, 2, 5)
    assert sum(d.size for d in distances) == 528
    outputs = rv._OutputRows(ch, 5)
    assert outputs.rows.shape == (32, 243)
    target = outputs.targets(linalg._kron_rows(p.masses, 5)[None])
    cand = outputs.targets(cq.m_type_counts(32, 2) / 2)
    assert np.array_equal(outputs.distance_table(target, cand),
                          orc.half_l1_distances(cand, target))


# ---------------------------------------------------------------------------
# the soft-covering bound, as soft_cover_simulate reports it at n = 1
# ---------------------------------------------------------------------------


def single_letter_bound(alpha: float, channel, dist, M: int) -> float:
    """The bound of soft_cover_simulate at n = 1 (one codebook sample)."""
    return cq.soft_cover_simulate(channel, dist, M, 1, 1, 0,
                                  orders=(cq.RenyiOrder(alpha),)).bounds[alpha]


class TestSoftCoverBound:
    def test_trivial_channel_alpha2_m4_is_quarter(self):
        # Both inputs map to the same state, so I_2 = 0 and the bound
        # collapses to 2^{-1} · 2^{-(1/2)·log2 4} = 1/4.
        state = np.diag([0.6, 0.4]).astype(complex)
        ch = cq.CQChannel(("0", "1"), (state, state))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        val = single_letter_bound(2.0, ch, p, 4)
        assert val == pytest.approx(0.25, abs=1e-12)

    def test_trivial_channel_m1_is_half(self):
        state = np.diag([0.6, 0.4]).astype(complex)
        ch = cq.CQChannel(("0", "1"), (state, state))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        val = single_letter_bound(2.0, ch, p, 1)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_doubling_m_scales_by_two_to_minus_ratio(self):
        ch, p = build_binary_flip(0.1)
        for alpha in (1.25, 1.5, 2.0):
            b1 = single_letter_bound(alpha, ch, p, 8)
            b2 = single_letter_bound(alpha, ch, p, 16)
            assert b2 / b1 == pytest.approx(2.0 ** (-(alpha - 1.0) / alpha),
                                            rel=1e-10)

    def test_positive_and_finite(self):
        ch, p = build_binary_flip(0.25)
        for alpha in (1.1, 1.5, 2.0):
            val = single_letter_bound(alpha, ch, p, 32)
            assert 0.0 < val < math.inf

    def test_alpha_at_most_one_rejected(self):
        with pytest.raises(ValidationError):
            cq.RenyiOrder(1.0)


# ---------------------------------------------------------------------------
# soft_cover_simulate
# ---------------------------------------------------------------------------


class TestSoftCoverSimulate:
    def test_single_output_channel_mean_zero(self):
        state = np.diag([0.5, 0.5]).astype(complex)
        ch = cq.CQChannel(("0", "1"), (state, state))
        p = cq.Distribution(("0", "1"), (0.3, 0.7))
        rep = cq.soft_cover_simulate(ch, p, 4, 1, 50, 7)
        assert rep.mean_error == pytest.approx(0.0, abs=1e-12)
        assert rep.std_error == pytest.approx(0.0, abs=1e-12)

    def test_m1_n1_closed_form_average(self):
        # With M = 1 a codebook is a single letter drawn from q, so the
        # exact expectation is sum_x q(x) · ½‖W_x − W(q)‖₁.
        ch, p = build_binary_flip(0.1)
        exact = sum(
            p.masses[i] * orc.half_trace_distance_svd(
                ch.states[i], cq.output_state(ch, p))
            for i in range(2)
        )
        rep = cq.soft_cover_simulate(ch, p, 1, 1, 4000, 11)
        se = rep.std_error / math.sqrt(rep.samples)
        assert abs(rep.mean_error - exact) <= 5.0 * se + 1e-12

    def test_seed_reproducibility_bitwise(self):
        ch, p = build_binary_flip(0.2)
        a = cq.soft_cover_simulate(ch, p, 4, 2, 60, 123)
        b = cq.soft_cover_simulate(ch, p, 4, 2, 60, 123)
        assert a.mean_error == b.mean_error
        assert np.array_equal(a.distances, b.distances)

    def test_bounds_dict_keyed_by_order(self):
        ch, p = build_binary_flip(0.2)
        orders = (cq.RenyiOrder(1.25), cq.RenyiOrder(2.0))
        rep = cq.soft_cover_simulate(ch, p, 4, 1, 20, 5, orders=orders)
        assert set(rep.bounds) == {1.25, 2.0}
        for alpha, bound in rep.bounds.items():
            assert bound == pytest.approx(
                orc.soft_cover_bound(ch.states, p.masses, alpha, 4), rel=1e-12)

    def test_mean_within_three_se_of_bound(self):
        ch, p = build_binary_flip(0.1)
        rep = cq.soft_cover_simulate(ch, p, 8, 2, 200, 42)
        se = rep.std_error / math.sqrt(rep.samples)
        assert rep.mean_error <= rep.bounds[2.0] + 3.0 * se

    @pytest.mark.parametrize("n", [2, 3])
    def test_bounds_match_product_channel_oracle(self, n):
        # Additivity of I_α: the single-letter bound must equal the bound
        # the oracle's fixed point computes on the kⁿ-letter product channel.
        rng = np.random.default_rng(2024)
        labels = ("0", "1", "2", "3")
        ch = cq.CQChannel(labels, tuple(orc.random_density(rng, 2) for _ in labels))
        p = cq.Distribution(labels, (0.1, 0.2, 0.3, 0.4))
        product = ch.power(n)
        masses_n = p.masses
        for _ in range(n - 1):
            masses_n = np.kron(masses_n, p.masses)
        alphas = (1.25, 1.5, 2.0)
        rep = cq.soft_cover_simulate(ch, p, 16, n, 2, 9,
                                     orders=tuple(cq.RenyiOrder(a) for a in alphas))
        for alpha in alphas:
            oracle = orc.soft_cover_bound(product.states, masses_n, alpha, 16)
            assert rep.bounds[alpha] == pytest.approx(oracle, rel=1e-8)

    def test_samples_prefix_is_stable(self):
        ch, p = build_binary_flip(0.2)
        short = cq.soft_cover_simulate(ch, p, 4, 2, 20, 123)
        long = cq.soft_cover_simulate(ch, p, 4, 2, 60, 123)
        assert np.array_equal(short.distances, long.distances[:20])

    def test_convergence_evidence_per_order(self):
        ch, p = build_binary_flip(0.2)
        orders = (cq.RenyiOrder(1.25), cq.RenyiOrder(2.0))
        rep = cq.soft_cover_simulate(ch, p, 4, 2, 5, 1, orders=orders)
        for order in orders:
            info = cq.renyi_mutual_info(order, ch, p)
            assert rep.renyi_converged[order.alpha] is info.converged
            assert rep.renyi_iterations[order.alpha] == info.iterations

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_sample_distances_match_oracle_codebook_state(self, n):
        # Rebuild each sample's codewords from its Philox stream by inverse
        # CDF, one letter at a time, and measure the distance of their
        # Kronecker-product average to p^{⊗n} through singular values.
        ch, p = non_diagonal_channel()
        M, seed = 3, 17
        rep = cq.soft_cover_simulate(ch, p, M, n, 4, seed)
        cdf = np.cumsum(p.masses)
        target = orc.word_state([cq.output_state(ch, p)], [0] * n)
        for i in range(3):
            u = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, i]))
            words = [[next((x for x, c in enumerate(cdf) if v < c), len(cdf) - 1)
                      for v in row] for row in u.random((M, n))]
            mix = orc.codebook_state(ch.states, words)
            assert rep.distances[i] == pytest.approx(
                orc.half_trace_distance_svd(mix, target), abs=1e-12)

    @pytest.mark.parametrize("seed", [-1, 2 ** 128, True, False])
    def test_seed_outside_philox_key_range_rejected(self, seed):
        ch, p = build_binary_flip(0.2)
        with pytest.raises(ValidationError):
            cq.soft_cover_simulate(ch, p, 4, 1, 5, seed)

    # M·n ≡ 0, 1, 2 and 3 (mod 4): a sample can end anywhere in a Philox block
    @pytest.mark.parametrize("M, n", [(4, 1), (5, 1), (3, 2), (5, 3)])
    def test_draws_equal_a_generator_built_at_each_sample_counter(self, monkeypatch, M, n):
        seed = 2 ** 100 + 17
        cdf = np.cumsum([0.2, 0.5, 0.3])
        want = []
        for i in range(5):
            gen = np.random.Generator(np.random.Philox(key=seed, counter=[0, 0, 0, i]))
            letters = np.searchsorted(cdf, gen.random((M, n)), side="right")
            want.append(np.ravel_multi_index(tuple(np.minimum(letters, 2).T), (3,) * n))
        # buffers of one codeword, of 3 (ending inside and across samples), of
        # one sample, and of every sample
        for rows in (1, 3, M, 5 * M):
            monkeypatch.setattr(linalg, "CHUNK_BYTES", rows * n * 8)
            assert np.array_equal(rv._codeword_indices(seed, 5, M, n, cdf), want)

    @staticmethod
    def letter_cdf(k: int, shape: int) -> np.ndarray:
        """A cumulative law of k letters of one of four shapes.

        0: Dirichlet masses; 1: about a third of the masses zero, so
        cumulative masses repeat; 2 and 3: the last cumulative mass two ulps
        below and one above 1. Each entry is then lowered to the least entry
        after it, so the cdf stays non-decreasing.
        """
        rng = np.random.default_rng([k, shape, 25])
        masses = rng.dirichlet(np.ones(k))
        if shape == 1:
            masses[rng.random(k) < 1 / 3] = 0.0
            masses[rng.integers(0, k)] += 1.0
            masses /= masses.sum()
        cdf = np.cumsum(masses)
        if shape == 2:
            cdf[-1] = np.nextafter(np.nextafter(1.0, 0.0), 0.0)
        elif shape == 3:
            cdf[-1] = np.nextafter(1.0, 2.0)
        return np.minimum.accumulate(cdf[::-1])[::-1]

    # both sides of SEARCHED_LETTERS, which the sweep straddles
    @pytest.mark.parametrize("ks", [range(1, 101), range(101, 201), range(201, 301)],
                             ids=["k1-100", "k101-200", "k201-300"])
    def test_letters_sweep_equals_searchsorted_words(self, ks):
        assert 1 < rv.SEARCHED_LETTERS < 300
        for k in ks:
            cdf = self.letter_cdf(k, k % 4)
            n = 1 + k % 3
            for seed in (k, 2 ** 100 + k):
                assert np.array_equal(rv._codeword_indices(seed, 3, 7, n, cdf),
                                      orc.searchsorted_codeword_indices(seed, 3, 7, n, cdf))

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 17, rv.SEARCHED_LETTERS - 1,
                                   rv.SEARCHED_LETTERS, 300])
    @pytest.mark.parametrize("shape", range(4))
    def test_letters_at_the_cumulative_masses(self, k, shape):
        # every cumulative mass, its neighbouring floats, 0 and the largest
        # uniform below 1
        cdf = self.letter_cdf(k, shape)
        u = np.concatenate([cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
                            [0.0, 1.0 - 2.0 ** -53]])
        for uniforms in (u, u.reshape(-1, 1)):
            got = rv._letters(uniforms, cdf)
            assert got.shape == uniforms.shape
            assert np.array_equal(got, orc.searchsorted_letters(cdf, uniforms))

    def test_draws_peak_near_their_byte_budget(self):
        # 10^6 draws and 3 counts budget 8,000,024 bytes; holding the uniforms
        # and their letters at once would peak at twice that.
        ch, p = build_flip_erase_channel(0.1)
        tracemalloc.start()
        try:
            cq.soft_cover_simulate(ch, p, 10 ** 6, 1, 1, 0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * (10 ** 6 + 3) * 8

    def test_draws_and_counts_past_the_byte_budget_raise(self, monkeypatch):
        # 3 samples of 4 x 2 draws and 2^2 counts: 3 · (8 + 4) · 8 = 288 bytes
        ch, p = build_binary_flip(0.2)
        monkeypatch.setattr(rv, "MAX_COUNT_BYTES", 288)
        cq.soft_cover_simulate(ch, p, 4, 2, 3, 0)
        monkeypatch.setattr(rv, "MAX_COUNT_BYTES", 287)
        with pytest.raises(cq.ResourceLimitError, match="288 bytes"):
            cq.soft_cover_simulate(ch, p, 4, 2, 3, 0)


# ---------------------------------------------------------------------------
# ceil_operator
# ---------------------------------------------------------------------------


class TestCeilOperator:
    def test_flat_spectrum_unchanged(self):
        rho = np.eye(3, dtype=complex) / 3.0
        out = cq.ceil_operator(rho, cq.SmoothingParams(1.0, 4))
        assert np.allclose(out, rho, atol=1e-12)

    def test_three_level_rounding_up(self):
        rho = np.diag([0.8, 0.15, 0.05]).astype(complex)
        out = cq.ceil_operator(rho, cq.SmoothingParams(1.0, 10))
        ev = np.sort(np.linalg.eigvalsh(out))[::-1]
        # 0.15/0.8 rounds up to 2^{-2} and 0.05/0.8 to 2^{-4} on the
        # λ=1 grid anchored at the top eigenvalue 0.8.
        assert ev[0] == pytest.approx(0.8, abs=1e-12)
        assert ev[1] == pytest.approx(0.2, abs=1e-12)
        assert ev[2] == pytest.approx(0.05, abs=1e-12)

    def test_floor_clamp(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        out = cq.ceil_operator(rho, cq.SmoothingParams(1.0, 1))
        ev = np.sort(np.linalg.eigvalsh(out))[::-1]
        # ⌈log2(0.1/0.9)⌉ = −3 is below −v = −1, so the small eigenvalue
        # clamps to 0.9·2^{−1} = 0.45.
        assert ev[0] == pytest.approx(0.9, abs=1e-12)
        assert ev[1] == pytest.approx(0.45, abs=1e-12)

    def test_sandwich_and_distinct_count(self):
        rng = np.random.default_rng(88)
        for _ in range(30):
            d = int(rng.integers(2, 6))
            rho = orc.random_density(rng, d)
            lam = float(rng.choice([0.3, 0.5, 1.0, 2.0]))
            v = int(rng.choice([1, 2, 4, 8]))
            params = cq.SmoothingParams(lam, v)
            out = cq.ceil_operator(rho, params)
            assert_psd(out - rho)
            top = float(np.max(np.linalg.eigvalsh(rho)))
            assert_psd((2.0 ** lam) * rho
                       + (2.0 ** (-v * lam)) * top * np.eye(d) - out)
            ev = np.linalg.eigvalsh(out)
            assert distinct_eigenvalue_count(ev) <= v + 1

    def test_preserves_eigenvectors(self):
        rng = np.random.default_rng(4)
        rho = orc.random_density(rng, 3)
        out = cq.ceil_operator(rho, cq.SmoothingParams(0.5, 3))
        assert np.allclose(rho @ out, out @ rho, atol=1e-10)

    def test_zero_operator_rejected(self):
        with pytest.raises(ValidationError):
            cq.ceil_operator(np.zeros((2, 2), dtype=complex),
                             cq.SmoothingParams(1.0, 1))

    def test_params_validation(self):
        with pytest.raises(ValidationError):
            cq.SmoothingParams(0.0, 1)
        with pytest.raises(ValidationError):
            cq.SmoothingParams(1.0, 0)
        with pytest.raises(ValidationError):
            cq.SmoothingParams(1.0, 1, L=0.0)


# ---------------------------------------------------------------------------
# ll2_bound
# ---------------------------------------------------------------------------


class TestLL2Bound:
    def test_flat_channel_second_term_only(self):
        # Every input maps to σ, so the tail term vanishes and the
        # variance term is √(v′/M) with v′ = number of distinct
        # eigenvalues of σ.
        sigma = np.diag([0.8, 0.2]).astype(complex)
        ch = cq.CQChannel(("0", "1"), (sigma, sigma))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        val = cq.ll2_bound(ch, p, sigma, 2.0, 8)
        assert val == pytest.approx(math.sqrt(2.0 / 8.0), abs=1e-12)

    def test_second_term_vanishes_as_m_grows(self):
        ch, p = build_binary_flip(0.1)
        sigma = cq.output_state(ch, p)
        small = cq.ll2_bound(ch, p, sigma, 4.0, 10 ** 12)
        base = cq.ll2_bound(ch, p, sigma, 4.0, 4)
        assert small < base
        assert small >= 0.0

    def test_dominates_exact_error(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            nx = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            states = tuple(orc.random_density(rng, d) for _ in range(nx))
            labels = tuple(str(i) for i in range(nx))
            ch = cq.CQChannel(labels, states)
            w = rng.dirichlet(np.ones(nx))
            p = cq.Distribution(labels, tuple(w))
            M = int(rng.integers(1, 7))
            sigma = cq.output_state(ch, p)
            exact = cq.resolution_error_exact(ch, p, M).error
            vprime = distinct_eigenvalue_count(np.linalg.eigvalsh(sigma))
            bound = cq.ll2_bound(ch, p, sigma, M / (4.0 * vprime), M)
            assert bound >= exact - 1e-12

    def test_a_zero_second_term_adds_nothing(self):
        # At C = 1e-3 every eigenvalue of each pinched letter is kept, so the
        # second sum is empty; a dense I − {·} read it as about 1e-16 and
        # printed 4.000000007072116.
        turn = np.array([[math.cos(math.pi / 3), -math.sin(math.pi / 3)],
                         [math.sin(math.pi / 3), math.cos(math.pi / 3)]])
        ch = cq.CQChannel(("0", "1"), (turn @ np.diag([0.8, 0.2]) @ turn.T,
                                       np.diag([0.25, 0.75])))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        assert cq.ll2_bound(ch, p, cq.output_state(ch, p), 1e-3, 1) == pytest.approx(4.0,
                                                                                   abs=1e-15)

    def test_support_violation_rejected(self):
        ch = cq.CQChannel(
            ("0", "1"),
            (np.diag([1.0, 0.0]).astype(complex),
             np.diag([0.0, 1.0]).astype(complex)),
        )
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        sigma = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            cq.ll2_bound(ch, p, sigma, 2.0, 4)


# ---------------------------------------------------------------------------
# ll1b_bound
# ---------------------------------------------------------------------------


class TestLL1bBound:
    def test_flat_channel_value(self):
        # W_x = I/2 for every x: the threshold term is empty for L = 2,
        # leaving exactly √(vL/M).
        state = np.eye(2, dtype=complex) / 2.0
        ch = cq.CQChannel(("0", "1"), (state, state))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        for v in (1, 2, 4):
            val = cq.ll1b_bound(ch, p, cq.SmoothingParams(1.0, v, L=2.0), 16)
            assert val == pytest.approx(math.sqrt(2.0 * v / 16.0), abs=1e-12)

    def test_variance_term_arithmetic(self):
        # √(v·L/M) with v = 4, L = 8, M = 128 contributes exactly 0.5.
        state = np.eye(2, dtype=complex) / 2.0
        ch = cq.CQChannel(("0", "1"), (state, state))
        p = cq.Distribution(("0", "1"), (0.5, 0.5))
        val = cq.ll1b_bound(ch, p, cq.SmoothingParams(1.0, 4, L=8.0), 128)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_dominates_exact_error(self):
        rng = np.random.default_rng(404)
        for _ in range(15):
            nx = int(rng.integers(2, 5))
            d = int(rng.integers(2, 4))
            states = tuple(orc.random_density(rng, d) for _ in range(nx))
            labels = tuple(str(i) for i in range(nx))
            ch = cq.CQChannel(labels, states)
            w = rng.dirichlet(np.ones(nx))
            p = cq.Distribution(labels, tuple(w))
            M = int(rng.integers(1, 7))
            v = 4
            exact = cq.resolution_error_exact(ch, p, M).error
            params = cq.SmoothingParams(1.0, v, L=M / (4.0 * v))
            bound = cq.ll1b_bound(ch, p, params, M)
            assert bound >= exact - 1e-12


# ---------------------------------------------------------------------------
# the one-shot bounds' sums in the reference's eigenbasis against the dense
# pinching, projectors and pseudo-inverse of oracles.dense_pinched_sums
# ---------------------------------------------------------------------------


def one_shot_case(rng: np.random.Generator, index: int):
    """Letters, masses and a reference state of 2 to 4 dimensions.

    Each letter is pure, of lower rank or of full rank, and about a third
    of the masses are 0. The reference is, by index mod 5: W(p); a random
    state; the maximally mixed state; a state with a repeated eigenvalue;
    a state of lower rank, on whose support the letters of positive mass
    are put.
    """
    d, k, kind = int(rng.integers(2, 5)), int(rng.integers(1, 5)), index % 5
    states = np.array([orc.random_density_of_rank(rng, d, int(rng.integers(1, d + 1)))
                       for _ in range(k)])
    masses = rng.dirichlet(np.ones(k))
    masses[rng.random(k) < 1 / 3] = 0.0
    masses[int(rng.integers(0, k))] += 0.1
    masses /= masses.sum()
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    if kind == 0:
        ref = np.einsum("x,xij->ij", masses, states)
    elif kind == 1:
        ref = orc.random_density(rng, d)
    elif kind == 2:
        ref = np.eye(d) / d
    else:
        levels = rng.dirichlet(np.ones(d))
        if kind == 3:
            levels[1] = levels[0]
        else:
            rank = int(rng.integers(1, d))
            levels[rank:] = 0.0
            support = u[:, :rank] @ u[:, :rank].conj().T
            for x in np.flatnonzero(masses):
                squeezed = support @ states[x] @ support
                states[x] = squeezed / np.trace(squeezed).real
        ref = (u * (levels / levels.sum())) @ u.conj().T
    return states, masses, ref


def test_one_shot_sums_match_the_dense_oracle():
    rng = np.random.default_rng(38)
    for index in range(2000):
        states, masses, ref = one_shot_case(rng, index)
        labels = tuple(str(x) for x in range(len(masses)))
        ch, p = cq.CQChannel(labels, states), cq.Distribution(labels, masses)
        live = masses > 0.0
        scale, M = float(rng.choice([1.0, 2.0 ** rng.uniform(-4, 3)])), int(rng.integers(1, 65))
        dec = cq.eigh(ref)
        u = dec.eigenvectors
        tail, spread = rv._pinched_sums(u.conj().T @ states[live] @ u, masses[live],
                                        dec.eigenvalues, dec.blocks, scale)
        want = orc.dense_pinched_sums(states, masses, ref, scale)
        assert abs(tail - want[0]) <= 1e-12 and abs(spread - want[1]) <= 1e-12, index
        assert len(dec.blocks) == len(orc.block_projectors(ref)), index
        assert cq.ll2_bound(ch, p, ref, scale, M) == \
            4.0 * math.sqrt(tail) + math.sqrt(len(dec.blocks) / M * spread)

        params = cq.SmoothingParams(float(rng.choice([0.3, 0.5, 1.0, 2.0])),
                                    int(rng.choice([1, 2, 4, 8])), scale)
        levels, u = rv._ceil_spectrum(cq.output_state(ch, p), params)
        tail, _ = rv._pinched_sums(u.conj().T @ states[live] @ u, masses[live], levels,
                                   linalg._group_blocks(levels), scale)
        tau = cq.ceil_operator(cq.output_state(ch, p), params)
        assert abs(tail - orc.dense_pinched_sums(states, masses, tau, scale)[0]) <= 1e-12, index
        assert cq.ll1b_bound(ch, p, params, M) == \
            4.0 * math.sqrt(tail) + math.sqrt(params.v * scale / M)


# ---------------------------------------------------------------------------
# converse_trend
# ---------------------------------------------------------------------------


class TestConverseTrend:
    def test_binary_flip_rate_zero_goldens(self):
        ch, p = build_binary_flip(0.1)
        rows = cq.converse_trend(ch, p, 0.0, 4)
        goldens = [0.4, 0.56, 0.604, 0.6352]
        assert [r[0] for r in rows] == [1, 2, 3, 4]
        assert all(r[1] == 1 for r in rows)
        for (n, _, err), gold in zip(rows, goldens):
            assert err == pytest.approx(gold, abs=1e-12)
            assert err == pytest.approx(orc.binary_flip_exact_error(0.1, n),
                                        abs=1e-12)
        assert rows[3][2] > rows[0][2]

    def test_above_rate_errors_vanish(self):
        ch, p = build_binary_flip(0.1)
        rows = cq.converse_trend(ch, p, 1.0, 3)
        for n, M, err in rows:
            assert M == 2 ** n
            assert err <= 1e-12

    def test_negative_rate_rejected(self):
        ch, p = build_binary_flip(0.1)
        with pytest.raises(ValidationError):
            cq.converse_trend(ch, p, -0.5, 2)

    @pytest.mark.parametrize("rate", [math.nan, math.inf])
    def test_nonfinite_rate_rejected(self, rate):
        ch, p = build_binary_flip(0.1)
        with pytest.raises(ValidationError):
            cq.converse_trend(ch, p, rate, 2)

    @pytest.mark.parametrize("rate, n_max", [(2000.0, 1), (512.0, 2)])
    def test_rate_past_float_range_is_resource_limit(self, rate, n_max):
        # 2.0 ** (n * R) overflows at n * R >= 1024.
        ch, p = build_binary_flip(0.1)
        with pytest.raises(cq.ResourceLimitError):
            cq.converse_trend(ch, p, rate, n_max)

    @pytest.mark.parametrize("rate, n_max, first", [
        (0.5, 5, "enumerating 243 letters at M = 5 needs 7355513529 M-types"),
        (0.1, 10, "the 10-letter channel of 3^10 diagonals of 2^10 entries needs 483729408 "
                  "bytes"),
        (0.5, 9, "enumerating 243 letters at M = 5 needs")])
    def test_every_n_is_budgeted_before_the_first_runs(self, monkeypatch, rate, n_max, first):
        # the refusal is the one the first n past a budget would raise on reaching
        # it (its rows first, then its M-types), and no smaller n runs before it
        ch, p = build_flip_erase_channel(0.2)
        monkeypatch.setattr(rv, "resolution_error_exact", lambda *args: pytest.fail("ran"))
        with pytest.raises(cq.ResourceLimitError, match=re.escape(first)):
            cq.converse_trend(ch, p, rate, n_max)


# ---------------------------------------------------------------------------
# module invariants
# ---------------------------------------------------------------------------


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.floats(min_value=0.05, max_value=0.45))
def test_error_zero_when_p_is_m_type(M, eps):
    ch, _ = build_binary_flip(eps)
    k = M // 2 if M % 2 == 0 else M
    p = (cq.Distribution(("0", "1"), (0.5, 0.5)) if M % 2 == 0
         else cq.Distribution(("0", "1"), (k / M, (M - k) / M)))
    res = cq.resolution_error_exact(ch, p, M)
    assert res.error <= 1e-12


@settings(max_examples=15, deadline=None)
@given(st.floats(min_value=1.05, max_value=2.0),
       st.integers(min_value=1, max_value=6))
def test_soft_cover_bound_monotone_in_m(alpha, k):
    ch, p = build_binary_flip(0.15)
    b1 = single_letter_bound(alpha, ch, p, 2 ** k)
    b2 = single_letter_bound(alpha, ch, p, 2 ** (k + 1))
    assert b2 <= b1 + 1e-15
