"""Output checks of the benchmark ops, and the references they compare to.

Every check passes for any correct implementation: the references are
closed forms, independent brute force on commuting channels or qubit
states, or values recorded at the default seed that the library's
documented invariants pin (the lexicographic argmin tie-break). None
depends on the bytes a seeded random stream produces, and none calls the
library. A check returns the list of what failed; empty means the op
passed. The checks run in run.py, outside the measured worker process, so
their memory and time stay out of the metrics.
"""
from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Floats are printed with 12 significant digits, so a value in [0, 1]
# carries a rounding error below 5e-13.
PRINT_TOL = 1e-12
ARGMIN_TIE_TOL = 1e-12
ATTAINED_TOL = 1e-9
BOUND_REL_TOL = 1e-8
CAPACITY_CURVE_TOL = 1e-8
FIXED_RATE_TOL = 1e-9


@dataclass(frozen=True)
class Result:
    """What one op left: exit code (None if it raised), streams, artifact.

    ``artifact`` is the text of the file the op wrote with ``--out``, or
    None. ``twin`` is the result of the op in the same pass whose artifact
    this one must reproduce byte for byte, if it has one.
    """

    rc: int | None
    stdout: str
    stderr: str
    artifact: str | None = None
    twin: Result | None = None

    def fields(self) -> dict[str, str]:
        out = {}
        for line in self.stdout.splitlines():
            key, sep, value = line.partition(" = ")
            if sep:
                out[key.strip()] = value.strip()
        return out

    def exit_failures(self) -> list[str]:
        if self.rc == 0:
            return []
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {self.rc}: {tail[0]}"]

    def written(self) -> str:
        if self.artifact is None:
            raise ValueError("the op wrote no --out file")
        return self.artifact


def _read_csv(res: Result) -> list[list[str]]:
    return list(csv.reader(io.StringIO(res.written())))


def _read_json(res: Result) -> dict:
    return json.loads(res.written())


def _binary_entropy(e: float) -> float:
    return -sum(t * math.log2(t) for t in (e, 1.0 - e) if t > 0)


def _vn_entropy(state: np.ndarray) -> float:
    vals = np.linalg.eigvalsh(state)
    vals = vals[vals > 1e-15]
    return float(-np.sum(vals * np.log2(vals)))


def compositions(total: int, parts: int) -> np.ndarray:
    """All count vectors of `parts` entries summing to `total`, lexicographic.

    Stars and bars: the (parts-1) bar positions among total+parts-1 slots,
    taken in lexicographic order, give the count vectors in lexicographic
    order.
    """
    bars = np.array(list(itertools.combinations(range(total + parts - 1), parts - 1)),
                    dtype=np.int64).reshape(-1, parts - 1)
    edges = np.hstack([np.full((bars.shape[0], 1), -1), bars,
                       np.full((bars.shape[0], 1), total + parts - 1)])
    return np.diff(edges, axis=1) - 1


class DiagonalReference:
    """Brute-force resolution errors of a channel with diagonal states.

    For commuting states the trace distance is the L1 distance of the
    diagonals, so no eigen-solver is involved.
    """

    def __init__(self, labels, diag: np.ndarray, masses: np.ndarray):
        self.labels = tuple(labels)
        self.diag = np.asarray(diag, dtype=float)
        self.masses = np.asarray(masses, dtype=float)
        # The same inputs recur on every pass; compute each reference once.
        self._products: dict = {}
        self._exact: dict = {}
        self._grid: dict = {}

    def product(self, n: int):
        """Product labels, diagonals and target diagonal of the n-letter channel."""
        if n not in self._products:
            idx = list(itertools.product(range(len(self.labels)), repeat=n))
            names = ["".join(self.labels[i] for i in word) for word in idx]
            diag = np.array([functools.reduce(np.kron, (self.diag[i] for i in word))
                             for word in idx])
            weights = functools.reduce(np.kron, [self.masses] * n)
            self._products[n] = (names, diag, weights @ diag)
        return self._products[n]

    def error(self, n: int, counts: np.ndarray, M: int) -> np.ndarray:
        _, diag, target = self.product(n)
        return 0.5 * np.abs((np.atleast_2d(counts) / M) @ diag - target).sum(axis=1)

    def exact(self, n: int, M: int) -> tuple[float, tuple[int, ...]]:
        """Minimum error over M-types and the lexicographically first argmin."""
        if (n, M) not in self._exact:
            counts = compositions(M, len(self.labels) ** n)
            errors = self.error(n, counts, M)
            best = float(errors.min())
            first = int(np.flatnonzero(errors <= best + ARGMIN_TIE_TOL)[0])
            self._exact[n, M] = (best, tuple(int(c) for c in counts[first]))
        return self._exact[n, M]

    def inner(self, n: int, M: int, p: np.ndarray) -> np.ndarray:
        """min over M-types q of the error against each row of inputs p."""
        _, diag, _ = self.product(n)
        cand = (compositions(M, diag.shape[0]) / M) @ diag
        outs = np.atleast_2d(p) @ diag
        return 0.5 * np.abs(outs[:, None, :] - cand[None, :, :]).sum(axis=2).min(axis=1)

    def grid_worst(self, n: int, M: int, grid: int) -> float:
        """Largest inner minimum over the simplex grid of step 1/grid."""
        if (n, M, grid) not in self._grid:
            points = compositions(grid, len(self.labels) ** n) / grid
            self._grid[n, M, grid] = float(self.inner(n, M, points).max())
        return self._grid[n, M, grid]

    def vector(self, n: int, mapping: dict) -> np.ndarray:
        """Product-label mapping read from an artifact, as a vector."""
        names = self.product(n)[0]
        unknown = set(mapping) - set(names)
        if unknown:
            raise ValueError(f"unknown product labels {sorted(unknown)}")
        return np.array([float(mapping.get(name, 0)) for name in names])


PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
BLOCH_GRID_STEP = 0.05
BLOCH_RADIUS = 0.999
BLOCH_STEP_MIN = 1e-7


def _qubit_renyi_objective(alpha: float, states, masses, bloch: np.ndarray) -> np.ndarray:
    """(1/(alpha-1)) log2 sum_x p_x Tr (s^e W_x s^e)^alpha per Bloch vector of s.

    e = (1 - alpha)/(2 alpha). A qubit state s = (I + r.P)/2 has the
    eigenvalues (1 +- |r|)/2 on the projectors (I +- r.P/|r|)/2, so s^e is
    a I + b r.P/|r| in closed form.
    """
    exponent = (1.0 - alpha) / (2.0 * alpha)
    radius = np.linalg.norm(bloch, axis=1)
    up, down = ((1.0 + radius) / 2.0) ** exponent, ((1.0 - radius) / 2.0) ** exponent
    unit = bloch / np.where(radius > 0.0, radius, 1.0)[:, None]
    half = ((up + down) / 2.0)[:, None, None] * np.eye(2) \
        + ((up - down) / 2.0)[:, None, None] * np.einsum("bk,kij->bij", unit, PAULI)
    total = np.zeros(bloch.shape[0])
    for state, mass in zip(states, masses):
        vals = np.clip(np.linalg.eigvalsh(half @ state @ half), 0.0, None)
        total += mass * np.sum(vals ** alpha, axis=1)
    return np.log2(total) / (alpha - 1.0)


def _bloch_minimum(objective) -> float:
    """Minimum of objective over the Bloch ball: a grid, then pattern search.

    The grid has step BLOCH_GRID_STEP. The search moves to the best of the
    26 neighbours at the current step while that improves, and halves the
    step otherwise, down to BLOCH_STEP_MIN. Near a smooth minimum the value
    error is of the order of the step squared.
    """
    axis = np.arange(-1.0, 1.0 + BLOCH_GRID_STEP / 2, BLOCH_GRID_STEP)
    points = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), -1).reshape(-1, 3)
    points = points[np.linalg.norm(points, axis=1) <= BLOCH_RADIUS]
    values = objective(points)
    best, best_value = points[np.argmin(values)], float(values.min())
    offsets = np.stack(np.meshgrid(*[(-1.0, 0.0, 1.0)] * 3, indexing="ij"),
                       -1).reshape(-1, 3)
    step = BLOCH_GRID_STEP / 2
    while step > BLOCH_STEP_MIN:
        cand = best + step * offsets
        cand = cand[np.linalg.norm(cand, axis=1) <= BLOCH_RADIUS]
        values = objective(cand)
        if values.min() < best_value:
            best, best_value = cand[np.argmin(values)], float(values.min())
        else:
            step /= 2
    return best_value


class SoftCoverReference:
    """Soft-covering bounds from the single-letter Renyi mutual information.

    The sandwiched Renyi mutual information is additive for alpha >= 1/2,
    so I_alpha(X^n; B^n) = n I_alpha(X; B) (Hayashi-Tomamichel 2016). The
    channel is a qubit channel, so I_alpha(X; B), the minimum over output
    states s of the objective above, is found over the Bloch ball without
    the library.
    """

    def __init__(self, states, masses, alphas):
        self.states = np.asarray(states, dtype=complex)
        self.masses = np.asarray(masses, dtype=float)
        self.alphas = tuple(alphas)
        self._single: dict = {}

    def single(self, alpha: float) -> float:
        """I_alpha(X; B) of the single-letter channel, computed on first use."""
        if alpha not in self._single:
            self._single[alpha] = _bloch_minimum(functools.partial(
                _qubit_renyi_objective, alpha, self.states, self.masses))
        return self._single[alpha]

    def bound(self, alpha: float, n: int, M: int) -> float:
        exponent = (2.0 / alpha - 2.0) \
            + ((alpha - 1.0) / alpha) * (n * self.single(alpha) - math.log2(M))
        return 2.0 ** exponent


def _guarded(body):
    """Run a check body; a malformed artifact is a failure, not a crash."""
    def check(res: Result) -> list[str]:
        fails = res.exit_failures()
        if fails:
            return fails
        try:
            return body(res)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return check


def resolve(ref: DiagonalReference, n: int, M: int, recorded):
    def body(res):
        doc = _read_json(res)
        error = float(doc["error"])
        counts = ref.vector(n, doc["argmin_counts"])
        best, best_counts = ref.exact(n, M)
        fails = []
        if abs(error - best) > PRINT_TOL:
            fails.append(f"error {error!r} != brute-force minimum {best!r}")
        if tuple(int(c) for c in counts) != best_counts:
            fails.append("argmin is not the lexicographically first minimizer")
        if counts.sum() != M:
            fails.append(f"argmin counts sum to {counts.sum()}, not M = {M}")
        else:
            again = float(ref.error(n, counts, M)[0])
            if abs(again - error) > PRINT_TOL:
                fails.append(f"error of the reported argmin is {again!r}, not {error!r}")
        if recorded is not None:
            if abs(error - float(recorded["error"])) > PRINT_TOL:
                fails.append(f"error {error!r} != recorded {recorded['error']!r}")
            if doc["argmin_counts"] != recorded["argmin_counts"]:
                fails.append("argmin counts differ from the recorded ones")
        return fails
    return _guarded(body)


def converse_trend(ref: DiagonalReference, rate: float, n_max: int, recorded):
    def body(res):
        rows = _read_csv(res)
        if rows[0] != ["n", "M", "exact_error"] or len(rows) != n_max + 1:
            return [f"bad CSV shape: {rows[:2]}"]
        fails = []
        for n, row in enumerate(rows[1:], start=1):
            M = max(1, math.floor(2.0 ** (n * rate)))
            if row[:2] != [str(n), str(M)]:
                fails.append(f"row {row} is not (n, M) = ({n}, {M})")
                continue
            best = ref.exact(n, M)[0]
            if abs(float(row[2]) - best) > PRINT_TOL:
                fails.append(f"n={n}: error {row[2]} != brute-force minimum {best!r}")
        if recorded is not None:
            for row, rec in zip(rows[1:], recorded[1:]):
                if row[:2] != rec[:2] or abs(float(row[2]) - float(rec[2])) > PRINT_TOL:
                    fails.append(f"row {row} != recorded {rec}")
        return fails
    return _guarded(body)


def worst_resolve(ref: DiagonalReference, n: int, M: int, grid: int, recorded):
    def body(res):
        doc = _read_json(res)
        bound = float(doc["error_lower_bound"])
        fails = []
        floor = ref.grid_worst(n, M, grid)
        if bound < floor - PRINT_TOL:
            fails.append(f"bound {bound!r} below the grid maximum {floor!r}")
        worst = ref.vector(n, doc["worst_input"])
        attained = float(ref.inner(n, M, worst)[0])
        if abs(attained - bound) > ATTAINED_TOL:
            fails.append(f"reported input attains {attained!r}, not {bound!r}")
        if recorded is not None and bound < float(recorded["error_lower_bound"]) - PRINT_TOL:
            fails.append(f"bound {bound!r} below recorded {recorded['error_lower_bound']!r}")
        return fails
    return _guarded(body)


def softcover(ref: SoftCoverReference, n: int, M: int, samples: int, recorded):
    def body(res):
        rows = _read_csv(res)
        fields = res.fields()
        fails = []
        if rows[0] != ["sample", "trace_distance"] or len(rows) != samples + 1:
            return [f"bad CSV shape: {rows[:2]}, {len(rows) - 1} rows"]
        distances = np.array([float(r[1]) for r in rows[1:]])
        if [r[0] for r in rows[1:]] != [str(i) for i in range(samples)]:
            fails.append("sample column is not 0..samples-1")
        if not np.all((distances >= 0.0) & (distances <= 1.0)):
            fails.append("a trace distance lies outside [0, 1]")
        mean = float(fields["mean_error"])
        se = float(fields["std_error"]) / math.sqrt(samples)
        bounds = {}
        for alpha in ref.alphas:
            key = f"bound_alpha_{alpha:.12g}"
            bounds[key] = float(fields[key])
            want = ref.bound(alpha, n, M)
            if abs(bounds[key] - want) > BOUND_REL_TOL * want:
                fails.append(f"{key} = {bounds[key]!r}, reference {want!r}")
            if recorded is not None and \
                    abs(bounds[key] - float(recorded[key])) > BOUND_REL_TOL * want:
                fails.append(f"{key} = {bounds[key]!r}, recorded {recorded[key]!r}")
        if mean > min(bounds.values()) + 3.0 * se:
            fails.append(f"mean {mean!r} exceeds the bound by more than 3 se")
        if res.twin is not None and res.twin.written() != res.written():
            fails.append("CSV differs from its --workers 1 twin")
        return fails
    return _guarded(body)


def types_check(d: int, n: int):
    def body(res):
        fields = res.fields()
        want = {"type_count": str(math.comb(n + d - 1, d - 1)),
                "rank_sum": str(d ** n), "all_ok": "true"}
        return [f"{key} = {fields.get(key)!r}, expected {value!r}"
                for key, value in want.items() if fields.get(key) != value]
    return _guarded(body)


def separation_figure(spec: str):
    start, stop, step = (float(x) for x in spec.split(":"))
    grid = [start + k * step for k in range(int(round((stop - start) / step)) + 1)]

    def body(res):
        rows = _read_csv(res)
        if rows[0] != ["epsilon", "capacity", "fixed_rate"] or len(rows) != len(grid) + 1:
            return [f"bad CSV shape: {rows[:2]}, {len(rows) - 1} rows"]
        fails = []
        for eps, row in zip(grid, rows[1:]):
            got_eps, cap, fixed = (float(x) for x in row)
            want = 1.0 - _binary_entropy(eps)
            if abs(got_eps - eps) > 1e-9 or abs(cap - want) > CAPACITY_CURVE_TOL \
                    or abs(fixed) > FIXED_RATE_TOL:
                fails.append(f"row {row}: expected capacity {want:.12g}, fixed rate 0")
        return fails
    return _guarded(body)


def capacity_example1(eps: float):
    """Capacity of the example1 channel is 1 - h(eps), within the certificate."""
    want = 1.0 - _binary_entropy(eps)

    def body(res):
        fields = res.fields()
        value = float(fields["capacity_bits"])
        gap = float(fields["certificate_gap"])
        if not -PRINT_TOL <= want - value <= gap + PRINT_TOL:
            return [f"capacity {value!r} not within gap {gap!r} below {want!r}"]
        return []
    return _guarded(body)


def fixed_rate_redundant(states, masses):
    """Fixed-input rate of {W_0, W_1, (W_0 + W_1)/2} in closed form.

    W(q) = W(p) fixes a = q_0 + q_e/2 and b = q_1 + q_e/2, so the feasible
    set is the segment from q_e = 0 to q_e = 2 min(a, b). Mutual
    information is S(W(p)) - sum_x q_x S(W_x), smallest at an endpoint.
    """
    entropies = np.array([_vn_entropy(s) for s in states])
    a = masses[0] + masses[2] / 2
    b = masses[1] + masses[2] / 2
    low = min(a, b)
    ends = (np.array([a, b, 0.0]), np.array([a - low, b - low, 2 * low]))
    output = _vn_entropy(np.einsum("x,xij->ij", masses, np.asarray(states)))
    want = min(output - float(q @ entropies) for q in ends)

    def body(res):
        value = float(res.fields()["fixed_input_rate_bits"])
        if abs(value - want) > FIXED_RATE_TOL:
            return [f"fixed rate {value!r}, closed form {want!r}"]
        return []
    return _guarded(body)


def record_resolve(res: Result) -> dict:
    doc = _read_json(res)
    return {"error": doc["error"], "argmin_counts": doc["argmin_counts"]}


def record_worst(res: Result) -> dict:
    return {"error_lower_bound": _read_json(res)["error_lower_bound"]}


def record_csv(res: Result) -> list[list[str]]:
    return _read_csv(res)


def record_bounds(res: Result) -> dict:
    return {k: v for k, v in res.fields().items() if k.startswith("bound_alpha_")}
