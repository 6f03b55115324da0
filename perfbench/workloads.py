"""Seeded inputs and op lists of the three benchmark workloads.

A workload is a list of ops; one op is one in-process call of
``cqresolve.cli.main(argv)``. The program sees only the channel and
distribution JSON files written here from the seed (and, for ``softcover``,
a seeded ``--seed``). Every op carries the check of its output. README.md
says why each workload exists.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

import checks

DEFAULT_SEED = 0
REFERENCE_PATH = Path(__file__).with_name("reference.json")

# Ops beyond the tail percentile; a run makes enough passes to have more ops.
TAIL_BEYOND = 10

# Passes over the op list in a run of REFERENCE_SECONDS; another --seconds
# scales them, so the same --seconds gives the same work on every commit.
# On a 2-core Xeon with one BLAS thread a 30-second run takes 25 to 45 s,
# and these counts put the median and the tail percentile inside the
# latencies of one op rather than on the boundary between two.
PASSES = {"exact": 7, "softcover": 6, "certify": 6}
REFERENCE_SECONDS = 30

EXACT_N3_M = 4
EXACT_N2_M = 8
CONVERSE_RATE = 0.6
CONVERSE_N_MAX = 3
WORST_N, WORST_M, WORST_GRID = 2, 3, 6
# The refinement in worst-resolve takes more steps for some eps than for
# others (0.6 s to 0.9 s over eps in [0.05, 0.45]), so its channel is fixed
# to keep the work the same on every seed.
WORST_EPS = 0.1
# Soft-covering work (Renyi iterations) depends on the shape of the state
# set. The seed rotates one fixed shape by a global unitary, which changes
# every input matrix but none of the work.
SOFTCOVER_SHAPE_SEED = 20241016
SOFTCOVER_POINTS = ((2, 16), (3, 16), (3, 64), (4, 256))
# The --workers 2 twin sits at n=2: a second 5 s n=4 op per pass would
# leave too few ops in a run for steady percentiles.
SOFTCOVER_TWIN = (2, 16)
SOFTCOVER_SAMPLES = 200
SOFTCOVER_ALPHAS = (1.25, 1.5, 2.0)
TYPES_CHECKS = ((2, 6), (3, 4), (5, 3))
SEPARATION_GRID = "0.05:0.45:0.05"
CAPACITY_EPS = (0.45, 0.48)
FIXED_RATE_CHANNELS = 3


@dataclass(frozen=True)
class Op:
    """One CLI call and the check of what it printed and wrote."""

    key: str
    argv: tuple[str, ...]
    check: Callable[[checks.Result], list[str]]
    record: Callable[[checks.Result], object] | None = None
    # Key of the op earlier in the same pass whose artifact this one must
    # reproduce byte for byte.
    twin: str | None = None

    @property
    def out(self) -> Path | None:
        """The artifact the op writes, removed before each call."""
        if "--out" not in self.argv:
            return None
        return Path(self.argv[self.argv.index("--out") + 1])

    def check_in_pass(self, result: checks.Result,
                      same_pass: dict[str, checks.Result]) -> list[str]:
        """Check the result; ``same_pass`` holds the results of earlier ops."""
        if self.twin is not None:
            result = replace(result, twin=same_pass[self.twin])
        return self.check(result)


def passes(workload: str, seconds: int, ops_per_pass: int, trace: bool) -> int:
    """Number of passes over the op list for a run of about ``seconds``."""
    count = round(PASSES[workload] * seconds / REFERENCE_SECONDS)
    count = max(count, math.ceil((TAIL_BEYOND + 1) / ops_per_pass))
    # A traced run makes a warm-up pass, then alternates traced and
    # untraced passes.
    return max(count, 3) if trace else count


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _write_channel(path: Path, labels, states) -> str:
    return _write_json(path, {
        "dim": int(states[0].shape[0]),
        "inputs": [{"label": lbl,
                    "state": [[[float(z.real), float(z.imag)] for z in row]
                              for row in state]}
                   for lbl, state in zip(labels, states)]})


def _example1_diagonals(eps: float) -> np.ndarray:
    """Diagonals of the README's example1 channel: two flips and a mixer."""
    return np.array([[1.0 - eps, eps], [eps, 1.0 - eps], [0.5, 0.5]])


def _example1_states(eps: float) -> list[np.ndarray]:
    return [np.diag(row).astype(complex) for row in _example1_diagonals(eps)]


def _rational_masses(rng: np.random.Generator, k: int) -> np.ndarray:
    """Seeded masses c/sum(c) with distinct small integers c.

    Distinct masses keep W(p) away from the symmetric output that the
    all-"e" type reproduces exactly, which would make every error zero.
    """
    counts = rng.choice(np.arange(1, 9), size=k, replace=False)
    return counts / counts.sum()


def _haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    z = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / math.sqrt(2)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _rotated_state(rng: np.random.Generator, spectrum) -> np.ndarray:
    u = _haar_unitary(rng, len(spectrum))
    state = (u * np.asarray(spectrum, dtype=float)) @ u.conj().T
    return (state + state.conj().T) / 2


def _reference(workload: str, seed: int) -> dict:
    """Outputs recorded at the default seed; empty before they are recorded."""
    if seed != DEFAULT_SEED or not REFERENCE_PATH.is_file():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8")).get(workload, {})


def exact_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 1])
    labels = ("0", "1", "e")
    recorded = _reference("exact", seed)
    ops = []
    # Channel "a" takes resolve at both sizes; channel "b" takes the second
    # n=2 resolve and converse-trend. Enumeration work does not depend on
    # eps or p, so both are drawn from the seed.
    for name, sizes, converse in (("a", ((3, EXACT_N3_M), (2, EXACT_N2_M)), False),
                                  ("b", ((2, EXACT_N2_M),), True)):
        eps = int(rng.integers(5, 46)) / 100
        masses = _rational_masses(rng, 3)
        chan = _write_channel(work / f"exact-{name}-channel.json", labels,
                              _example1_states(eps))
        dist = _write_json(work / f"exact-{name}-dist.json",
                           {lbl: float(m) for lbl, m in zip(labels, masses)})
        ref = checks.DiagonalReference(labels, _example1_diagonals(eps), masses)
        for n, M in sizes:
            key = f"resolve-{name}-n{n}-M{M}"
            out = str(work / f"{key}.json")
            ops.append(Op(key, ("resolve", "--channel", chan, "--dist", dist,
                                "--n", str(n), "--M", str(M), "--out", out),
                          checks.resolve(ref, n, M, recorded.get(key)),
                          checks.record_resolve))
        if converse:
            key = f"converse-trend-{name}"
            out = str(work / f"{key}.csv")
            ops.append(Op(key, ("converse-trend", "--channel", chan, "--dist", dist,
                                "--rate", str(CONVERSE_RATE),
                                "--n-max", str(CONVERSE_N_MAX), "--out", out),
                          checks.converse_trend(ref, CONVERSE_RATE, CONVERSE_N_MAX,
                                                recorded.get(key)),
                          checks.record_csv))
    chan = _write_channel(work / "worst-channel.json", labels,
                          _example1_states(WORST_EPS))
    worst_ref = checks.DiagonalReference(labels, _example1_diagonals(WORST_EPS),
                                         np.full(3, 1.0 / 3))
    out = str(work / "worst-resolve.json")
    ops.append(Op("worst-resolve",
                  ("worst-resolve", "--channel", chan, "--n", str(WORST_N),
                   "--M", str(WORST_M), "--grid", str(WORST_GRID), "--out", out),
                  checks.worst_resolve(worst_ref, WORST_N, WORST_M, WORST_GRID,
                                       recorded.get("worst-resolve")),
                  checks.record_worst))
    return ops


def softcover_ops(seed: int, work: Path) -> list[Op]:
    shape = np.random.default_rng(SOFTCOVER_SHAPE_SEED)
    labels = ("a", "b", "c", "d")
    rng = np.random.default_rng([seed, 2])
    u = _haar_unitary(rng, 2)
    states = [u @ _rotated_state(shape, (0.85, 0.15)) @ u.conj().T for _ in labels]
    chan = _write_channel(work / "softcover-channel.json", labels, states)
    dist = _write_json(work / "softcover-dist.json",
                       {lbl: 1.0 / len(labels) for lbl in labels})
    code_seed = str(int(rng.integers(0, 2 ** 31)))
    ref = checks.SoftCoverReference(states, np.full(len(labels), 1.0 / len(labels)),
                                    SOFTCOVER_ALPHAS)
    recorded = _reference("softcover", seed)
    alphas = ",".join(str(a) for a in SOFTCOVER_ALPHAS)
    ops = []
    for n, M in SOFTCOVER_POINTS:
        worker_counts = (1, 2) if (n, M) == SOFTCOVER_TWIN else (1,)
        for workers in worker_counts:
            key = f"softcover-n{n}-M{M}-w{workers}"
            out = work / f"{key}.csv"
            ops.append(Op(key, ("softcover", "--channel", chan, "--dist", dist,
                                "--n", str(n), "--M", str(M),
                                "--samples", str(SOFTCOVER_SAMPLES),
                                "--seed", code_seed, "--alpha", alphas,
                                "--workers", str(workers), "--out", str(out)),
                          checks.softcover(ref, n, M, SOFTCOVER_SAMPLES,
                                           recorded.get(key)),
                          checks.record_bounds,
                          f"softcover-n{n}-M{M}-w1" if workers > 1 else None))
    return ops


def certify_ops(seed: int, work: Path) -> list[Op]:
    rng = np.random.default_rng([seed, 3])
    ops = [Op(f"types-check-d{d}-n{n}",
              ("types-check", "--alphabet-size", str(d), "--n", str(n)),
              checks.types_check(d, n))
           for d, n in TYPES_CHECKS]
    out = str(work / "separation.csv")
    ops.append(Op("separation-figure",
                  ("separation-figure", "--eps-grid", SEPARATION_GRID, "--out", out),
                  checks.separation_figure(SEPARATION_GRID)))
    for eps in CAPACITY_EPS:
        chan = _write_channel(work / f"example1-{eps}.json", ("0", "1", "e"),
                              _example1_states(eps))
        ops.append(Op(f"capacity-eps{eps}", ("capacity", "--channel", chan),
                      checks.capacity_example1(eps)))
    for i in range(FIXED_RATE_CHANNELS):
        # W_e = (W_0 + W_1)/2 makes the feasible set a segment with two
        # vertices, so the fixed-input rate has a closed form to check.
        w0 = _rotated_state(rng, (0.9, 0.1))
        w1 = _rotated_state(rng, (0.8, 0.2))
        states = [w0, w1, (w0 + w1) / 2]
        masses = _rational_masses(rng, 3)
        labels = ("0", "1", "e")
        chan = _write_channel(work / f"fixed-rate-{i}-channel.json", labels, states)
        dist = _write_json(work / f"fixed-rate-{i}-dist.json",
                           {lbl: float(m) for lbl, m in zip(labels, masses)})
        ops.append(Op(f"fixed-rate-{i}",
                      ("fixed-rate", "--channel", chan, "--dist", dist),
                      checks.fixed_rate_redundant(states, masses)))
    return ops


BUILDERS = {"exact": exact_ops, "softcover": softcover_ops, "certify": certify_ops}
