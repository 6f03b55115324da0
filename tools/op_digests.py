#!/usr/bin/env python3
"""Print one SHA-256 per benchmark op, command line and demo, to compare two source trees.

Run:  python3 tools/op_digests.py SRC_DIR

SRC_DIR is the directory that holds the ``cqresolve`` package (``src`` of a
checkout). The ops are those of ``perfbench/workloads.py`` of this checkout,
for every workload at seeds 0, 1 and 2. The refusals are the command lines
in REFUSALS, requests past a resource budget. The frontier commands are the
command lines in FRONTIER, exact errors, the certify workload's commands,
soft covering, bad-codeword counts and the types bound at sizes past the
benchmark's; on older trees the exact errors take seconds and over a GiB. The demos are the scripts in ``demos/``
next to SRC_DIR, since a demo goes with its library. One subprocess, with
SRC_DIR first on PYTHONPATH, builds the ops' inputs and the frontier's
seeded channels in a temporary directory, calls ``cqresolve.cli.main`` once
per op, refusal and frontier command and runs each demo as ``__main__``,
each in a directory of its own given by a relative path, so no output names
the temporary directory. Each line is a key and the SHA-256 of the exit
code, stdout, stderr and the bytes of every file the op or demo wrote.
Equal output for two trees means byte-identical results:

    python3 tools/op_digests.py old/src > old.txt
    python3 tools/op_digests.py src > new.txt
    diff old.txt new.txt
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2)
EXAMPLE1 = ("--builtin", "example1", "--eps", "0.1")
# Requests whose need has more digits than str() converts, absurd block
# lengths, block lengths on both sides of the matrix budget's bit length, and
# the first binary block length whose word letters pass the count budget
REFUSALS = {
    "resolve-n-100000": ("resolve", *EXAMPLE1, "--M", "2", "--n", "100000"),
    "types-check-n-1000000": ("types-check", "--alphabet-size", "3", "--n", "1000000"),
    "resolve-M-201-digits": ("resolve", *EXAMPLE1, "--n", "3", "--M", "1" + "0" * 200),
    "worst-resolve-M-201-digits": ("worst-resolve", *EXAMPLE1, "--n", "3",
                                   "--M", "1" + "0" * 200),
    "resolve-n-4300-digits": ("resolve", *EXAMPLE1, "--M", "2", "--n", "9" * 4300),
    "resolve-n-10000000": ("resolve", *EXAMPLE1, "--M", "2", "--n", "10000000"),
    "types-check-n-10000000": ("types-check", "--alphabet-size", "3", "--n", "10000000"),
    "resolve-n-4001-digits": ("resolve", *EXAMPLE1, "--M", "2", "--n", "1" + "0" * 4000),
    "resolve-n-29": ("resolve", *EXAMPLE1, "--M", "2", "--n", "29"),
    "resolve-n-30": ("resolve", *EXAMPLE1, "--M", "2", "--n", "30"),
    "types-check-d2-n24": ("types-check", "--alphabet-size", "2", "--n", "24"),
}
# Exact errors on example1 at ε 0.2 with the law (.5, .3, .2): many M-types of
# many letters, many M-types of few letters, the trend up to n = 4, and 266,085
# M-types of diagonals of 64 entries (n = 6), past the kernel's column-by-column
# widths; then a worst-input search whose candidates and grid are count matrices
# of 27 letters. The certify commands follow: the separation figure at 49
# points, at the 101 points of [0, 1] (pure states at ε 0 and 1, a constant
# channel at ε 0.5, where the fixed-input rate's program has one constraint, not
# two) and at its 1,001 points; type checks at (d, n) = (3, 6), (6, 3), (2, 11),
# (3, 7) and (6, 4) (the last three held two dense dⁿ × dⁿ matrices in older
# trees) and (2, 16) (older trees refuse dⁿ past 4096), and fixed-input rates on
# QUBIT_K12, a channel of 12 seeded qubit states (the most letters older trees'
# vertex enumeration took), and on the 300 letters of QUBIT_K300, which older
# trees refuse (exit 3); and the capacity of QUBIT_K12, whose ascent prunes 7
# of its 12 letters to mass 0, so each I(X;B) sums 12 terms, some of them 0,
# in numpy's pairwise order. Then soft covering
# on both sides of the letter kernel: 1.2 M draws of example1's 3 letters,
# counted, and 6,400 draws of the 300 letters of QUBIT_K300, searched. Last, bad
# codewords counted by type class: on example1 at n 9 (3^9 words) and n 14 (the
# last n its words budget holds; older trees refuse it), and on
# QUBIT_K12 at n 4 with a δ whose nearest type gap is 1.7e-3 away; and the
# commuting types bound over the 12,340 types of three letters up to n 40, and
# over the 714 types of D9_DEAD_LAW's nine letters up to n 4: two masses of 0
# and one of 1e-13 give vacuous rows, and from eight letters up numpy sums a
# row's divergence terms pairwise, its uncounted letters adding 0. Then
# soft covering on QUBIT_K12 at orders 1.25 and 2, listed in both orders (one
# output, two keys of the in-process Rényi memo), and again with one mass of the
# law moved by 1e-14, which misses the memo. Last, the block lengths at which
# the product rows meet their byte budget: soft covering on example1 at n 7 and
# the trend at R 0.1 up to n 9, both of which older trees refuse (they budgeted
# kⁿ complex dⁿ × dⁿ matrices where the rows are kⁿ real diagonals), and soft
# covering on QUBIT_K12 at n 5, whose non-diagonal rows stay past the budget,
# and the exact error on QUBIT_K4 at n 6, M 1, whose 4^6 complex 64 x 64 rows
# take exactly the budget (older trees, which also held a copy of the rows
# scaled by 1/M, refuse it). Then type classes that no factorial table holds
# and kernel levels of W(p): types-check on one letter at n 10^6 (about 19 s
# on older trees, which formed n! for a rank of 1), the bad-codeword count at
# n 2, δ 0.3 on DIAGONAL_K1000, 1,000 seeded diagonal qutrit states under the
# uniform law, and the capacity and fixed-input rate of PLANE_K6, six seeded
# qutrit states on one plane of C^3, so every W(p) has a level that no input
# reaches.
# Then the one-shot bounds, which no op reaches, at 12 digits: the pinching
# bound with reference W(p) and the smoothing bound on example1 at ε 0, where
# letters 0 and 1 are pure, and at ε 0.2 with the same law, and on QUBIT_K12 at
# two (M, C) pairs, C being the pinching bound's threshold and the smoothing
# bound's L.
# The child writes the channels before the frontier commands run.
QUBIT_K4 = "qubit-k4.json"
QUBIT_K12 = "qubit-k12.json"
QUBIT_K300 = "qubit-k300.json"
DIAGONAL_K1000 = "diagonal-k1000.json"
PLANE_K6 = "plane-k6.json"
LAW = '{"0":0.5,"1":0.3,"e":0.2}'
EXAMPLE1_LAW = ("--builtin", "example1", "--eps", "0.2", "--dist", LAW)
EXAMPLE1_EPS0_LAW = ("--builtin", "example1", "--eps", "0", "--dist", LAW)
K12_LAW = {str(x): 0.1 if x < 8 else 0.05 for x in range(12)}
D9_DEAD_LAW = {"0": 0.25, "1": 0.2, "2": 0.0, "3": 0.15, "4": 0.1, "5": 0.0, "6": 0.2,
               "7": 1e-13, "8": 0.1 - 1e-13}
K12_SOFTCOVER = ("softcover", "--channel", QUBIT_K12, "--n", "2", "--M", "16", "--samples", "50",
                 "--seed", "11")
FRONTIER = {
    "resolve-n3-M6": ("resolve", *EXAMPLE1_LAW, "--n", "3", "--M", "6"),
    "resolve-n4-M4": ("resolve", *EXAMPLE1_LAW, "--n", "4", "--M", "4"),
    "resolve-n1-M2000": ("resolve", *EXAMPLE1_LAW, "--n", "1", "--M", "2000"),
    "converse-trend-R0.5-n4": ("converse-trend", *EXAMPLE1_LAW, "--rate", "0.5",
                               "--n-max", "4"),
    "resolve-n6-M2": ("resolve", *EXAMPLE1_LAW, "--n", "6", "--M", "2"),
    "worst-resolve-n3-M3-grid4": ("worst-resolve", "--builtin", "example1", "--eps", "0.3",
                                  "--n", "3", "--M", "3", "--grid", "4"),
    "separation-figure-eps0.01-step0.01": ("separation-figure", "--eps-grid", "0.01:0.49:0.01"),
    "separation-figure-eps0-step0.01": ("separation-figure", "--eps-grid", "0:1:0.01"),
    "separation-figure-eps0-step0.001": ("separation-figure", "--eps-grid", "0:1:0.001"),
    "types-check-d3-n6": ("types-check", "--alphabet-size", "3", "--n", "6"),
    "types-check-d6-n3": ("types-check", "--alphabet-size", "6", "--n", "3"),
    "types-check-d2-n11": ("types-check", "--alphabet-size", "2", "--n", "11"),
    "types-check-d3-n7": ("types-check", "--alphabet-size", "3", "--n", "7"),
    "types-check-d6-n4": ("types-check", "--alphabet-size", "6", "--n", "4"),
    "types-check-d2-n16": ("types-check", "--alphabet-size", "2", "--n", "16"),
    "fixed-rate-qubit-k12": ("fixed-rate", "--channel", QUBIT_K12),
    "fixed-rate-qubit-k300": ("fixed-rate", "--channel", QUBIT_K300),
    "capacity-qubit-k12": ("capacity", "--channel", QUBIT_K12),
    "softcover-n3-M4096": ("softcover", *EXAMPLE1_LAW, "--n", "3", "--M", "4096",
                           "--samples", "100", "--seed", "7"),
    "softcover-n1-M64-qubit-k300": ("softcover", "--channel", QUBIT_K300, "--n", "1",
                                    "--M", "64", "--seed", "7"),
    "types-check-delta0.3-n9": ("types-check", *EXAMPLE1, "--n", "9", "--delta", "0.3"),
    "types-check-delta0.3-n14": ("types-check", *EXAMPLE1, "--n", "14", "--delta", "0.3"),
    "types-check-delta0.2-qubit-k12-n4": ("types-check", "--channel", QUBIT_K12, "--n", "4",
                                          "--delta", "0.2"),
    "sanov-sweep-n40": ("sanov-sweep", "--dist", '{"0":0.5,"1":0.3,"2":0.2}', "--n", "40"),
    "sanov-sweep-d9-dead-n4": ("sanov-sweep", "--dist", json.dumps(D9_DEAD_LAW), "--n", "4"),
    "softcover-qubit-k12-alpha1.25,2": (*K12_SOFTCOVER, "--dist", json.dumps(K12_LAW),
                                        "--alpha", "1.25,2"),
    "softcover-qubit-k12-alpha2,1.25": (*K12_SOFTCOVER, "--dist", json.dumps(K12_LAW),
                                        "--alpha", "2,1.25"),
    "softcover-qubit-k12-alpha1.25,2-law-moved": (
        *K12_SOFTCOVER, "--dist", json.dumps({**K12_LAW, "11": 0.05 + 1e-14}),
        "--alpha", "1.25,2"),
    "softcover-n7-M16": ("softcover", *EXAMPLE1_LAW, "--n", "7", "--M", "16",
                         "--samples", "50", "--seed", "7"),
    "converse-trend-R0.1-n9": ("converse-trend", *EXAMPLE1_LAW, "--rate", "0.1",
                               "--n-max", "9"),
    "softcover-n5-qubit-k12": ("softcover", "--channel", QUBIT_K12, "--n", "5", "--M", "16",
                               "--samples", "50", "--seed", "7"),
    "resolve-n6-M1-qubit-k4": ("resolve", "--channel", QUBIT_K4, "--n", "6", "--M", "1"),
    "types-check-d1-n1000000": ("types-check", "--alphabet-size", "1", "--n", "1000000"),
    "types-check-delta0.3-n2-diagonal-k1000": ("types-check", "--channel", DIAGONAL_K1000,
                                               "--n", "2", "--delta", "0.3"),
    "capacity-plane-k6": ("capacity", "--channel", PLANE_K6),
    "fixed-rate-plane-k6": ("fixed-rate", "--channel", PLANE_K6),
    "bound-ll2-eps0-M4-C1": ("bound-ll2", *EXAMPLE1_EPS0_LAW, "--M", "4", "--cthr", "1"),
    "bound-ll2-eps0.2-M4-C1": ("bound-ll2", *EXAMPLE1_LAW, "--M", "4", "--cthr", "1"),
    "bound-ll2-qubit-k12-M8-C2": ("bound-ll2", "--channel", QUBIT_K12, "--dist",
                                  json.dumps(K12_LAW), "--M", "8", "--cthr", "2"),
    "bound-ll2-qubit-k12-M64-C0.5": ("bound-ll2", "--channel", QUBIT_K12, "--dist",
                                     json.dumps(K12_LAW), "--M", "64", "--cthr", "0.5"),
    "bound-ll1b-eps0-M4-L1": ("bound-ll1b", *EXAMPLE1_EPS0_LAW, "--M", "4", "--lambda", "0.5",
                              "--v", "3", "--L", "1"),
    "bound-ll1b-eps0.2-M4-L1": ("bound-ll1b", *EXAMPLE1_LAW, "--M", "4", "--lambda", "0.5",
                                "--v", "3", "--L", "1"),
    "bound-ll1b-qubit-k12-M8-L2": ("bound-ll1b", "--channel", QUBIT_K12, "--dist",
                                   json.dumps(K12_LAW), "--M", "8", "--v", "4", "--L", "2"),
    "bound-ll1b-qubit-k12-M64-L0.5": ("bound-ll1b", "--channel", QUBIT_K12, "--dist",
                                      json.dumps(K12_LAW), "--M", "64", "--v", "4", "--L", "0.5"),
}


def _write_states(path: Path, states) -> None:
    """Channel JSON of the given density matrices, labelled 0..k-1."""
    inputs = [{"label": str(x), "state": [[[z.real, z.imag] for z in row] for row in m.tolist()]}
              for x, m in enumerate(states)]
    path.write_text(json.dumps({"dim": len(states[0]), "inputs": inputs}), encoding="utf-8")


def _write_qubit_channel(path: Path, k: int, seed: int) -> None:
    """Channel JSON of k seeded random qubit states of full rank, labelled 0..k-1."""
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(k):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = g @ g.conj().T
        states.append((m + m.conj().T) / (2 * np.trace(m).real))
    _write_states(path, states)


def _write_diagonal_channel(path: Path, k: int, d: int, seed: int) -> None:
    """Channel JSON of k seeded diagonal states of dimension d, Dirichlet(1) spectra."""
    rng = np.random.default_rng(seed)
    _write_states(path, [np.diag(rng.dirichlet(np.ones(d))).astype(complex) for _ in range(k)])


def _write_plane_channel(path: Path, k: int, seed: int) -> None:
    """Channel JSON of k seeded random qutrit states on one seeded plane of C^3."""
    rng = np.random.default_rng(seed)
    plane, _ = np.linalg.qr(rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2)))
    states = []
    for _ in range(k):
        g = plane @ (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m = g @ g.conj().T
        states.append((m + m.conj().T) / (2 * np.trace(m).real))
    _write_states(path, states)


def _digest(rc, stdout: str, stderr: str, written: list[Path]) -> str:
    h = hashlib.sha256()
    for part in (str(rc).encode(), stdout.encode(), stderr.encode(),
                 *(p.read_bytes() for p in written)):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _call(run) -> tuple[object, str, str]:
    """run()'s exit code (an uncaught exception's text instead), stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = run()
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a traceback is an outcome to compare, too
            rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue()


def _child(src: Path) -> None:
    """Run every op, refusal, frontier command and demo here; print key and digest."""
    sys.path.insert(1, str(ROOT / "perfbench"))
    import workloads
    import cqresolve.cli as cli

    if src not in Path(cli.__file__).resolve().parents:
        sys.exit(f"cqresolve was imported from {cli.__file__}, not from {src}")
    for name, build in workloads.BUILDERS.items():
        for seed in SEEDS:
            work = Path(f"{name}-{seed}")
            work.mkdir()
            for op in build(seed, work):
                rc, out, err = _call(lambda: cli.main(list(op.argv)))
                written = [op.out] if op.out is not None and op.out.is_file() else []
                print(f"{name}/{seed}/{op.key} {_digest(rc, out, err, written)}",
                      file=sys.__stdout__, flush=True)
    _write_qubit_channel(Path(QUBIT_K4), k=4, seed=20241020)
    _write_qubit_channel(Path(QUBIT_K12), k=12, seed=20241018)
    _write_qubit_channel(Path(QUBIT_K300), k=300, seed=20241019)
    _write_diagonal_channel(Path(DIAGONAL_K1000), k=1000, d=3, seed=1000)
    _write_plane_channel(Path(PLANE_K6), k=6, seed=20241040)
    for group, commands in (("refusal", REFUSALS), ("frontier", FRONTIER)):
        for key, argv in commands.items():
            rc, out, err = _call(lambda: cli.main(list(argv)))
            print(f"{group}/{key} {_digest(rc, out, err, [])}", file=sys.__stdout__, flush=True)
    for demo in sorted((src.parent / "demos").glob("*.py")):
        folder = Path(f"demo-{demo.stem}")
        folder.mkdir()
        os.chdir(folder)
        sys.argv = [str(demo)]
        rc, out, err = _call(lambda: runpy.run_path(str(demo), run_name="__main__") and 0)
        os.chdir("..")
        written = sorted(p for p in folder.rglob("*") if p.is_file())
        print(f"demo/{demo.name} {_digest(rc, out, err, written)}",
              file=sys.__stdout__, flush=True)


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[1] == "--child":
        _child(Path(argv[2]).resolve())
        return 0
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    src = Path(argv[1]).resolve()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    with tempfile.TemporaryDirectory() as tmp:
        return subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child",
                               str(src)], cwd=tmp, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv))
