"""Acceptance gate: the eleven primary criteria, one pass/fail line each.

Every criterion computes its checks first, records a single PASS/FAIL line
(printed in the terminal summary by conftest), and only then asserts, so a
red run still reports every criterion's verdict. Tolerances and runtime
budgets are pinned in each test; random instances use fixed seeds so the
suite is reproducible bit for bit.
"""

import itertools
import math
import time

import numpy as np

import cqresolve as cq
from cqresolve.cli import main

import oracles as orc
from conftest import distinct_eigenvalue_count, record_criterion


def round_to_grid(p: np.ndarray, denominator: int) -> np.ndarray:
    """Largest-remainder rounding of a probability vector onto k/denominator."""
    scaled = p * denominator
    base = np.floor(scaled).astype(int)
    frac = scaled - base
    for idx in np.argsort(-frac)[: denominator - base.sum()]:
        base[idx] += 1
    return base / denominator


def test_criterion_01_separation_figure(tmp_path):
    """Capacity 1−h(ε) vs fixed-input rate 0 on the three-input channel."""
    t0 = time.perf_counter()
    failures = []

    csv_path = tmp_path / "separation.csv"
    code = main(["separation-figure", "--eps-grid", "0.05:0.45:0.05",
                 "--out", str(csv_path)])
    if code != 0:
        failures.append(f"separation-figure exited {code}")
    else:
        lines = csv_path.read_text().strip().splitlines()
        if lines[0] != "epsilon,capacity,fixed_rate":
            failures.append(f"bad CSV header {lines[0]!r}")
        if len(lines) != 10:
            failures.append(f"expected 9 grid rows, got {len(lines) - 1}")
        for line in lines[1:]:
            eps_s, cap_s, fixed_s = line.split(",")
            eps = float(eps_s)
            want = 1.0 - orc.binary_entropy_ref(eps)
            if abs(float(cap_s) - want) > 1e-6:
                failures.append(f"eps={eps}: capacity {cap_s} vs {want:.9f}")
            if abs(float(fixed_s)) > 1e-9:
                failures.append(f"eps={eps}: fixed rate {fixed_s} != 0")

    half = cq.capacity(cq.CQChannel(
        ("0", "1", "e"),
        (np.diag([0.5, 0.5]).astype(complex),) * 3), tol=1e-9)
    if abs(half.value) > 1e-9:
        failures.append(f"capacity at eps=0.5 is {half.value}")
    from conftest import build_flip_erase_channel
    ch_half, p_half = build_flip_erase_channel(0.5)
    fixed_half = cq.fixed_input_rate(ch_half, p_half)
    if abs(fixed_half.value) > 1e-9:
        failures.append(f"fixed rate at eps=0.5 is {fixed_half.value}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 5s")
    record_criterion(1, not failures,
                     f"9-point grid + eps=0.5 degenerate point, "
                     f"capacity tol 1e-6, rate tol 1e-9, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_02_fixed_rate_vertex_oracle():
    """fixed_input_rate vs a step-0.02 simplex grid search on 50 channels."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(2026)
    worst = 0.0
    for case in range(50):
        nx = int(rng.integers(2, 6))
        ny = int(rng.integers(2, 4))
        T = rng.dirichlet(np.ones(ny), size=nx)
        p = round_to_grid(rng.dirichlet(2.0 * np.ones(nx)), 50)
        labels = tuple(str(i) for i in range(nx))
        channel = cq.CQChannel(
            labels, tuple(np.diag(row).astype(complex) for row in T))
        dist = cq.Distribution(labels, tuple(p))
        lib = cq.fixed_input_rate(channel, dist).value
        ref = orc.fixed_rate_projected_grid(T, p, denominator=50)
        dev = abs(lib - ref)
        worst = max(worst, dev)
        if dev > 2e-2:
            failures.append(f"case {case}: |{lib:.6f} - {ref:.6f}| = {dev:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    record_criterion(2, not failures,
                     f"50 channels |X|<=5 |Y|<=3, grid step 0.02, "
                     f"max dev {worst:.2e} <= 2e-2, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_03_soft_covering_bound():
    """Monte-Carlo codebook mean vs the Renyi bound on a random qubit channel."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(303)
    labels = ("0", "1", "2", "3")
    channel = cq.CQChannel(
        labels, tuple(orc.random_density(rng, 2) for _ in range(4)))
    q = cq.Distribution.uniform(labels)
    orders = tuple(cq.RenyiOrder(a) for a in (1.25, 1.5, 2.0))
    for n in (1, 2, 3):
        M = 4 ** n
        report = cq.soft_cover_simulate(channel, q, M, n, 200, 11,
                                        orders=orders)
        se = report.std_error / math.sqrt(report.samples)
        for alpha in (1.25, 1.5, 2.0):
            bound = report.bounds[alpha]
            if report.mean_error > bound + 3.0 * se:
                failures.append(
                    f"n={n} alpha={alpha}: mean {report.mean_error:.4f} > "
                    f"bound {bound:.4f} + 3se {3 * se:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    record_criterion(3, not failures,
                     f"|X|=4 qubit, n in 1..3, M=4^n, 200 codebooks seed 11, "
                     f"alpha 1.25/1.5/2, mean <= bound+3se, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_04_lemma_domination():
    """Both one-shot bounds dominate twice the exact error on 100 instances."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(404)
    for case in range(100):
        nx = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        M = int(rng.integers(1, 7))
        labels = tuple(str(i) for i in range(nx))
        channel = cq.CQChannel(
            labels, tuple(orc.random_density(rng, d) for _ in range(nx)))
        dist = cq.Distribution(labels, tuple(rng.dirichlet(np.ones(nx))))
        exact = cq.resolution_error_exact(channel, dist, M).error
        sigma = cq.output_state(channel, dist)
        vprime = distinct_eigenvalue_count(np.linalg.eigvalsh(sigma))
        ll2 = cq.ll2_bound(channel, dist, sigma, M / (4.0 * vprime), M)
        params = cq.SmoothingParams(1.0, 4, L=M / 16.0)
        ll1b = cq.ll1b_bound(channel, dist, params, M)
        if ll2 < 2.0 * exact - 1e-12:
            failures.append(f"case {case}: ll2 {ll2:.4f} < 2*{exact:.4f}")
        if ll1b < 2.0 * exact - 1e-12:
            failures.append(f"case {case}: ll1b {ll1b:.4f} < 2*{exact:.4f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 120s")
    record_criterion(4, not failures,
                     f"100 instances |X|<=4 d<=3 M<=6, C=M/4v', L=M/16, "
                     f"both bounds >= 2x exact, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_05_smoothing_sandwich():
    """rho <= ceil(rho) <= 2^lam rho + 2^{-v lam} I with <= v+1 distinct values."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(505)
    lam_grid = (0.3, 0.5, 1.0, 2.0)
    v_grid = (1, 2, 4, 8)
    for case in range(200):
        d = int(rng.integers(2, 6))
        rho = orc.random_density(rng, d)
        for lam, v in itertools.product(lam_grid, v_grid):
            out = cq.ceil_operator(rho, cq.SmoothingParams(lam, v))
            low = float(np.min(np.linalg.eigvalsh(out - rho)))
            upper = (2.0 ** lam) * rho + (2.0 ** (-v * lam)) * np.eye(d) - out
            high = float(np.min(np.linalg.eigvalsh(upper)))
            if low < -1e-9:
                failures.append(f"case {case} lam={lam} v={v}: lower {low:.2e}")
            if high < -1e-9:
                failures.append(f"case {case} lam={lam} v={v}: upper {high:.2e}")
            count = distinct_eigenvalue_count(np.linalg.eigvalsh(out))
            if count > v + 1:
                failures.append(
                    f"case {case} lam={lam} v={v}: {count} levels > v+1")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    record_criterion(5, not failures,
                     f"200 densities d<=5 x 16 (lam,v) pairs, PSD slack 1e-9, "
                     f"<= v+1 distinct eigenvalues, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_06_commuting_types_bound():
    """Tr rho^n T_type <= 2^{-n D} exhaustively for d <= 3, n <= 10."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(606)
    checks = 0
    for case in range(20):
        d = 2 if case < 10 else 3
        rho = np.diag(rng.dirichlet(np.ones(d))).astype(complex)
        for n in range(1, 11):
            for t in cq.all_empirical_states(n, d):
                res = cq.commuting_types_bound_check(rho, t, n)
                checks += 1
                if not res.ok:
                    failures.append(
                        f"case {case} n={n} counts={t.counts}: "
                        f"lhs {res.lhs:.3e} > rhs {res.rhs:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    record_criterion(6, not failures,
                     f"{checks} exhaustive type checks, 20 diagonal states, "
                     f"slack factor 1+1e-9, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_07_pinching_sandwich():
    """Type-basis pinching keeps -phi within [-phi, -phi + s(d-1)log2(n+1)]."""
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(707)
    for pair in range(10):
        sigma = orc.random_density(rng, 2)
        rho = orc.random_density(rng, 2)
        basis = cq.Basis(cq.eigh(rho).eigenvectors)
        for n in range(1, 7):
            sig_n = cq.tensor_power(sigma, n)
            rho_n = cq.tensor_power(rho, n)
            pinched = cq.pinch(cq.type_pinching(basis, n), sig_n)
            for s in (0.25, 0.5, 0.75):
                low = -cq.phi(s, pinched, rho_n)
                mid = -cq.phi(s, sig_n, rho_n)
                if low > mid + 1e-8:
                    failures.append(
                        f"pair {pair} n={n} s={s}: lower {low:.6f} > {mid:.6f}")
                cap = low + s * (2 - 1) * math.log2(n + 1)
                if mid > cap + 1e-8:
                    failures.append(
                        f"pair {pair} n={n} s={s}: upper {mid:.6f} > {cap:.6f}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    record_criterion(7, not failures,
                     f"10 qubit pairs, n<=6, s in {{0.25,0.5,0.75}}, "
                     f"both inequalities slack 1e-8, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_08_twirling_inequality():
    """(n+1)^{d-1} e(x^n)^{tensor n} dominates the twirled word projector."""
    t0 = time.perf_counter()
    failures = []
    words = 0
    worst = math.inf
    for d in (1, 2, 3):
        for n in range(1, 6):
            for symbols in itertools.product(range(d), repeat=n):
                margin = cq.ee31_margin(cq.Word(symbols), d)
                words += 1
                worst = min(worst, margin)
                if margin < -1e-9:
                    failures.append(f"d={d} word {symbols}: margin {margin:.2e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    record_criterion(8, not failures,
                     f"{words} words |X|<=3 n<=5, min margin {worst:.2e} "
                     f">= -1e-9, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_09_strong_converse_trend():
    """Golden exact errors at R=0 for the 0.1-flip channel, n = 1..4."""
    t0 = time.perf_counter()
    failures = []
    channel = cq.CQChannel(
        ("0", "1"),
        (np.diag([0.9, 0.1]).astype(complex),
         np.diag([0.1, 0.9]).astype(complex)),
    )
    dist = cq.Distribution(("0", "1"), (0.5, 0.5))
    rows = cq.converse_trend(channel, dist, 0.0, 4)
    goldens = [0.4, 0.56, 0.604, 0.6352]
    for (n, M, err), gold in zip(rows, goldens):
        if M != 1:
            failures.append(f"n={n}: M={M} != 1 at R=0")
        if abs(err - gold) > 1e-12:
            failures.append(f"n={n}: {err!r} differs from golden {gold}")
        oracle = orc.binary_flip_exact_error(0.1, n)
        if abs(err - oracle) > 1e-12:
            failures.append(f"n={n}: {err!r} differs from oracle {oracle!r}")
    if not rows[3][2] > rows[0][2]:
        failures.append(f"n=4 error {rows[3][2]} not above n=1 error {rows[0][2]}")
    if abs(rows[0][2] - 0.4) > 1e-12:
        failures.append(f"n=1 error {rows[0][2]} != 0.4")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 60s")
    record_criterion(9, not failures,
                     f"goldens {goldens} matched within 1e-12, "
                     f"n=4 strictly above n=1, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_10_bridge_lemma():
    """ID-code verification, adversarial rejection, and the counting check."""
    t0 = time.perf_counter()
    failures = []

    channel = cq.CQChannel(
        ("0", "1"),
        (np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)),
    )
    labels = ("0", "1")
    p1 = cq.Distribution.point_mass(labels, "0")
    p2 = cq.Distribution.point_mass(labels, "1")
    d1 = np.diag([1.0, 0.0]).astype(complex)
    d2 = np.diag([0.0, 1.0]).astype(complex)
    good = cq.IDCode(((p1, d1), (p2, d2)), 0.1, 0.1)
    verify = cq.verify_id_code(good, channel)
    pair = cq.pairwise_distance_check(good, channel)
    if not verify.valid:
        failures.append(f"orthogonal code rejected: {verify.failures}")
    if not pair.ok:
        failures.append(f"orthogonal code fails distance check: {pair}")

    same = cq.Distribution(labels, (0.5, 0.5))
    rng = np.random.default_rng(1010)
    for trial in range(5):
        t1 = orc.random_projector(rng, 2, 1)
        t2 = orc.random_projector(rng, 2, 1)
        adversarial = cq.IDCode(((same, t1), (same, t2)), 0.3, 0.3)
        if cq.verify_id_code(adversarial, channel).valid:
            failures.append(f"adversarial code {trial} accepted despite "
                            f"identical outputs and lambda1+lambda2<1")

    cases = 0
    for x in (2, 3):
        for M in (1, 2, 3, 4, 5):
            for N in (x ** M, x ** M + 1):
                res = cq.bridge_counting_check(max(N, 2), x, M, 0.1, 0.1, 0.0)
                cases += 1
                expected = x ** M >= max(N, 2)
                if res.count_ok != expected:
                    failures.append(f"count x={x} M={M} N={N}: "
                                    f"{res.count_ok} != {expected}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    record_criterion(10, not failures,
                     f"orthogonal code valid, 5 adversarial codes rejected, "
                     f"{cases} counting cases, {elapsed:.1f}s")
    assert not failures, failures


def test_criterion_11_determinism(tmp_path):
    """Same seed gives bitwise-identical CSV, at any worker count."""
    t0 = time.perf_counter()
    failures = []
    channel_args = ["--builtin", "example1", "--eps", "0.2"]

    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "4")):
        path = tmp_path / f"soft_{tag}.csv"
        code = main(["softcover", *channel_args, "--M", "16", "--n", "2",
                     "--samples", "100", "--seed", "7",
                     "--workers", workers, "--out", str(path)])
        if code != 0:
            failures.append(f"softcover run {tag} exited {code}")
        outputs.append(path.read_bytes())
    if outputs[0] != outputs[1]:
        failures.append("same seed, same workers: CSV differs")
    if outputs[0] != outputs[2]:
        failures.append("same seed, different workers: CSV differs")

    trend = []
    for tag in ("a", "b"):
        path = tmp_path / f"trend_{tag}.csv"
        code = main(["converse-trend", *channel_args, "--rate", "0.5",
                     "--n-max", "3", "--out", str(path)])
        if code != 0:
            failures.append(f"converse-trend run {tag} exited {code}")
        trend.append(path.read_bytes())
    if trend[0] != trend[1]:
        failures.append("converse-trend reruns differ")

    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 30s")
    record_criterion(11, not failures,
                     f"softcover seed 7 bitwise-stable across reruns and "
                     f"workers 1 vs 4, trend rerun stable, {elapsed:.1f}s")
    assert not failures, failures
