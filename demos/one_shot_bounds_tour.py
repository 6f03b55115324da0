#!/usr/bin/env python3
"""A tour of the one-shot machinery behind channel resolvability.

Four stops:

1. Exact resolution error. For a binary flip channel and uniform input,
   the best M-type approximation of the output is computed exactly by
   enumerating all M-types; at M = 1 the answer is 1/2 - eps.

2. One-shot upper bounds. Two analytic bounds dominate the exact error:
   a pinching-based bound driven by a threshold projector against the true
   output state, and a smoothing-based bound driven by rounding the output
   state's spectrum up onto a geometric grid (at most v+1 distinct levels,
   sandwiched between rho and 2^lam rho + 2^(-v lam) I).

3. Method of types. The commuting types bound Tr rho^n T <= 2^(-n D)
   is checked exactly via multinomial arithmetic, and the twirled word
   projector is dominated by (n+1)^(d-1) copies of the word's empirical
   state -- the two combinatorial facts the converse machinery rests on.

4. The identification-code bridge. A valid (N, l1, l2) code forces the
   outputs of distinct messages apart, so few messages fit through a
   channel whose outputs are easy to fake: |X|^M >= N whenever
   1 - l1 - l2 exceeds the worst-input resolution error at M.

Run:  python3 demos/one_shot_bounds_tour.py
"""

import math

import numpy as np

import cqresolve as cq


def stop_one() -> tuple[cq.CQChannel, cq.Distribution]:
    print("--- 1. exact resolution error ---------------------------------")
    eps = 0.1
    channel = cq.CQChannel(
        ("0", "1"),
        (np.diag([1.0 - eps, eps]).astype(complex),
         np.diag([eps, 1.0 - eps]).astype(complex)),
    )
    dist = cq.Distribution(("0", "1"), (0.5, 0.5))
    for M in (1, 2, 4, 8):
        res = cq.resolution_error_exact(channel, dist, M)
        counts = {lbl: int(round(m * M)) for lbl, m in
                  zip(res.argmin.distribution.labels,
                      res.argmin.distribution.masses) if m > 0}
        print(f"  M={M}: error {res.error:.6f}  best type {counts}")
    print("  M=1 gives 1/2 - eps = 0.4; the uniform input is itself a")
    print("  2-type, so everything from M=2 on is exact to zero.\n")
    return channel, dist


def stop_two(channel: cq.CQChannel, dist: cq.Distribution) -> None:
    print("--- 2. one-shot upper bounds ----------------------------------")
    sigma = cq.output_state(channel, dist)
    vprime = 1 + int(np.sum(np.diff(np.sort(np.linalg.eigvalsh(sigma)))
                            > 1e-10))
    print(f"  reference sigma = W(p) has {vprime} distinct eigenvalue(s)")
    for M in (1, 2, 4, 8):
        exact = cq.resolution_error_exact(channel, dist, M).error
        ll2 = cq.ll2_bound(channel, dist, sigma, M / (4.0 * vprime), M)
        ll1b = cq.ll1b_bound(channel, dist,
                             cq.SmoothingParams(1.0, 4, L=M / 16.0), M)
        print(f"  M={M}: exact {exact:.4f}  pinching bound {ll2:.4f}  "
              f"smoothing bound {ll1b:.4f}")
    rho = np.diag([0.8, 0.15, 0.05]).astype(complex)
    rounded = cq.ceil_operator(rho, cq.SmoothingParams(1.0, 10))
    levels = sorted((float(x) for x in np.linalg.eigvalsh(rounded).real),
                    reverse=True)
    print(f"  spectral round-up of (0.8, 0.15, 0.05) on the lam=1 grid: "
          f"{[round(x, 12) for x in levels]}")
    print()


def stop_three() -> None:
    print("--- 3. method of types ----------------------------------------")
    rho = np.diag([0.5, 0.5]).astype(complex)
    for counts in ((5, 5), (8, 2), (10, 0)):
        t = cq.EmpiricalState(counts, 10)
        res = cq.commuting_types_bound_check(rho, t)
        print(f"  counts {counts}: mass {res.lhs:.6f} <= 2^(-10 D) = "
              f"{res.rhs:.6f}  ok={res.ok}")
    margins = []
    for d in (2, 3):
        for n in (1, 2, 3):
            import itertools
            for symbols in itertools.product(range(d), repeat=n):
                margins.append(cq.ee31_margin(cq.Word(symbols), d))
    print(f"  twirl domination over {len(margins)} short words: "
          f"min margin {min(margins):.2e} (>= 0 up to roundoff)\n")


def stop_four() -> None:
    print("--- 4. the identification-code bridge -------------------------")
    channel = cq.CQChannel(
        ("0", "1"),
        (np.diag([1.0, 0.0]).astype(complex),
         np.diag([0.0, 1.0]).astype(complex)),
    )
    labels = ("0", "1")
    code = cq.IDCode(
        ((cq.Distribution.point_mass(labels, "0"),
          np.diag([1.0, 0.0]).astype(complex)),
         (cq.Distribution.point_mass(labels, "1"),
          np.diag([0.0, 1.0]).astype(complex))),
        0.1, 0.1)
    verify = cq.verify_id_code(code, channel)
    pair = cq.pairwise_distance_check(code, channel)
    print(f"  2-message orthogonal code: valid={verify.valid}, min output "
          f"distance {pair.min_distance:.1f} >= threshold {pair.threshold:.1f}")
    res = cq.bridge_counting_check(9, 2, 3, 0.1, 0.1, 0.0)
    print(f"  counting: can 9 messages fit in 2^3 = 8 type slots? "
          f"count_ok={res.count_ok}")
    print("  No: a valid 9-message code on a binary alphabet would force")
    print("  the worst-input resolution error at M=3 above 1 - l1 - l2.")


def main() -> None:
    print(__doc__)
    channel, dist = stop_one()
    stop_two(channel, dist)
    stop_three()
    stop_four()


if __name__ == "__main__":
    main()
