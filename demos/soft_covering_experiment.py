#!/usr/bin/env python3
"""Random codebooks against the Renyi soft-covering bound.

Draw M i.i.d. codewords from q^n, average the channel outputs over the
codebook, and measure how far that average sits from the true output state
W(q)^{tensor n} in half trace distance. The mean over many random codebooks
is provably at most

    2^(2/alpha - 2) * 2^(((alpha-1)/alpha) * (I_alpha - log2 M))

for every Renyi order alpha in (1, 2], where I_alpha is the sandwiched
Renyi mutual information of the input-output state. At alpha = 2 this is
(1/2) * sqrt(2^(I_2) / M): doubling the codebook divides the mean error by
sqrt(2), the classic Monte-Carlo decay.

This script runs the experiment on a random 4-input qubit channel for
block lengths n = 1, 2, 3 with M = 4^n and prints the measured mean, its
standard error, and the three analytic bounds. The simulation is counter-
seeded: sample i comes from its own stream keyed by (seed, i), so the same
seed reproduces every sample bit for bit, and a shorter run gives the first
samples of a longer one.

Run:  python3 demos/soft_covering_experiment.py [seed]
"""

import math
import sys

import numpy as np

import cqresolve as cq


def random_qubit_channel(rng: np.random.Generator) -> cq.CQChannel:
    states = []
    for _ in range(4):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = g @ g.conj().T
        states.append(rho / np.trace(rho).real)
    return cq.CQChannel(("0", "1", "2", "3"), tuple(states))


def main() -> None:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 11
    print(__doc__)

    channel = random_qubit_channel(np.random.default_rng(303))
    q = cq.Distribution.uniform(channel.labels)
    orders = tuple(cq.RenyiOrder(a) for a in (1.25, 1.5, 2.0))

    print(f"channel: 4 qubit outputs, uniform q, simulation seed {seed}\n")
    header = (f"{'n':>2} {'M':>4} {'mean':>9} {'3*se':>9} "
              f"{'bound a=1.25':>13} {'a=1.5':>9} {'a=2':>9}")
    print(header)
    for n in (1, 2, 3):
        M = 4 ** n
        rep = cq.soft_cover_simulate(channel, q, M, n, 200, seed,
                                     orders=orders)
        se3 = 3.0 * rep.std_error / math.sqrt(rep.samples)
        print(f"{n:>2} {M:>4} {rep.mean_error:9.4f} {se3:9.4f} "
              f"{rep.bounds[1.25]:13.4f} {rep.bounds[1.5]:9.4f} "
              f"{rep.bounds[2.0]:9.4f}")

    print("\nEvery bound sits above the measured mean (up to Monte-Carlo")
    print("noise), and the per-symbol error shrinks as the block grows even")
    print("though the codebook rate is pinned at 2 bits per symbol.")

    rep1 = cq.soft_cover_simulate(channel, q, 16, 2, 50, seed)
    rep2 = cq.soft_cover_simulate(channel, q, 16, 2, 20, seed)
    same = np.array_equal(rep1.distances[:20], rep2.distances)
    print(f"\ndeterminism check (20 samples vs the first 20 of 50, same seed): "
          f"{'identical' if same else 'MISMATCH'}")


if __name__ == "__main__":
    main()
