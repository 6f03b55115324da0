"""A fixed speed probe, to express times at a reference machine speed.

The shared machine this benchmark was tuned on changes speed by up to 70%
from one second to the next (same work, no CPU steal), and the passes of
one run do not average that out. So every op is timed between two runs of a fixed
probe (small ``eigh`` calls and a Python loop, like the ops' own mix), and
its time is scaled by REFERENCE_S over the probes' mean: the seconds the
op would take on a machine where the probe takes REFERENCE_S. The probe
does not touch the program, so a change to the program moves the scaled
times as it moves the raw ones.
"""
from __future__ import annotations

import time

import numpy as np

# Median probe time on the 2-core Xeon VM the benchmark was tuned on, with
# one BLAS thread. A probe of about 40 ms tracked the speed around an op
# better than one of 8 ms; neither tracks changes within an op of seconds.
REFERENCE_S = 0.04
PROBE_ROUNDS = 200
_MATRIX = np.random.default_rng(0).normal(size=(24, 24))
_MATRIX = _MATRIX @ _MATRIX.T


def probe() -> float:
    """Seconds the fixed probe takes now."""
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        np.linalg.eigh(_MATRIX)
        sum(i * i for i in range(1500))
    return time.perf_counter() - start


def scaled(seconds: float, probe_s: float) -> float:
    """Seconds at the reference speed, given the probe time around them."""
    return seconds * REFERENCE_S / probe_s
