"""A fixed unit of reference work that calibrates timings to machine speed.

The machine this benchmark was built on shares its CPUs with other
tenants, and runs through phases in which everything is up to 1.6x
slower; CPU time keeps pace with wall time, so the process is not
preempted but runs slower. Within a phase the least time of a short
reference unit is steady to a few percent, so timed work bracketed by
reference samples can be scaled back to a nominal machine speed:

    calibrated = wall * NOMINAL_S / median(reference samples)

that is, seconds on a machine where the reference unit takes NOMINAL_S.
A round samples before its first call and after each call, and the
median keeps one disturbed sample out: one taken just after a child
process exits can read 2.5x slow.

The unit mixes the kinds of work bipx does: interpreted Python, numpy
calls on small arrays, and a sparse matrix-vector product that streams
memory. It does not touch bipx, so no change to the program moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp

NOMINAL_S = 0.004
SAMPLE_REPEATS = 3


class Reference:
    def __init__(self):
        rng = np.random.default_rng(np.random.SeedSequence([20_211]))
        nnz = 200_000
        self.mat = sp.csr_matrix(
            (rng.random(nnz), (rng.integers(0, 2000, nnz),
                               rng.integers(0, 20_000, nnz))),
            shape=(2000, 20_000))
        self.vec = rng.random(20_000)
        self.small = rng.random(64)

    def _unit(self):
        total = 0
        for i in range(20_000):
            total += i * i
        for _ in range(100):
            np.cumsum(self.small)
        for _ in range(10):
            self.mat @ self.vec
        return total

    def sample(self):
        """Least wall time of a few back-to-back reference units."""
        best = float("inf")
        for _ in range(SAMPLE_REPEATS):
            t0 = time.perf_counter()
            self._unit()
            best = min(best, time.perf_counter() - t0)
        return best


def calibrated(wall, samples):
    return wall * NOMINAL_S / statistics.median(samples)
