"""Seeded input generators for the benchmark.

Every input is drawn here with numpy from the workload seed, never with
`bipx.synth`, so a change to the program cannot change what it is fed.
Each kind of input draws from its own stream of `SeedSequence([seed, stream])`.
"""

from __future__ import annotations

import os

import numpy as np

# Stream ids: one independent generator per kind of input.
GRAPH_STREAM = 1
CLUSTERING_STREAM = 2

# Perf-shaped graph: n outcome units, m diversion units, nnz edges before
# duplicates are summed.
PERF_N = 20_000
PERF_M = 100_000
PERF_NNZ = 1_000_000

# Weights are U(0.1, 1.1) on a grid of 1e-6, so the edge-list text of a
# weight parses back to exactly the float the benchmark holds.
WEIGHT_LO_MICRO = 100_000
WEIGHT_HI_MICRO = 1_100_000


def rng_for(seed, stream):
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def perf_edges(seed, n=PERF_N, m=PERF_M, nnz=PERF_NNZ):
    """Edges (rows, cols, micro-weights) of the perf-shaped graph.

    The first m edges give every diversion unit one edge and, since
    m > n, every outcome unit at least one; the rest land uniformly, so
    some (row, col) pairs repeat and must be summed on ingest.
    """
    rng = rng_for(seed, GRAPH_STREAM)
    rows = np.concatenate([np.arange(m, dtype=np.int64) % n,
                           rng.integers(0, n, nnz - m)])
    cols = np.concatenate([rng.permutation(m),
                           rng.integers(0, m, nnz - m)])
    micro = rng.integers(WEIGHT_LO_MICRO, WEIGHT_HI_MICRO, nnz)
    return rows, cols, micro


def paired_pool_edges(n_pairs=100, spokes=5, pool=10, alpha=0.75):
    """Edges of the paired-pool instance (n = 200, m = 2000 by default).

    Each outcome unit owns `spokes` private diversion units carrying alpha
    of its row; each pair of outcome units shares `pool` diversion units
    carrying the rest, with equal weight from both rows. Returns rows,
    cols, weights and the owner marker of every column: the owning
    outcome index for a spoke, -(pair index + 1) for a pool unit.
    """
    per_pair = 2 * spokes + pool
    m = n_pairs * per_pair
    pair = np.repeat(np.arange(n_pairs), per_pair)
    slot = np.tile(np.arange(per_pair), n_pairs)
    is_spoke = slot < 2 * spokes
    owner = np.where(is_spoke, 2 * pair + slot // spokes, -1 - pair)
    spoke_cols = np.flatnonzero(is_spoke)
    pool_cols = np.flatnonzero(~is_spoke)
    rows = np.concatenate([owner[spoke_cols],
                           2 * pair[pool_cols], 2 * pair[pool_cols] + 1])
    cols = np.concatenate([spoke_cols, pool_cols, pool_cols])
    weights = np.concatenate([np.full(spoke_cols.size, alpha / spokes),
                              np.full(2 * pool_cols.size,
                                      (1.0 - alpha) / pool)])
    return rows, cols, weights, owner.astype(np.int64)


def documented_labels(owner):
    """The paired-pool layout the search should find at phi = 1: each
    outcome unit's spokes form one cluster, pool units stay singletons."""
    n = int(owner.max()) + 1
    return np.where(owner >= 0, owner, n + np.arange(owner.size))


def random_labels(seed, m, size):
    """Clusters of exactly `size` units (m a multiple of size), shuffled."""
    return rng_for(seed, CLUSTERING_STREAM).permutation(m) // size


def write_edge_list(path, rows, cols, micro):
    """Write `outcome diversion weight` lines, weights as exact decimals."""
    tmp = path + ".part"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write("# bipx benchmark edge list\n")
        step = 100_000
        for lo in range(0, rows.size, step):
            fh.write("".join(
                f"u{i} i{j} {w // 1_000_000}.{w % 1_000_000:06d}\n"
                for i, j, w in zip(rows[lo:lo + step].tolist(),
                                   cols[lo:lo + step].tolist(),
                                   micro[lo:lo + step].tolist())))
    os.replace(tmp, path)
