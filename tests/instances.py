"""Synthetic instances and small builders shared by the tests.

Everything here is deterministic given its seed. The planted instances
are engineered so the intended clustering is checkable: block hubs make
in-block merges strictly improving while balanced pair hubs sit exactly
on the objective's indifference point.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from bipx.design import Clustering, DesignSpec, exposure_moments
from bipx.graph_core import BipartiteGraph
from bipx.estimator import OutcomeModel


def _graph_from_coo(rows, cols, data, n, m):
    mat = sp.coo_matrix((data, (rows, cols)), shape=(n, m))
    outcome_ids = tuple(f"o{i}" for i in range(n))
    diversion_ids = tuple(f"d{j}" for j in range(m))
    return BipartiteGraph.from_csr(mat, outcome_ids, diversion_ids)


def small_graph():
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    return BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))


def identity_graph(n):
    return BipartiteGraph.from_csr(sp.identity(n, format="csr"),
                                   tuple(f"o{i}" for i in range(n)),
                                   tuple(f"d{i}" for i in range(n)))


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def random_instance(rng, n_max=6, m_max=12):
    """Small random sparse row-stochastic graph covering every column."""
    n = int(rng.integers(2, n_max + 1))
    m = int(rng.integers(2, m_max + 1))
    rows, cols = [], []
    # Hit every diversion unit and every outcome unit at least once.
    perm = rng.permutation(m)
    for t, j in enumerate(perm):
        rows.append(t % n)
        cols.append(j)
    for i in range(min(m, n), n):
        rows.append(i)
        cols.append(int(rng.integers(0, m)))
    # Extra random edges for irregular structure.
    extra = int(rng.integers(n, 3 * n + 1))
    rows.extend(rng.integers(0, n, extra).tolist())
    cols.extend(rng.integers(0, m, extra).tolist())
    data = rng.random(len(rows)) + 0.1
    return _graph_from_coo(np.array(rows), np.array(cols), data, n, m)


def random_clustering(rng, m, k_max=None):
    """Uniform random labels, densified; k_max bounds the label count."""
    k = int(rng.integers(1, (k_max or m) + 1))
    labels = rng.integers(0, k, m)
    return Clustering.from_labels(labels)


def nondegenerate_clustering(g, rng, p=0.5, attempts=50):
    """Random clustering with all exposure variances above the floor.

    Falls back to the one-cluster design, whose variances equal
    4p(1-p) row_sum^2 = 4p(1-p) > 0, if sampling keeps
    hitting degenerate clusterings.
    """
    m = g.n_diversion
    for _ in range(attempts):
        c = random_clustering(rng, m)
        d = DesignSpec.independent_cluster(c, p)
        mom = exposure_moments(g, d, check=False)
        if len(mom.degenerate_units()) == 0:
            return c
    return Clustering.one_cluster(m)


def random_model(rng, n, slope_scale=1.0, intercept_scale=1.0):
    return OutcomeModel(slopes=rng.normal(0.0, slope_scale, n),
                        intercepts=rng.normal(0.0, intercept_scale, n))


def planted_four_block(block_size=5):
    """Four diversion blocks, one hub outcome row each, one noise row.

    Block b's hub row spreads weight 1/block_size over the block's units;
    the noise row spreads 1/m over everything. In-block pair weight at
    phi = 1 is positive and cross-block negative, so the block partition
    is the unique local-search fixed point reachable from singletons.
    """
    q = block_size
    m = 4 * q
    rows, cols, data = [], [], []
    for b in range(4):
        for j in range(b * q, (b + 1) * q):
            rows.append(b)
            cols.append(j)
            data.append(1.0 / q)
    for j in range(m):
        rows.append(4)
        cols.append(j)
        data.append(1.0 / m)
    g = _graph_from_coo(np.array(rows), np.array(cols), np.array(data),
                        5, m)
    planted = Clustering.from_labels(np.arange(m) // q)
    return g, planted


def paired_pool_instance(n_pairs=100, spokes=5, pool=10, alpha=0.75):
    """Paired outcome units sharing a balanced pool of diversion units.

    Each outcome unit owns `spokes` private diversion units carrying
    alpha of its row, and each pair of outcome units shares `pool`
    diversion units carrying the remaining 1 - alpha from both rows,
    split evenly. Defaults give n = 200, m = 2000.

    Pool columns are balanced: both incident rows give a pool unit the
    same weight, so at phi = 1 every move touching a pool unit changes
    the objective by exactly zero (the pair weight 2c - s_i s_j cancels
    through exact power-of-two float identities). Strict-improvement
    search therefore leaves the pool singleton and only groups each
    outcome unit's private spokes, keeping exposures concentrated on one
    coin per row. At small phi the pool units glue into large shared
    clusters, splitting each row's exposure across comparable coins,
    which inflates both Var(x^2) and cross-pair fourth moments. Under the
    PositiveTE defaults (model_seed=11) at p = 1/2, the exact ERL MSE of
    Bernoulli is about 11x (10.93x) that of the spokes-grouped design.

    Returns the graph and a per-column marker: the owning outcome index
    for spokes, -(pair index + 1) for pool units.
    """
    n = 2 * n_pairs
    m = n_pairs * (2 * spokes + pool)
    w_spoke = alpha / spokes
    w_pool = (1.0 - alpha) / pool
    rows, cols, data = [], [], []
    col = 0
    owner = np.empty(m, dtype=np.int64)
    for b in range(n_pairs):
        i, j = 2 * b, 2 * b + 1
        for side in (i, j):
            for _ in range(spokes):
                rows.append(side)
                cols.append(col)
                data.append(w_spoke)
                owner[col] = side
                col += 1
        for _ in range(pool):
            rows.append(i)
            cols.append(col)
            data.append(w_pool)
            rows.append(j)
            cols.append(col)
            data.append(w_pool)
            owner[col] = -1 - b
            col += 1
    g = _graph_from_coo(np.array(rows), np.array(cols), np.array(data),
                        n, m)
    return g, owner


def wedge_test_graph():
    """Fixed 20 x 30 graph for checking the wedge-sampling marginal."""
    rng = np.random.default_rng(np.random.SeedSequence([12345]))
    n, m = 20, 30
    rows, cols = [], []
    perm = rng.permutation(m)
    for t, j in enumerate(perm):
        rows.append(t % n)
        cols.append(j)
    extra = 90
    rows.extend(rng.integers(0, n, extra).tolist())
    cols.extend(rng.integers(0, m, extra).tolist())
    data = rng.random(len(rows)) + 0.2
    return _graph_from_coo(np.array(rows), np.array(cols), data, n, m)


def perf_instance(n=20_000, m=100_000, nnz=1_000_000, seed=0):
    """Large random instance for timing runs; every column is covered."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    base_cols = rng.permutation(m)
    base_rows = np.arange(m, dtype=np.int64) % n
    extra = nnz - m
    extra_cols = rng.integers(0, m, extra)
    extra_rows = rng.integers(0, n, extra)
    rows = np.concatenate([base_rows, extra_rows])
    cols = np.concatenate([base_cols, extra_cols])
    data = rng.random(nnz) + 0.1
    return _graph_from_coo(rows, cols, data, n, m)


def partitions_equal(a, b):
    """Whether two labelings (arrays or Clusterings) give the same partition."""
    la = a.assignment if isinstance(a, Clustering) else np.asarray(a)
    lb = b.assignment if isinstance(b, Clustering) else np.asarray(b)
    ca = Clustering.from_labels(la).assignment
    cb = Clustering.from_labels(lb).assignment
    return bool(np.array_equal(ca, cb))
