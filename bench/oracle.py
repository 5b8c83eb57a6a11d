"""Computations the benchmark makes apart from the program to check it.

Everything here works on plain scipy matrices and integer labels, with
its own sparse indicator product for the cluster aggregates
A[i, C] = sum_{j in C} w[i, j]. Nothing here calls into bipx, except the
cross-check of the exact-MSE form against bipx's enumeration oracle.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from bipx import design, estimator, graph_core


def normalized_csr(rows, cols, weights, shape):
    """Row-normalized CSR matrix; duplicate (row, col) entries are summed."""
    mat = sp.csr_matrix((np.asarray(weights, dtype=np.float64),
                         (rows, cols)), shape=shape)
    mat.sum_duplicates()
    mat.sort_indices()
    sums = np.asarray(mat.sum(axis=1)).ravel()
    mat.data = mat.data / np.repeat(sums, np.diff(mat.indptr))
    return mat


def dense_labels(labels):
    return np.unique(np.asarray(labels), return_inverse=True)[1].ravel()


def aggregates(w, labels):
    """A = W @ indicator(labels), the n x k cluster aggregates."""
    labels = dense_labels(labels)
    m, k = labels.size, int(labels.max()) + 1
    ind = sp.csr_matrix((np.ones(m), (np.arange(m), labels)), shape=(m, k))
    return (w @ ind).tocsr(), labels


def objective_total(w, labels, phi, p=0.5):
    """4p(1-p) sum A^2 - phi * 4p(1-p) (sum_C S_C^2 - sum A^2)."""
    a, labels = aggregates(w, labels)
    cv = 4.0 * p * (1.0 - p)
    agg_sq = float(a.data @ a.data)
    col_sums = np.asarray(w.sum(axis=0)).ravel()
    s = np.bincount(labels, weights=col_sums)
    return cv * agg_sq - phi * cv * (float(s @ s) - agg_sq)


def moments(w, labels, p=0.5):
    """Exposure mean (2p-1) * row sum and variance 4p(1-p) sum_C A_iC^2."""
    a, _ = aggregates(w, labels)
    a.data = a.data ** 2
    mean = (2.0 * p - 1.0) * np.asarray(w.sum(axis=1)).ravel()
    return mean, 4.0 * p * (1.0 - p) * np.asarray(a.sum(axis=1)).ravel()


def mse_at_half(w, labels, slopes, intercepts, block=1024):
    """Exact ERL MSE of the cluster design at p = 1/2, cluster-level form.

    With u = m / V, U = diag(u) and v = b / V,
        MSE = (4/n^2) [2 ||A^T U A||_F^2 - 2 ||(A o A)^T u||^2 + ||A^T v||^2].
    A^T U A is formed one block of clusters at a time, never n x n.
    """
    a, _ = aggregates(w, labels)
    a2 = a.multiply(a).tocsr()
    var = np.asarray(a2.sum(axis=1)).ravel()
    u = slopes / var
    v = intercepts / var
    at = a.T.tocsr()
    au = (sp.diags(u) @ a).tocsc()
    frob = 0.0
    for lo in range(0, a.shape[1], block):
        part = at @ au[:, lo:lo + block]
        frob += float(part.data @ part.data)
    diag = a2.T @ u
    lin = at @ v
    n = slopes.size
    return (4.0 / n ** 2) * (2.0 * frob - 2.0 * float(diag @ diag)
                             + float(lin @ lin))


def check_mse_form(seed, count=40):
    """Largest relative gap between mse_at_half and bipx's enumeration.

    Small random instances (n <= 6, m <= 12, k <= 8 clusters) are drawn
    here; bipx builds the graph and enumerates all 2^k coin patterns.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 99]))
    worst = 0.0
    for _ in range(count):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 13))
        extra = int(rng.integers(n, 3 * n + 1))
        rows = np.concatenate([np.arange(max(n, m)) % n,
                               rng.integers(0, n, extra)])
        cols = np.concatenate([np.arange(max(n, m)) % m,
                               rng.integers(0, m, extra)])
        weights = rng.uniform(0.1, 1.1, rows.size)
        labels = rng.integers(0, int(rng.integers(1, min(m, 8) + 1)), m)
        slopes, intercepts = rng.normal(0, 1, n), rng.normal(0, 1, n)
        raw = sp.csr_matrix((weights, (rows, cols)), shape=(n, m))
        g = graph_core.normalize_rows(graph_core.BipartiteGraph.from_csr(
            raw, range(n), range(m)))
        d = design.DesignSpec.independent_cluster(
            design.Clustering.from_labels(labels), 0.5)
        model = estimator.OutcomeModel(slopes=slopes, intercepts=intercepts)
        ref = estimator.mse_exact(g, d, model)
        mine = mse_at_half(normalized_csr(rows, cols, weights, (n, m)),
                           labels, slopes, intercepts)
        worst = max(worst, abs(mine - ref) / abs(ref))
    return worst


def monte_carlo_gaps(estimates, tau, exact_mse):
    """(bias, MSE gap to the exact MSE), each in Monte Carlo standard errors."""
    est = np.asarray(estimates, dtype=np.float64)
    r = est.size
    err = est - tau
    sq = err ** 2
    bias_z = float(err.mean() / (err.std(ddof=1) / np.sqrt(r)))
    mse_z = float((sq.mean() - exact_mse) / (sq.std(ddof=1) / np.sqrt(r)))
    return bias_z, mse_z
