"""Desk-scale oracles: brute-force routes the tests check bipx against.

Each route here either walks all 2^k cluster coin patterns of a design or
builds a dense m x m matrix of diversion-unit pair weights, so it is meant
for small graphs and clusterings only. The production modules compute the
same quantities in closed form and never import this module. It also
holds the per-visit wedge sampler that the search's batched draws are
checked against, and the exposure spread with its link to the objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bipx.cluster_opt import ObjectiveValue, objective
from bipx.design import (DesignError, DesignSpec, cluster_aggregated_weights,
                         exposure_moments)
from bipx.estimator import true_ate
from bipx.graph_core import scipy_csr

# Enumeration walks all 2^k cluster coin outcomes.
MAX_ENUM_CLUSTERS = 20


class EnumerationTooLargeError(DesignError):
    pass


class ExactMoments:
    """Brute-force expectations over all 2^k cluster coin outcomes.

    Feasible for k <= MAX_ENUM_CLUSTERS. Exposes exact mean/variance/
    covariance of exposures plus a generic functional evaluator E[f(x)].
    """

    def __init__(self, g, d):
        c = d.effective_clustering(g.n_diversion)
        if c.k > MAX_ENUM_CLUSTERS:
            raise EnumerationTooLargeError(
                f"{c.k} clusters exceed the 2^{MAX_ENUM_CLUSTERS} enumeration limit")
        k = c.k
        # Row r of `signs` holds the +/-1 coins of outcome pattern r.
        bits = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
        signs = bits * 2.0 - 1.0
        heads = bits.sum(axis=1)
        self.weights = (d.p ** heads) * ((1.0 - d.p) ** (k - heads))
        # exposure_matrix[r, i] = exposure of outcome i under pattern r.
        agg = scipy_csr(cluster_aggregated_weights(g, c))
        self.exposure_matrix = (agg @ signs.T).T

    def expect(self, fn):
        """E[f(x)] for any f mapping an exposure vector to a scalar/array."""
        total = None
        for w, x in zip(self.weights, self.exposure_matrix):
            term = np.asarray(fn(x), dtype=np.float64) * w
            total = term if total is None else total + term
        return total

    def mean(self):
        return self.weights @ self.exposure_matrix

    def variance(self):
        mu = self.mean()
        return self.weights @ (self.exposure_matrix - mu) ** 2

    def covariance(self):
        mu = self.mean()
        centered = self.exposure_matrix - mu
        return (centered * self.weights[:, None]).T @ centered


def _theta_matrix(g, d, model, exact):
    """Per-pattern per-unit terms theta[r, i] = 2 Y_i (x_i - mu_i) / V_i.

    tau_hat under pattern r is mean_i theta[r, i].
    """
    mom = exposure_moments(g, d)
    x = exact.exposure_matrix
    y = model.slopes[None, :] * x + model.intercepts[None, :]
    return 2.0 * y * (x - mom.mean[None, :]) / mom.variance[None, :]


def estimate_distribution(g, d, model):
    """All (probability, tau_hat) pairs under the design, by enumeration."""
    exact = ExactMoments(g, d)
    theta = _theta_matrix(g, d, model, exact)
    return exact.weights, theta.mean(axis=1)


def mse_exact(g, d, model):
    """Exact E[(tau_hat - tau)^2] by enumeration (cluster count <= 20)."""
    weights, estimates = estimate_distribution(g, d, model)
    tau = true_ate(model)
    return float(weights @ (estimates - tau) ** 2)


def mse_decomposition(g, d, model):
    """MSE reassembled term by term from the per-unit estimator pieces.

    Returns (1/n^2) [ sum_i Var(theta_i) + 2 sum_{i<j} Cov(theta_i, theta_j) ],
    every moment evaluated independently through the enumeration oracle.
    Agrees with mse_exact; kept separate as a verification route.
    """
    exact = ExactMoments(g, d)
    theta = _theta_matrix(g, d, model, exact)
    w = exact.weights
    mu = w @ theta
    centered = theta - mu
    cov = (centered * w[:, None]).T @ centered
    n = model.n
    var_sum = float(np.trace(cov))
    cov_sum = float(cov.sum() - np.trace(cov))  # ordered pairs i != j
    return (var_sum + cov_sum) / n ** 2


def expected_estimate(g, d, model):
    """Exact E[tau_hat] by enumeration; equals true_ate when unbiased."""
    weights, estimates = estimate_distribution(g, d, model)
    return float(weights @ estimates)


def omega_matrix(g, phi):
    """Dense m x m pair weights (1 + phi) c[i, j] - phi s[i] s[j]."""
    gram = (g.rows.T @ g.rows).toarray()
    s = g.col_sums
    return (1.0 + phi) * gram - phi * np.outer(s, s)


def objective_by_moments(g, c, phi, p=0.5):
    """Objective reassembled from brute-force moments."""
    cov = ExactMoments(g, DesignSpec.independent_cluster(c, p)).covariance()
    var_sum = float(np.trace(cov))
    cov_sum = float(cov.sum() - np.trace(cov))
    return ObjectiveValue(var_sum, cov_sum, phi)


def objective_by_omega(g, c, phi, p=0.5):
    """Objective as 4p(1-p) times the total in-cluster omega weight.

    The parts are recovered from the dense co-weight Gram matrix and the
    column-sum outer product, whose phi-combination is exactly omega.
    """
    same = c.assignment[:, None] == c.assignment[None, :]
    cv = DesignSpec.independent_cluster(c, p).coin_variance
    gram = (g.rows.T @ g.rows).toarray()
    s = g.col_sums
    var_sum = cv * float(gram[same].sum())
    cov_sum = cv * float((np.outer(s, s)[same]).sum() - gram[same].sum())
    return ObjectiveValue(var_sum, cov_sum, phi)


def exposure_spread_enumerated(g, c, p=0.5):
    """E[ sum_i (x_i - mean(x))^2 ] over all coin patterns of the design."""
    exact = ExactMoments(g, DesignSpec.independent_cluster(c, p))
    return float(exact.expect(lambda x: np.sum((x - x.mean()) ** 2)))


def exposure_spread_objective(g, c, p=0.5):
    """Expected empirical variance of the exposure vector under the design.

    E[ sum_i (x_i - mean(x))^2 ] equals the trace form
    4p(1-p) sum_C (sum_i agg[i,C]^2 - S_C^2 / n) plus a mean term
    (2p-1)^2 * r^T (I - 11^T/n) r with r the row sums, which vanishes
    when the row sums are equal, as a graph's are to rounding.
    """
    obj = objective(g, c, 0.0, p)
    total = obj.variance_sum + obj.covariance_sum
    return obj.variance_sum - total / g.n_outcome \
        + spread_identity_constant(g, c, p)


def spread_identity_constant(g, c, p=0.5):
    """Additive constant linking the spread to the phi = 1/(n-1) objective.

    spread = ((n-1)/n) * objective(phi = 1/(n-1)).total + constant. The
    constant is the mean term of the spread, zero whenever rows sum to 1.
    """
    r = g.row_sums
    return (2.0 * p - 1.0) ** 2 * float(np.sum((r - r.mean()) ** 2))


def wedge_sample(g, i, rng):
    """Draw a partner diversion unit j with probability c[i, j] / s[i].

    Two stages: pick an outcome unit k with probability w[k, i] / s[i],
    then pick j with probability w[k, j] (rows sum to 1). The marginal of
    j is proportional to the co-weight sum_k w[k, i] w[k, j]. These are
    the draws local_search makes for a visit, one visit at a time.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    csc, csr = g.csc, g.csr
    if csc.indptr[i] == csc.indptr[i + 1]:
        raise ValueError(f"diversion unit {i} has no incident edges")
    k = _draw(csc.indptr, csc.indices, csc.data, i, rng)
    return int(_draw(csr.indptr, csr.indices, csr.data, k, rng))


def _draw(indptr, indices, data, i, rng):
    """One index of compressed slice i, drawn in proportion to its data."""
    lo, hi = indptr[i], indptr[i + 1]
    cum = np.cumsum(data[lo:hi])
    u = rng.random() * cum[-1]
    return indices[lo + min(int(np.searchsorted(cum, u, side="right")),
                            hi - lo - 1)]


@dataclass(frozen=True)
class CorrClustCS:
    """Split of the in-cluster omega objective into non-negative weights.

    w_in = max{0, omega} on in-cluster pairs, w_out = -min{0, omega} on
    out-of-cluster pairs, and constant = sum over all ordered pairs of
    min{0, omega}; then corr_clust_total - constant = cs_total.
    """

    in_weight: float
    out_weight: float
    constant: float
    corr_clust_total: float

    @property
    def cs_total(self):
        return self.in_weight + self.out_weight


def corr_clust_cs_rewrite(g, phi, c):
    """Evaluate the non-negative-weight rewriting of the objective."""
    om = omega_matrix(g, phi)
    same = c.assignment[:, None] == c.assignment[None, :]
    pos = np.maximum(om, 0.0)
    neg = np.minimum(om, 0.0)
    return CorrClustCS(
        in_weight=float(pos[same].sum()),
        out_weight=float(-neg[~same].sum()),
        constant=float(neg.sum()),
        corr_clust_total=float(om[same].sum()))
