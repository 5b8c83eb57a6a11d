"""Desk-scale oracles: brute-force routes the tests check bipx against.

Each route here either walks all 2^k cluster coin patterns of a design or
builds a dense m x m matrix of diversion-unit pair weights, so it is meant
for small graphs and clusterings only. The production modules compute the
same quantities in closed form and never import this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bipx.cluster_opt import ObjectiveValue
from bipx.design import (DesignError, DesignSpec, cluster_aggregated_weights,
                         exposure_moments)
from bipx.estimator import true_ate

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
        g.require_normalized()
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
        caw = cluster_aggregated_weights(g, c)
        # exposure_matrix[r, i] = exposure of outcome i under pattern r.
        self.exposure_matrix = (caw.agg @ signs.T).T

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

    def squared_pair_moment(self):
        """Matrix of E[x_i^2 x_j^2]."""
        sq = self.exposure_matrix ** 2
        return (sq * self.weights[:, None]).T @ sq


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


def mse_zero_intercept_bound(g, d, model):
    """Upper bound on the MSE when every intercept is zero and p = 1/2.

    (4/n^2) [ sum_i m_i^2 (1/V_i - 1)
              + 2 sum_{i<j} m_i m_j (E[x_i^2 x_j^2]/(V_i V_j) - 1) ].
    The fourth moments E[x_i^2 x_j^2] come from enumeration.
    """
    if np.any(model.intercepts != 0):
        raise ValueError("mse_zero_intercept_bound requires all intercepts zero")
    if d.p != 0.5:
        raise ValueError("mse_zero_intercept_bound requires p = 1/2")
    mom = exposure_moments(g, d)
    m2 = ExactMoments(g, d).squared_pair_moment()
    m_ = model.slopes
    v = mom.variance
    n = model.n
    diag_term = float(np.sum(m_ * m_ * (1.0 / v - 1.0)))
    u = m_ / v
    cross_moment = float(u @ m2 @ u - np.sum(u * u * np.diag(m2)))
    cross_const = float(np.sum(m_) ** 2 - np.sum(m_ * m_))
    return (4.0 / n ** 2) * (diag_term + cross_moment - cross_const)


def expected_estimate(g, d, model):
    """Exact E[tau_hat] by enumeration; equals true_ate when unbiased."""
    weights, estimates = estimate_distribution(g, d, model)
    return float(weights @ estimates)


def omega_matrix(g, phi):
    """Dense m x m pair weights (1 + phi) c[i, j] - phi s[i] s[j]."""
    g.require_normalized()
    gram = (g.cols.T @ g.cols).toarray()
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
    gram = (g.cols.T @ g.cols).toarray()
    s = g.col_sums
    var_sum = cv * float(gram[same].sum())
    cov_sum = cv * float((np.outer(s, s)[same]).sum() - gram[same].sum())
    return ObjectiveValue(var_sum, cov_sum, phi)


def exposure_spread_enumerated(g, c, p=0.5):
    """E[ sum_i (x_i - mean(x))^2 ] over all coin patterns of the design."""
    exact = ExactMoments(g, DesignSpec.independent_cluster(c, p))
    return float(exact.expect(lambda x: np.sum((x - x.mean()) ** 2)))


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
