"""The exposure reweighted linear (ERL) estimator and its error diagnostics.

Outcomes follow the linear exposure-response model Y_i = m_i x_i + b_i,
so the average treatment effect (all treated minus all control) is
tau = (2/n) sum_i m_i. The ERL estimator

    tau_hat = (2/n) sum_i Y_i (x_i - E[x_i]) / Var[x_i]

is unbiased whenever every exposure variance is positive, and reduces to
the standard Horvitz-Thompson contrast when the incidence matrix is the
identity. The MSE diagnostics here take the model as ground truth; they
are simulation-side tools and the estimator itself never sees it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bipx.design import (VAR_FLOOR, DegenerateDesignError,
                         cluster_aggregated_weights, enumerate_exact_moments,
                         exposure_moments)


@dataclass(frozen=True)
class OutcomeModel:
    """Per-outcome-unit slope m_i and intercept b_i."""

    slopes: np.ndarray
    intercepts: np.ndarray

    def __post_init__(self):
        if self.slopes.shape != self.intercepts.shape or self.slopes.ndim != 1:
            raise ValueError("slopes and intercepts must be 1-d and equal length")

    @property
    def n(self):
        return int(self.slopes.size)


def respond(model, x):
    """Potential outcomes Y_i = m_i x_i + b_i at exposure vector x."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.slopes.shape:
        raise ValueError("exposure vector length does not match the model")
    return model.slopes * x + model.intercepts


def true_ate(model):
    """Average treatment effect under the model: (2/n) sum_i m_i."""
    return 2.0 * float(np.mean(model.slopes))


def erl_estimate(y, x, mom):
    """(2/n) sum_i y_i (x_i - E[x_i]) / Var[x_i]."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not (y.shape == x.shape == mom.mean.shape):
        raise ValueError("y, x and moments must have equal length")
    if np.any(mom.variance < VAR_FLOOR):
        raise DegenerateDesignError(list(np.flatnonzero(mom.variance < VAR_FLOOR)),
                                    mom.variance)
    n = y.size
    return (2.0 / n) * float(np.sum(y * (x - mom.mean) / mom.variance))


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
    exact = enumerate_exact_moments(g, d)
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
    exact = enumerate_exact_moments(g, d)
    theta = _theta_matrix(g, d, model, exact)
    w = exact.weights
    mu = w @ theta
    centered = theta - mu
    cov = (centered * w[:, None]).T @ centered
    n = model.n
    var_sum = float(np.trace(cov))
    cov_sum = float(cov.sum() - np.trace(cov))  # ordered pairs i != j
    return (var_sum + cov_sum) / n ** 2


def mse_zero_slope(g, d, model):
    """Closed-form MSE when every slope is exactly zero.

    (4/n^2) [ sum_i b_i^2 / V_i
              + 2 sum_{i<j} b_i b_j Cov[x_i, x_j] / (V_i V_j) ]
    using analytic moments only (no enumeration).
    """
    if np.any(model.slopes != 0):
        raise ValueError("mse_zero_slope requires all slopes exactly zero")
    mom = exposure_moments(g, d)
    d_ = mom.design
    c = d_.effective_clustering(g.n_diversion)
    caw = cluster_aggregated_weights(g, c)
    b = model.intercepts
    v = mom.variance
    u = b / v
    # u^T Cov u via the aggregates: Cov = 4p(1-p) A A^T with A = caw.agg.
    quad = d_.coin_variance * float(np.sum(np.asarray(caw.agg.T @ u) ** 2))
    diag = float(np.sum(u * u * v))
    n = model.n
    return (4.0 / n ** 2) * (float(np.sum(b * b / v)) + (quad - diag))


def mse_zero_intercept_bound(g, d, model):
    """Upper bound on the MSE when every intercept is zero and p = 1/2.

    (4/n^2) [ sum_i m_i^2 (1/V_i - 1)
              + 2 sum_{i<j} m_i m_j (E[x_i^2 x_j^2]/(V_i V_j) - 1) ].
    The fourth moments E[x_i^2 x_j^2] come from the enumeration oracle, so
    this is a desk-scale diagnostic, not a production path.
    """
    if np.any(model.intercepts != 0):
        raise ValueError("mse_zero_intercept_bound requires all intercepts zero")
    if d.p != 0.5:
        raise ValueError("mse_zero_intercept_bound requires p = 1/2")
    mom = exposure_moments(g, d)
    exact = enumerate_exact_moments(g, d)
    m2 = exact.squared_pair_moment()
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
