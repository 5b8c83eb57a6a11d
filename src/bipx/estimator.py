"""The exposure reweighted linear (ERL) estimator and its error diagnostics.

Outcomes follow the linear exposure-response model Y_i = m_i x_i + b_i,
so the average treatment effect (all treated minus all control) is
tau = (2/n) sum_i m_i. The ERL estimator

    tau_hat = (2/n) sum_i Y_i (x_i - E[x_i]) / Var[x_i]

is unbiased whenever every exposure variance is positive, and reduces to
the standard Horvitz-Thompson contrast when the incidence matrix is the
identity. The MSE diagnostic here takes the model as ground truth; it is
a simulation-side tool and the estimator itself never sees the model. The
enumeration routes to the exact MSE and E[tau_hat], which the tests check
the estimator against, are in bipx.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bipx.design import (VAR_FLOOR, DegenerateDesignError,
                         cluster_aggregated_weights, exposure_moments)


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


def mse_exact(g, d, model):
    """Exact E[(tau_hat - tau)^2] by 2^k enumeration; see bipx.oracle."""
    # bench/oracle.py checks its closed form against this name. The import
    # is made here, not at module level, so that no production path loads
    # the oracle module.
    from bipx import oracle
    return oracle.mse_exact(g, d, model)


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
