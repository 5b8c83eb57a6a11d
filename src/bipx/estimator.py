"""The exposure reweighted linear (ERL) estimator and its error diagnostics.

Outcomes follow the linear exposure-response model Y_i = m_i x_i + b_i,
so the average treatment effect (all treated minus all control) is
tau = (2/n) sum_i m_i. The ERL estimator

    tau_hat = (2/n) sum_i Y_i (x_i - E[x_i]) / Var[x_i]

is unbiased whenever every exposure variance is positive, and reduces to
the standard Horvitz-Thompson contrast when the incidence matrix is the
identity. `mse` gives its exact MSE under any Bernoulli or cluster design
at any p, in closed form from the cluster aggregates. It takes the model
as ground truth; it is a simulation-side tool and the estimator itself
never sees the model. The enumeration routes to the exact MSE and
E[tau_hat], which the tests check both against, are in bipx.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bipx.design import DegenerateDesignError, design_aggregates
from bipx.graph_core import compress, scipy_csr

# Products per row block of A^T diag(u) A in `mse`, which bounds the
# block's output and so its memory, however many rows a hub reaches.
_FROBENIUS_PRODUCTS = 1 << 19


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
    """Potential outcomes Y_i = m_i x_i + b_i at exposures x (or each row)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1:] != model.slopes.shape:
        raise ValueError("exposure vector length does not match the model")
    return model.slopes * x + model.intercepts


def true_ate(model):
    """Average treatment effect under the model: (2/n) sum_i m_i."""
    return 2.0 * float(np.mean(model.slopes))


def erl_estimate(y, x, mom):
    """(2/n) sum_i y_i (x_i - E[x_i]) / Var[x_i], a float; for (replicates,
    n) blocks, one estimate per row, each summed along its own row."""
    y = np.asarray(y, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if not (y.shape == x.shape and x.shape[-1:] == mom.mean.shape):
        raise ValueError("y, x and moments must have equal length")
    bad = mom.degenerate_units()
    if bad.size:
        raise DegenerateDesignError(bad)
    est = (2.0 / x.shape[-1]) * (y * (x - mom.mean) / mom.variance).sum(-1)
    return float(est) if est.ndim == 0 else est


def erl_rows(model, x, mom, y, out):
    """erl_estimate(respond(model, x), x, mom) of each row of the
    C-contiguous (rows, n) block x, written to out, with no temporary of
    x's size: y is a buffer of x's shape, and x is overwritten. It makes
    erl_estimate's operations in their order, so it gives the same bits.
    The caller checks the shapes and the moments."""
    np.multiply(model.slopes, x, out=y)
    y += model.intercepts
    x -= mom.mean
    y *= x
    y /= mom.variance
    np.multiply(2.0 / x.shape[-1], y.sum(-1), out=out)


def mse_exact(g, d, model):
    """Exact E[(tau_hat - tau)^2] by 2^k enumeration; see bipx.oracle."""
    # bench/oracle.py checks its closed form against this name. The import
    # is made here, not at module level, so that no production path loads
    # the oracle module.
    from bipx import oracle
    return oracle.mse_exact(g, d, model)


def mse(g, d, model):
    """Exact E[(tau_hat - tau)^2] under design d, in closed form at any p.

    With A the cluster aggregates, V and mu the exposure variances and
    means, u = m / V and v = (m o mu + b) / V, the error is
    (2/n) [eps^T A^T diag(u) A eps - sum m + (A^T v) . eps] in the
    centred cluster coins eps. Their variance s2 = 4p(1-p), third moment
    mu3 = 2 s2 (1-2p) and fourth cumulant
    k4 = 16p(1-p)(1-3p+3p^2) - 3 s2^2 give

        MSE = (4/n^2) [ 2 s2^2 ||A^T diag(u) A||_F^2 + k4 ||(A o A)^T u||^2
                        + 2 mu3 ((A o A)^T u) . (A^T v) + s2 ||A^T v||^2 ].

    A^T diag(u) is built by compress as a k x n CSR and multiplied by A
    in row blocks of about _FROBENIUS_PRODUCTS products. numpy, not BLAS,
    sums the dot products, so their bits do not depend on the BLAS thread
    count. Raises DegenerateDesignError as exposure_moments does.
    """
    if model.n != g.n_outcome:
        raise ValueError("exposure vector length does not match the model")
    agg, mom = design_aggregates(g, d)
    (n, k), p, s2 = agg.shape, d.p, d.coin_variance
    mu3 = 2.0 * s2 * (1.0 - 2.0 * p)
    k4 = 16.0 * p * (1.0 - p) * (1.0 - 3.0 * p + 3.0 * p * p) - 3.0 * s2 * s2
    u = model.slopes / mom.variance
    v = (model.slopes * mom.mean + model.intercepts) / mom.variance
    degrees = np.diff(agg.indptr)
    rows = np.repeat(np.arange(n), degrees)
    diag = np.bincount(agg.indices, agg.data * agg.data * u[rows], k)
    lin = np.bincount(agg.indices, agg.data * v[rows], k)
    at = scipy_csr(compress(agg.indices, rows, agg.data * u[rows], (k, n)))
    # Entry (c, i) of at costs degrees[i] products in row c of at @ A.
    cost = np.zeros(at.nnz + 1, dtype=np.int64)
    np.cumsum(degrees[at.indices], out=cost[1:])
    cuts = np.unique(np.r_[0, np.searchsorted(cost[at.indptr], np.arange(
        _FROBENIUS_PRODUCTS, cost[-1], _FROBENIUS_PRODUCTS)), k])
    a, frob = scipy_csr(agg), 0.0
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        part = at[lo:hi] @ a
        frob += float(np.sum(part.data * part.data))
    return (4.0 / model.n ** 2) * (
        2.0 * s2 * s2 * frob + k4 * float(np.sum(diag * diag))
        + 2.0 * mu3 * float(np.sum(diag * lin))
        + s2 * float(np.sum(lin * lin)))
