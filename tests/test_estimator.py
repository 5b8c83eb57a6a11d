import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx import estimator
from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         exposure_moments)
from bipx.estimator import (OutcomeModel, erl_estimate, mse_zero_slope,
                            respond, true_ate)
from bipx.graph_core import BipartiteGraph, exposures
from bipx.oracle import (estimate_distribution, expected_estimate,
                         mse_decomposition, mse_exact, mse_zero_intercept_bound)
from bipx.synth import nondegenerate_clustering, random_instance, random_model


def small_graph():
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    return BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))


def identity_graph(n):
    return BipartiteGraph.from_csr(sp.identity(n, format="csr"),
                                   tuple(f"o{i}" for i in range(n)),
                                   tuple(f"d{i}" for i in range(n)))


def test_outcome_model_validation():
    with pytest.raises(ValueError):
        OutcomeModel(slopes=np.ones(3), intercepts=np.ones(2))
    model = OutcomeModel(slopes=np.array([1.0, 3.0]),
                         intercepts=np.zeros(2))
    assert model.n == 2
    assert true_ate(model) == pytest.approx(4.0)


def test_respond_linear():
    model = OutcomeModel(slopes=np.array([2.0, -1.0]),
                         intercepts=np.array([1.0, 0.5]))
    y = respond(model, np.array([0.5, 1.0]))
    np.testing.assert_allclose(y, [2.0, -0.5])
    with pytest.raises(ValueError):
        respond(model, np.array([1.0]))


def test_sutva_identity_estimate_is_exact():
    g = identity_graph(2)
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    mom = exposure_moments(g, d)
    model = OutcomeModel(slopes=np.array([1.0, 1.0]), intercepts=np.zeros(2))
    for z in ([1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]):
        z = np.array(z)
        y = respond(model, exposures(g, z))
        assert erl_estimate(y, exposures(g, z), mom) == pytest.approx(2.0)
    assert mse_exact(g, d, model) == pytest.approx(0.0, abs=1e-15)


def test_erl_estimate_worked_value():
    g = identity_graph(2)
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    mom = exposure_moments(g, d)
    z = np.array([1.0, -1.0])
    est = erl_estimate(np.array([3.0, 1.0]), exposures(g, z), mom)
    assert est == pytest.approx(2.0)


def test_erl_estimate_rejects_degenerate_variance():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 1e-12)
    mom = exposure_moments(g, d, check=False)
    with pytest.raises(DegenerateDesignError):
        erl_estimate(np.ones(2), np.zeros(2), mom)


def test_estimate_distribution_weights():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.zeros(2), intercepts=np.ones(2))
    weights, estimates = estimate_distribution(g, d, model)
    assert weights.sum() == pytest.approx(1.0)
    assert weights.size == estimates.size == 4
    assert np.average(estimates, weights=weights) == pytest.approx(0.0,
                                                                   abs=1e-12)


def test_mse_worked_value_zero_slope():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.zeros(2), intercepts=np.ones(2))
    assert mse_exact(g, d, model) == pytest.approx(5.0)
    # The forwarder kept for bench/oracle.py gives the oracle's value.
    assert estimator.mse_exact(g, d, model) == mse_exact(g, d, model)
    assert mse_zero_slope(g, d, model) == pytest.approx(5.0)
    assert mse_decomposition(g, d, model) == pytest.approx(5.0)


def test_mse_zero_slope_requires_zero_slopes():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.0]), intercepts=np.ones(2))
    with pytest.raises(ValueError):
        mse_zero_slope(g, d, model)


def test_bound_worked_value_zero_intercept():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.zeros(2))
    assert mse_zero_intercept_bound(g, d, model) == pytest.approx(1.0)
    assert mse_exact(g, d, model) <= mse_zero_intercept_bound(g, d, model) \
        + 1e-12


def test_bound_requires_zero_intercepts_and_half():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.ones(2))
    with pytest.raises(ValueError):
        mse_zero_intercept_bound(g, d, model)
    d3 = DesignSpec.independent_cluster(Clustering.singletons(2), 0.3)
    zero_b = OutcomeModel(slopes=np.ones(2), intercepts=np.zeros(2))
    with pytest.raises(ValueError):
        mse_zero_intercept_bound(g, d3, zero_b)


def test_bound_equality_with_identity_graph():
    g = identity_graph(3)
    d = DesignSpec.independent_cluster(Clustering.singletons(3), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, -2.0, 0.5]),
                         intercepts=np.zeros(3))
    assert mse_exact(g, d, model) == pytest.approx(0.0, abs=1e-15)
    assert mse_zero_intercept_bound(g, d, model) == pytest.approx(0.0,
                                                                  abs=1e-15)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_unbiased_over_random_instances(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, p)
    d = DesignSpec.independent_cluster(c, p)
    model = random_model(rng, g.n_outcome)
    tau = true_ate(model)
    expected = expected_estimate(g, d, model)
    assert expected == pytest.approx(tau, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_decomposition_matches_exact(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, p)
    d = DesignSpec.independent_cluster(c, p)
    model = random_model(rng, g.n_outcome)
    assert mse_decomposition(g, d, model) == pytest.approx(
        mse_exact(g, d, model), rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_zero_slope_closed_form_matches_exact(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, p)
    d = DesignSpec.independent_cluster(c, p)
    model = OutcomeModel(slopes=np.zeros(g.n_outcome),
                         intercepts=rng.normal(0, 1, g.n_outcome))
    assert mse_zero_slope(g, d, model) == pytest.approx(
        mse_exact(g, d, model), rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_zero_intercept_bound_holds(seed):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, 0.5)
    d = DesignSpec.independent_cluster(c, 0.5)
    model = OutcomeModel(slopes=rng.normal(0, 1, g.n_outcome),
                         intercepts=np.zeros(g.n_outcome))
    assert mse_zero_intercept_bound(g, d, model) >= \
        mse_exact(g, d, model) - 1e-12


def test_bernoulli_design_reduces_to_unit_coins():
    rng = np.random.default_rng(11)
    g = random_instance(rng)
    model = random_model(rng, g.n_outcome)
    db = DesignSpec.bernoulli(0.5)
    ds = DesignSpec.independent_cluster(
        Clustering.singletons(g.n_diversion), 0.5)
    assert mse_exact(g, db, model) == pytest.approx(mse_exact(g, ds, model))
    mb = exposure_moments(g, db)
    ms = exposure_moments(g, ds)
    np.testing.assert_allclose(mb.variance, ms.variance)
