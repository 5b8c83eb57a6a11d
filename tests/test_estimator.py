import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx import estimator
from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         ExposureMoments, exposure_moments)
from bipx.estimator import (OutcomeModel, erl_estimate, mse, respond,
                            true_ate)
from bipx.graph_core import BipartiteGraph, exposures
from bipx.oracle import (estimate_distribution, expected_estimate,
                         mse_decomposition, mse_exact)
from instances import (identity_graph, nondegenerate_clustering,
                       random_instance, random_model, small_graph)


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


@pytest.mark.parametrize("rows,n", [(1, 7), (3, 200), (2, 20_000)])
def test_erl_rows_has_erl_estimates_bits(rows, n):
    rng = np.random.default_rng(n)
    model = random_model(rng, n)
    mom = ExposureMoments(rng.normal(size=n), rng.random(n) + 0.01)
    x = rng.normal(size=(rows, n))
    want = erl_estimate(respond(model, x), x, mom)
    got = np.empty(rows)
    estimator.erl_rows(model, x.copy(), mom, np.empty_like(x), out=got)
    assert got.tobytes() == want.tobytes()


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
    assert mse(g, d, model) == pytest.approx(5.0)
    assert mse_decomposition(g, d, model) == pytest.approx(5.0)


def test_benchmark_oracle_agrees_with_mse_exact():
    # The benchmark's correctness check calls estimator.mse_exact by name
    # from bench/oracle.py; a change to that name must fail here first.
    path = Path(__file__).resolve().parents[1] / "bench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    bench_oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_oracle)
    assert bench_oracle.check_mse_form(0) <= 1e-9


def test_bound_worked_value_zero_intercept():
    # tau_hat - tau = 2 x_0^2 - 1 = +/-1 on every coin pattern.
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.zeros(2))
    assert mse(g, d, model) == pytest.approx(1.0)
    assert mse_exact(g, d, model) == pytest.approx(1.0)


def test_bound_equality_with_identity_graph():
    g = identity_graph(3)
    d = DesignSpec.independent_cluster(Clustering.singletons(3), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, -2.0, 0.5]),
                         intercepts=np.zeros(3))
    assert mse_exact(g, d, model) == pytest.approx(0.0, abs=1e-15)
    assert mse(g, d, model) == pytest.approx(0.0, abs=1e-15)


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


def with_edgeless_units(g, extra):
    """g with `extra` more diversion units, none of them on an edge."""
    w = g.rows
    wide = sp.csr_matrix((w.data, w.indices, w.indptr),
                         shape=(g.n_outcome, g.n_diversion + extra))
    return BipartiteGraph.from_csr(
        wide, g.outcome_ids,
        g.diversion_ids + tuple(f"e{j}" for j in range(extra)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.1, 0.3, 0.5, 0.77]),
       bernoulli=st.booleans(), edgeless=st.booleans())
def test_mse_matches_exact_over_random_instances(seed, p, bernoulli,
                                                 edgeless):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, p)
    if edgeless:
        # The first extra unit gets a cluster of its own, whose row of
        # A^T diag(u) is empty; the others join clusters at random.
        g = with_edgeless_units(g, 3)
        c = Clustering.from_labels(np.r_[c.assignment, c.k,
                                         rng.integers(0, c.k + 1, 2)])
    d = (DesignSpec.bernoulli(p) if bernoulli
         else DesignSpec.independent_cluster(c, p))
    model = random_model(rng, g.n_outcome)
    value = mse(g, d, model)
    assert value == pytest.approx(mse_exact(g, d, model), rel=1e-9, abs=1e-12)
    # A bound of one product puts every nonempty row of A^T diag(u) in a
    # block of its own, so each seam between blocks is crossed.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_FROBENIUS_PRODUCTS", 1)
        assert mse(g, d, model) == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_mse_peak_is_bounded_on_an_outcome_hub():
    # Unit 0 reaches all 4096 diversion units, so every row of the
    # Bernoulli A^T diag(u) A is full: 4096^2 entries, about 200 MB as one
    # product. Row blocks of a bounded number of products keep the peak
    # to a few such blocks.
    n, m = 513, 4096
    rows = np.r_[np.zeros(m, dtype=np.int64), 1 + np.arange(m) // 8]
    w = sp.csr_matrix((np.ones(2 * m), (rows, np.r_[np.arange(m),
                                                     np.arange(m)])),
                      shape=(n, m))
    g = BipartiteGraph.from_csr(w, tuple(f"o{i}" for i in range(n)),
                                tuple(f"d{j}" for j in range(m)))
    d = DesignSpec.bernoulli(0.5)
    model = random_model(np.random.default_rng(0), n)
    exposure_moments(g, d)  # Built first: the pin is on mse's own peak.
    tracemalloc.start()
    try:
        mse(g, d, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_zero_slope_closed_form_matches_exact(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, p)
    d = DesignSpec.independent_cluster(c, p)
    model = OutcomeModel(slopes=np.zeros(g.n_outcome),
                         intercepts=rng.normal(0, 1, g.n_outcome))
    assert mse(g, d, model) == pytest.approx(
        mse_exact(g, d, model), rel=1e-9, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6))
def test_zero_intercept_bound_holds(seed):
    # The closed form is exact here, so the old upper bound is an equality.
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng, 0.5)
    d = DesignSpec.independent_cluster(c, 0.5)
    model = OutcomeModel(slopes=rng.normal(0, 1, g.n_outcome),
                         intercepts=np.zeros(g.n_outcome))
    assert mse(g, d, model) == pytest.approx(
        mse_exact(g, d, model), rel=1e-9, abs=1e-12)


def test_mse_refuses_degenerate_design_and_wrong_model():
    g = small_graph()
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.ones(2))
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 1e-12)
    with pytest.raises(DegenerateDesignError):
        mse(g, d, model)
    short = OutcomeModel(slopes=np.ones(3), intercepts=np.ones(3))
    with pytest.raises(ValueError):
        mse(g, DesignSpec.bernoulli(0.5), short)


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
