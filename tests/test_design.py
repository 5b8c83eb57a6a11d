import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         cluster_aggregated_weights, derived_rng,
                         exposure_moments, read_clustering, sample_assignment,
                         write_clustering, write_moments_csv)
from bipx.graph_core import BipartiteGraph
from bipx.oracle import EnumerationTooLargeError, ExactMoments
from bipx.synth import nondegenerate_clustering, random_clustering, \
    random_instance


def small_graph():
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    return BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))


def exposure_covariance(g, d):
    """Cov[x_i, x_j] = 4p(1-p) sum_C agg[i, C] agg[j, C], as a dense matrix."""
    caw = cluster_aggregated_weights(g, d.effective_clustering(g.n_diversion))
    return d.coin_variance * (caw.agg @ caw.agg.T).toarray()


def test_clustering_from_labels_densifies_first_appearance():
    c = Clustering.from_labels(np.array([7, 7, 3, 7, 3, 9]))
    np.testing.assert_array_equal(c.assignment, [0, 0, 1, 0, 1, 2])
    np.testing.assert_array_equal(c.sizes, [3, 2, 1])
    assert c.m == 6
    assert c.k == 3


def test_clustering_constructors():
    s = Clustering.singletons(4)
    np.testing.assert_array_equal(s.assignment, [0, 1, 2, 3])
    o = Clustering.one_cluster(4)
    np.testing.assert_array_equal(o.assignment, [0, 0, 0, 0])
    assert o.k == 1


def test_clustering_rejects_non_dense():
    with pytest.raises(ValueError):
        Clustering(assignment=np.array([0, 2]), sizes=np.array([1, 0, 1]))


def test_clustering_file_round_trip(tmp_path):
    g = small_graph()
    c = Clustering.from_labels(np.array([1, 0]))
    path = tmp_path / "c.tsv"
    write_clustering(c, g, path)
    c2 = read_clustering(g, path)
    np.testing.assert_array_equal(c2.assignment, c.assignment)


def test_read_clustering_errors(tmp_path):
    g = small_graph()
    path = tmp_path / "c.tsv"
    path.write_text("u\t0\n")
    with pytest.raises(ValueError, match="missing"):
        read_clustering(g, path)
    path.write_text("u\t0\nv\t0\nu\t1\n")
    with pytest.raises(ValueError, match="duplicate"):
        read_clustering(g, path)
    path.write_text("u\t0\nv\t0\nw\t0\n")
    with pytest.raises(ValueError, match="unknown"):
        read_clustering(g, path)


def test_design_spec_validation():
    with pytest.raises(ValueError):
        DesignSpec.bernoulli(0.0)
    with pytest.raises(ValueError):
        DesignSpec.bernoulli(1.0)
    with pytest.raises(ValueError):
        DesignSpec(kind="bernoulli", p=0.5,
                   clustering=Clustering.singletons(2))
    d = DesignSpec.independent_cluster(Clustering.one_cluster(3), 0.3)
    assert d.coin_variance == pytest.approx(4 * 0.3 * 0.7)
    assert d.effective_clustering(3).k == 1
    b = DesignSpec.bernoulli(0.5)
    assert b.effective_clustering(3).k == 3


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_sample_assignment_respects_clustering(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    m = g.n_diversion
    c = random_clustering(rng, m)
    d = DesignSpec.independent_cluster(c, p)
    z = sample_assignment(d, derived_rng(seed, 0))
    assert set(np.unique(z)) <= {-1.0, 1.0}
    for cid in range(c.k):
        vals = z[c.assignment == cid]
        assert np.all(vals == vals[0])


def test_sample_assignment_bernoulli_needs_m():
    d = DesignSpec.bernoulli(0.5)
    with pytest.raises(ValueError):
        sample_assignment(d, derived_rng(0, 0))
    z = sample_assignment(d, derived_rng(0, 0), m=5)
    assert z.shape == (5,)


def test_sample_assignment_probability():
    d = DesignSpec.bernoulli(0.3)
    rng = derived_rng(42, 0)
    draws = np.stack([sample_assignment(d, rng, m=100) for _ in range(500)])
    assert np.mean(draws == 1.0) == pytest.approx(0.3, abs=0.02)


def test_exposure_moments_worked_example():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    mom = exposure_moments(g, d)
    np.testing.assert_allclose(mom.mean, [0.0, 0.0])
    np.testing.assert_allclose(mom.variance, [0.5, 1.0])
    assert exposure_covariance(g, d)[0, 1] == pytest.approx(0.5)
    one = DesignSpec.independent_cluster(Clustering.one_cluster(2), 0.5)
    np.testing.assert_allclose(exposure_moments(g, one).variance, [1.0, 1.0])


def test_exposure_moments_p_scaling():
    g = small_graph()
    c = Clustering.singletons(2)
    v5 = exposure_moments(g, DesignSpec.independent_cluster(c, 0.5)).variance
    v3 = exposure_moments(g, DesignSpec.independent_cluster(c, 0.3)).variance
    ratio = 4 * 0.3 * 0.7 / 1.0
    np.testing.assert_allclose(v3, ratio * v5)
    mean3 = exposure_moments(g, DesignSpec.independent_cluster(c, 0.3)).mean
    np.testing.assert_allclose(mean3, (2 * 0.3 - 1) * g.row_sums)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_moments_match_enumeration(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = random_clustering(rng, g.n_diversion)
    d = DesignSpec.independent_cluster(c, p)
    mom = exposure_moments(g, d, check=False)
    exact = ExactMoments(g, d)
    np.testing.assert_allclose(mom.mean, exact.mean(), atol=1e-12)
    np.testing.assert_allclose(mom.variance, exact.variance(), atol=1e-12)
    np.testing.assert_allclose(exposure_covariance(g, d), exact.covariance(),
                               rtol=0, atol=1e-12)


def test_degenerate_design_detected():
    g = small_graph()
    # p so extreme the coin variance drops below the floor
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 1e-12)
    with pytest.raises(DegenerateDesignError) as exc:
        exposure_moments(g, d)
    assert exc.value.units == [0, 1]
    mom = exposure_moments(g, d, check=False)
    assert len(mom.degenerate_units()) == 2


def test_cluster_aggregated_weights():
    g = small_graph()
    caw = cluster_aggregated_weights(g, Clustering.one_cluster(2))
    np.testing.assert_allclose(caw.agg.toarray(), [[1.0], [1.0]])
    np.testing.assert_allclose(caw.cluster_col_sums, [2.0])


def test_enumeration_too_large():
    rng = np.random.default_rng(0)
    m = 25
    W = sp.csr_matrix(np.full((2, m), 1.0 / m))
    g = BipartiteGraph.from_csr(W, ("a", "b"),
                                tuple(f"d{j}" for j in range(m)))
    d = DesignSpec.independent_cluster(Clustering.singletons(m), 0.5)
    with pytest.raises(EnumerationTooLargeError):
        ExactMoments(g, d)


def test_exact_moments_squared_pair():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    exact = ExactMoments(g, d)
    m2 = exact.squared_pair_moment()
    # x0 in {0, +-1} with P(0)=1/2; x1 = +-1 always
    assert m2[0, 1] == pytest.approx(0.5)
    assert m2[0, 0] == pytest.approx(exact.expect(lambda x: x[0] ** 4))
    # generic functional evaluation agrees with the weighted sum
    assert exact.expect(lambda x: x[0]) == pytest.approx(0.0, abs=1e-15)


def test_derived_rng_order_independent():
    a = derived_rng(7, 3).random(4)
    b = derived_rng(7, 3).random(4)
    np.testing.assert_array_equal(a, b)
    c = derived_rng(7, 4).random(4)
    assert not np.array_equal(a, c)


def test_write_moments_csv(tmp_path):
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    mom = exposure_moments(g, d)
    path = tmp_path / "m.csv"
    write_moments_csv(mom, g, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "outcome_id,mean,variance"
    assert lines[1] == "a,0.0,0.5"
    assert lines[2] == "b,0.0,1.0"


def test_nondegenerate_clustering_helper():
    rng = np.random.default_rng(3)
    g = random_instance(rng)
    c = nondegenerate_clustering(g, rng)
    mom = exposure_moments(g, DesignSpec.independent_cluster(c, 0.5))
    assert np.all(mom.variance >= 1e-10)
