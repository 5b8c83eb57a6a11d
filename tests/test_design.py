import gc
import pickle
import re
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx import design, estimator, simulate
from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         cluster_aggregated_weights, coin_signs,
                         derived_rng, design_aggregates, exposure_moments,
                         read_clustering, replicate_coins, sample_assignment,
                         write_clustering, write_moments_csv)
from bipx.graph_core import BipartiteGraph, first_appearance_codes, scipy_csr
from bipx.oracle import EnumerationTooLargeError, ExactMoments
from instances import (nondegenerate_clustering, random_clustering,
                       random_instance, random_model, small_graph)


def exposure_covariance(g, d):
    """Cov[x_i, x_j] = 4p(1-p) sum_C agg[i, C] agg[j, C], as a dense matrix."""
    agg = scipy_csr(cluster_aggregated_weights(
        g, d.effective_clustering(g.n_diversion)))
    return d.coin_variance * (agg @ agg.T).toarray()


def test_clustering_from_labels_densifies_first_appearance():
    c = Clustering.from_labels(np.array([7, 7, 3, 7, 3, 9]))
    np.testing.assert_array_equal(c.assignment, [0, 0, 1, 0, 1, 2])
    np.testing.assert_array_equal(c.sizes, [3, 2, 1])
    assert c.m == 6
    assert c.k == 3


@pytest.mark.parametrize("seed", range(20))
def test_clustering_from_labels_matches_the_mergesort_densifier(seed):
    """The reversed-scatter first positions give the assignment and sizes
    that np.unique(return_index=True) and a stable argsort give."""
    rng = np.random.default_rng(seed)
    extremes = np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max,
                         -1, 0, 1])
    pool = np.concatenate([rng.integers(-50, 50, size=8), extremes])
    labels = rng.choice(pool, size=int(rng.integers(1, 200)))
    uniq, first_pos, dense = np.unique(labels, return_index=True,
                                       return_inverse=True)
    rank = np.empty(uniq.size, dtype=np.int64)
    rank[np.argsort(first_pos, kind="stable")] = np.arange(uniq.size)
    c = Clustering.from_labels(labels)
    np.testing.assert_array_equal(c.assignment, rank[dense])
    np.testing.assert_array_equal(c.sizes, np.bincount(rank[dense]))
    assert c.assignment.dtype == c.sizes.dtype == np.int64


@pytest.mark.parametrize("seed", range(20))
def test_canonical_labels_skip_the_densifier(seed, monkeypatch):
    """Labels that are first-appearance codes already are copied, and only
    those: every other array goes through first_appearance_codes. Both
    give the codes first_appearance_codes gives."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 300))
    codes = first_appearance_codes(
        rng.integers(0, int(rng.integers(1, m + 1)), m))[0]
    at = int(rng.integers(0, m))
    cases = [codes, codes + 1, np.append(codes, -1),
             np.zeros(m, dtype=np.int64), np.arange(m), np.arange(m)[::-1],
             rng.integers(-2, 4, m)]
    for bump in (-1, 2, codes.max() + 2):
        changed = codes.copy()
        changed[at] += bump
        cases.append(changed)
    real = design.first_appearance_codes
    calls = []
    monkeypatch.setattr(design, "first_appearance_codes",
                        lambda v: calls.append(v) or real(v))
    for labels in cases:
        want = real(labels)[0]
        calls.clear()
        got = Clustering.from_labels(labels).assignment
        np.testing.assert_array_equal(got, want)
        assert bool(calls) is not np.array_equal(want, labels)
        assert got.dtype == np.int64
        assert not np.shares_memory(got, labels)


def test_clustering_constructors():
    s = Clustering.singletons(4)
    np.testing.assert_array_equal(s.assignment, [0, 1, 2, 3])
    o = Clustering.one_cluster(4)
    np.testing.assert_array_equal(o.assignment, [0, 0, 0, 0])
    assert o.k == 1


def test_clustering_rejects_non_dense():
    with pytest.raises(ValueError, match="dense"):
        Clustering(assignment=np.array([0, 2]))


def test_clustering_sizes_derive_from_assignment():
    a = np.array([0, 0, 1, 2, 1, 0])
    np.testing.assert_array_equal(Clustering(a).sizes, np.bincount(a))


def test_clustering_rejects_negative_id():
    with pytest.raises(ValueError, match=">= 0"):
        Clustering(np.array([0, -1, 1]))


def test_clustering_file_round_trip(tmp_path):
    g = small_graph()
    c = Clustering.from_labels(np.array([1, 0]))
    path = tmp_path / "c.tsv"
    write_clustering(c, g, path)
    c2 = read_clustering(g, path)
    np.testing.assert_array_equal(c2.assignment, c.assignment)


def test_write_clustering_bytes(tmp_path):
    path = tmp_path / "c.tsv"
    write_clustering(Clustering(np.array([1, 0])), small_graph(), path)
    assert path.read_bytes() == b"u\t1\nv\t0\n"


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
    # -1 is a cluster id like any other.
    path.write_text("u\t-1\nv\t-1\n")
    assert read_clustering(g, path).k == 1
    path.write_text("u\t-1\nu\t0\nv\t0\n")
    with pytest.raises(ValueError, match="c.tsv:2: duplicate"):
        read_clustering(g, path)
    path.write_text("u\t0\nv\t99999999999999999999\n")
    with pytest.raises(ValueError, match="c.tsv:2: cluster id"):
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
    agg = cluster_aggregated_weights(g, Clustering.one_cluster(2))
    np.testing.assert_allclose(scipy_csr(agg).toarray(), [[1.0], [1.0]])


def test_enumeration_too_large():
    rng = np.random.default_rng(0)
    m = 25
    W = sp.csr_matrix(np.full((2, m), 1.0 / m))
    g = BipartiteGraph.from_csr(W, ("a", "b"),
                                tuple(f"d{j}" for j in range(m)))
    d = DesignSpec.independent_cluster(Clustering.singletons(m), 0.5)
    with pytest.raises(EnumerationTooLargeError):
        ExactMoments(g, d)


def test_exact_moments_expect():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    exact = ExactMoments(g, d)
    # x0 in {0, +-1} with P(0)=1/2; x1 = +-1 always
    assert exact.expect(lambda x: x[0] ** 2 * x[1] ** 2) == pytest.approx(0.5)
    assert exact.expect(lambda x: x[0] ** 4) == pytest.approx(0.5)
    # generic functional evaluation agrees with the weighted sum
    assert exact.expect(lambda x: x[0]) == pytest.approx(0.0, abs=1e-15)


def test_derived_rng_refuses_bad_seeds_and_replicates():
    for base_seed in (-1, 1.5, None):
        with pytest.raises(Exception) as numpy_error:
            np.random.SeedSequence([base_seed])
        with pytest.raises(type(numpy_error.value),
                           match=re.escape(str(numpy_error.value))):
            derived_rng(base_seed, 0)
    # PCG64.advance takes these, and they would land on the positions of
    # replicates 2^64 - 1, 0 and 0.
    for replicate in (-1, 1 << 64, 1 << 128):
        with pytest.raises(ValueError, match="replicate must be in"):
            derived_rng(0, replicate)
    derived_rng(0, (1 << 64) - 1)


@pytest.mark.parametrize("first", [0, 2**32 - 2, 2**64 - 3])
def test_replicate_coins_rows_are_derived_rng_draws(first):
    rng = derived_rng(11, first)
    out = np.empty((3, 7))
    replicate_coins(rng, out)
    for r, row in enumerate(out, start=first):
        assert row.tobytes() == derived_rng(11, r).random(7).tobytes()
    # rng is left at the next replicate; after the last, the stream wraps
    # to replicate 0.
    assert rng.bit_generator.state == \
        derived_rng(11, (first + 3) % 2**64).bit_generator.state


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_coin_signs_take_plus_one_strictly_below_p(p):
    coins = np.array([p, np.nextafter(p, 0.0), 0.0, np.nextafter(1.0, 0.0)])
    expected = np.array([-1.0, 1.0, 1.0, -1.0])
    out = np.empty(4)
    assert coin_signs(coins, p, out=out) is out
    np.testing.assert_array_equal(out, expected)
    # In place, as sample_assignment converts its coins.
    np.testing.assert_array_equal(coin_signs(coins, p, out=coins), expected)


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


def memo_instance(seed=0, n=30, m=60):
    """A graph whose rows each reach 4 of m diversion units, a cluster
    design on it and an outcome model."""
    rng = np.random.default_rng(seed)
    rows = np.repeat(np.arange(n), 4)
    cols = (rows * 7 + np.tile(np.arange(4), n) * 11) % m
    W = sp.csr_matrix((rng.uniform(0.1, 1.0, rows.size), (rows, cols)),
                      shape=(n, m))
    g = BipartiteGraph.from_csr(W, tuple(f"o{i}" for i in range(n)),
                                tuple(f"d{j}" for j in range(m)))
    c = Clustering.from_labels(rng.integers(0, 12, m))
    return g, c, random_model(rng, n)


@pytest.fixture
def builds(monkeypatch):
    """Counts the calls of cluster_aggregated_weights."""
    calls = []

    def counted(g, c):
        calls.append(g)
        return cluster_aggregated_weights(g, c)

    monkeypatch.setattr(design, "cluster_aggregated_weights", counted)
    return calls


def test_moments_simulation_and_exact_mse_share_one_build(builds):
    g, c, model = memo_instance()
    d = DesignSpec.independent_cluster(c, 0.4)
    exposure_moments(g, d)
    simulate.run_simulation(g, d, model, 20, base_seed=1)
    estimator.mse(g, d, model)
    assert len(builds) == 1


def test_another_graph_object_gets_its_own_build(builds):
    g, c, model = memo_instance(0)
    other = memo_instance(1)[0]
    assert other.csr.shape == g.csr.shape
    d = DesignSpec.independent_cluster(c, 0.5)
    mom, mom_other = exposure_moments(g, d), exposure_moments(other, d)
    assert builds == [g, other]
    assert not np.array_equal(mom.variance, mom_other.variance)
    for graph, got in ((g, mom), (other, mom_other)):
        fresh = exposure_moments(graph, DesignSpec.independent_cluster(c, 0.5))
        np.testing.assert_array_equal(got.variance, fresh.variance)
        np.testing.assert_array_equal(got.mean, fresh.mean)


def test_memoized_design_gives_the_bits_of_a_fresh_one():
    g, c, model = memo_instance()
    d = DesignSpec.independent_cluster(c, 0.3)
    exposure_moments(g, d)
    twice = [simulate.run_simulation(g, d, model, 40, base_seed=7).estimates
             for _ in range(2)]
    fresh = simulate.run_simulation(
        g, DesignSpec.independent_cluster(c, 0.3), model, 40,
        base_seed=7).estimates
    assert twice[0].tobytes() == twice[1].tobytes() == fresh.tobytes()
    assert estimator.mse(g, d, model) == estimator.mse(
        g, DesignSpec.independent_cluster(c, 0.3), model)


def test_degenerate_design_raises_on_every_call(monkeypatch):
    g, c, model = memo_instance()
    draws = []
    monkeypatch.setattr(simulate, "derived_rng",
                        lambda *seeds: draws.append(seeds))
    d = DesignSpec.independent_cluster(c, 1e-12)
    for _ in range(2):
        with pytest.raises(DegenerateDesignError):
            simulate.run_simulation(g, d, model, 5, base_seed=0)
        with pytest.raises(DegenerateDesignError):
            exposure_moments(g, d)
        with pytest.raises(DegenerateDesignError):
            estimator.mse(g, d, model)
    assert draws == []
    assert exposure_moments(g, d, check=False).degenerate_units().size == 30


def test_memo_does_not_keep_the_graph_alive(builds):
    g, c, _ = memo_instance()
    d = DesignSpec.independent_cluster(c, 0.5)
    exposure_moments(g, d)
    alive = weakref.ref(g)
    del g, builds[:]
    gc.collect()
    assert alive() is None
    g = memo_instance()[0]
    exposure_moments(g, d)
    assert builds == [g]


def test_memoized_arrays_are_read_only():
    g, c, _ = memo_instance()
    agg, mom = design_aggregates(g, DesignSpec.independent_cluster(c, 0.5))
    for a in (agg.indptr, agg.indices, agg.data, mom.mean, mom.variance):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1


def test_design_pickles_without_its_memo(builds):
    g, c, _ = memo_instance()
    d = DesignSpec.independent_cluster(c, 0.5)
    exposure_moments(g, d)
    copy = pickle.loads(pickle.dumps(d))
    assert (copy.kind, copy.p, copy._built) == (d.kind, d.p, None)
    np.testing.assert_array_equal(copy.clustering.assignment, c.assignment)
    exposure_moments(g, copy)
    assert len(builds) == 2
