import csv
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx import cluster_opt
from bipx.cluster_opt import (ACCEPT_EPS, LocalSearchConfig, _draw,
                              _draw_many, _slice_cumsum,
                              balanced_partition_baseline,
                              exposure_spread_objective, local_search,
                              local_search_restarts, move_delta, objective,
                              spread_identity_constant, wedge_sample,
                              write_trace_csv)
from bipx.design import Clustering, DesignSpec
from bipx.graph_core import BipartiteGraph, normalize_rows
from bipx.oracle import (corr_clust_cs_rewrite, exposure_spread_enumerated,
                         objective_by_moments, objective_by_omega,
                         omega_matrix)
from bipx.synth import (paired_pool_instance, partitions_equal,
                        planted_four_block, random_clustering, random_instance)


def small_graph():
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    return BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))


def test_objective_worked_values():
    g = small_graph()
    singles = Clustering.singletons(2)
    merged = Clustering.one_cluster(2)
    obj_s = objective(g, singles, 1.0)
    assert obj_s.variance_sum == pytest.approx(1.5)
    assert obj_s.covariance_sum == pytest.approx(1.0)
    assert obj_s.total == pytest.approx(0.5)
    assert objective(g, merged, 1.0).total == pytest.approx(0.0)


@settings(deadline=None, max_examples=50)
@given(seed=st.integers(0, 10**6), phi=st.sampled_from([0.0, 0.3, 1.0, 2.5]),
       p=st.sampled_from([0.3, 0.5, 0.7]))
def test_objective_three_routes_agree(seed, phi, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = random_clustering(rng, g.n_diversion)
    a = objective(g, c, phi, p)
    b = objective_by_moments(g, c, phi, p)
    d = objective_by_omega(g, c, phi, p)
    assert a.variance_sum == pytest.approx(b.variance_sum, rel=1e-9, abs=1e-9)
    assert a.covariance_sum == pytest.approx(b.covariance_sum, rel=1e-9,
                                             abs=1e-9)
    assert a.total == pytest.approx(b.total, rel=1e-9, abs=1e-9)
    assert a.total == pytest.approx(d.total, rel=1e-9, abs=1e-9)
    assert a.variance_sum == pytest.approx(d.variance_sum, rel=1e-9, abs=1e-9)
    same = c.assignment[:, None] == c.assignment[None, :]
    cv = DesignSpec.independent_cluster(c, p).coin_variance
    assert cv * float(omega_matrix(g, phi)[same].sum()) == pytest.approx(
        a.total, rel=1e-9, abs=1e-9)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), p=st.sampled_from([0.3, 0.5, 0.7]))
def test_spread_identity(seed, p):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = random_clustering(rng, g.n_diversion)
    n = g.n_outcome
    spread_a = exposure_spread_objective(g, c, p)
    spread_e = exposure_spread_enumerated(g, c, p)
    assert spread_a == pytest.approx(spread_e, rel=1e-9, abs=1e-9)
    if n > 1:
        phi = 1.0 / (n - 1)
        lhs = spread_a
        rhs = ((n - 1) / n) * objective(g, c, phi, p).total \
            + spread_identity_constant(g, c, p)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
    # Normalized rows make every row sum 1, so the constant vanishes
    # at any p, not just p = 1/2.
    assert spread_identity_constant(g, c, p) == pytest.approx(0.0, abs=1e-12)


def test_cs_rewrite_worked_values():
    g = small_graph()
    cs = corr_clust_cs_rewrite(g, 1.0, Clustering.singletons(2))
    assert cs.in_weight == pytest.approx(0.5)
    assert cs.out_weight == pytest.approx(0.5)
    assert cs.constant == pytest.approx(-0.5)
    assert cs.corr_clust_total == pytest.approx(0.5)
    assert cs.cs_total == pytest.approx(1.0)


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), phi=st.sampled_from([0.0, 0.5, 1.0, 3.0]))
def test_cs_rewrite_identity(seed, phi):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    c = random_clustering(rng, g.n_diversion)
    cs = corr_clust_cs_rewrite(g, phi, c)
    assert cs.in_weight >= 0
    assert cs.out_weight >= 0
    assert cs.corr_clust_total - cs.constant == pytest.approx(
        cs.cs_total, rel=1e-10, abs=1e-10)
    om = omega_matrix(g, phi)
    same = c.assignment[:, None] == c.assignment[None, :]
    assert cs.corr_clust_total == pytest.approx(float(om[same].sum()),
                                                abs=1e-12)


def test_wedge_marginal_matches_coweight():
    g = small_graph()
    # Exact two-stage marginal: P(j) = sum_k (w[k,i]/s[i]) w[k,j].
    W = g.rows.toarray()
    s = g.col_sums
    i = 0
    marginal = (W[:, i] / s[i]) @ W
    coweight = (W.T @ W)[i] / s[i]
    np.testing.assert_allclose(marginal, coweight, atol=1e-15)
    rng = np.random.default_rng(123)
    draws = np.array([wedge_sample(g, i, rng) for _ in range(4000)])
    freq = np.bincount(draws, minlength=g.n_diversion) / draws.size
    assert 0.5 * np.abs(freq - coweight).sum() < 0.05


def test_wedge_sample_rejects_isolated_column():
    W = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    with pytest.raises(ValueError):
        wedge_sample(g, 1, np.random.default_rng(0))


@settings(deadline=None, max_examples=40)
@given(seed=st.integers(0, 10**6), phi=st.sampled_from([0.2, 1.0]))
def test_move_delta_matches_recompute(seed, phi):
    rng = np.random.default_rng(seed)
    g = random_instance(rng)
    m = g.n_diversion
    labels = np.arange(m)
    for _ in range(3 * m):
        i = int(rng.integers(m))
        # Any label in [0, m): a live cluster, i's own, or an unused one
        # that makes i a new singleton.
        target = int(rng.integers(m))
        before = objective(g, Clustering.from_labels(labels), phi).total
        delta = move_delta(g, labels, i, target, phi)
        labels[i] = target
        after = objective(g, Clustering.from_labels(labels), phi).total
        assert after - before == pytest.approx(delta, rel=1e-9, abs=1e-10)


def test_move_delta_own_cluster_is_zero():
    g = small_graph()
    assert move_delta(g, np.arange(2), 0, 0, 1.0) == 0.0


def _naive_search(g, phi, k_max, seed, passes):
    """The search by definition: same draws as local_search, and a move is
    accepted when the whole-clustering objective rises by more than
    ACCEPT_EPS and the target cluster is below k_max."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m = g.n_diversion
    cap = m if k_max is None else k_max
    labels = np.arange(m)
    for _ in range(passes):
        for i in rng.permutation(m):
            b = labels[wedge_sample(g, i, rng)]
            if b == labels[i] or np.sum(labels == b) >= cap:
                continue
            moved = labels.copy()
            moved[i] = b
            before = objective_by_omega(g, Clustering.from_labels(labels), phi)
            after = objective_by_omega(g, Clustering.from_labels(moved), phi)
            if after.total - before.total > ACCEPT_EPS:
                labels = moved
    return Clustering.from_labels(labels).assignment


def test_local_search_matches_naive_search(monkeypatch):
    rng = np.random.default_rng(31)
    # The small paired-pool graph adds moves whose gain is exactly zero at
    # phi = 1, which a strict search must reject.
    graphs = [random_instance(rng) for _ in range(30)]
    graphs.append(paired_pool_instance(n_pairs=3, spokes=2, pool=2)[0])
    # Block size 1 scores every visit against the live state; 3 crosses
    # block boundaries on these m <= 12 graphs; the default holds a whole
    # pass, so later visits of a block are often scored again.
    blocks = (1, 3, cluster_opt._BLOCK)
    stale = dict.fromkeys(blocks, 0)
    for t, g in enumerate(graphs):
        for phi in (0.0, 0.3, 1.0):
            for k_max in (None, 2):
                cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=4,
                                        convergence=False, seed=t)
                naive = _naive_search(g, phi, k_max, t, 4)
                for block in blocks:
                    monkeypatch.setattr(cluster_opt, "_BLOCK", block)
                    result = local_search(g, cfg)
                    np.testing.assert_array_equal(
                        result.clustering.assignment, naive)
                    stale[block] += sum(row.stale_recomputes
                                        for row in result.trace)
    assert stale[1] == 0
    assert stale[3] > 0 and stale[blocks[-1]] > stale[3]


def test_local_search_cap_binds_inside_block(monkeypatch):
    # n = 20, m = 200; phi = 1/(n - 1) merges past the cap of 5.
    g = paired_pool_instance(n_pairs=10, spokes=5, pool=10)[0]
    cfg = LocalSearchConfig(phi=1.0 / 19.0, k_max=5, max_passes=20,
                            convergence=False, seed=3)
    blocked = local_search(g, cfg)
    uncapped = local_search(g, replace(cfg, k_max=None))
    monkeypatch.setattr(cluster_opt, "_BLOCK", 1)
    serial = local_search(g, cfg)
    sizes = np.bincount(blocked.clustering.assignment)
    assert sizes.max() == 5
    # The cap changed decisions, and a pass is 4 blocks of 64 visits, so
    # clusters filled up and refused moves within a block.
    assert not partitions_equal(blocked.clustering, uncapped.clustering)
    assert sum(row.stale_recomputes for row in blocked.trace) > 0
    np.testing.assert_array_equal(blocked.clustering.assignment,
                                  serial.clustering.assignment)
    assert [row.moves_accepted for row in blocked.trace] == \
        [row.moves_accepted for row in serial.trace]


class _FixedDouble:
    """Stands in for a generator whose next double is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


def _tied_skewed_graph():
    # A hub column on every row, a hub row on every column, and stored
    # zero weights, which repeat a value of the cumulative sums.
    rng = np.random.default_rng(4)
    n, m = 30, 40
    dense = np.where(rng.random((n, m)) < 0.15, rng.random((n, m)), 0.0)
    dense[:, 0] = 1.0
    dense[0, :] = 0.5
    rows, cols = np.nonzero(dense)
    data = dense[rows, cols]
    data[rng.random(data.size) < 0.2] = 0.0
    data[0] = data[1] = 0.0  # the hub row's first entries tie at zero
    W = sp.csr_matrix((data, (rows, cols)), shape=(n, m))
    g = normalize_rows(BipartiteGraph.from_csr(
        W, tuple(range(n)), tuple(range(m))))
    assert (g.cols.data == 0.0).any() and (g.rows.data == 0.0).any()
    return g


def test_pass_draws_match_per_visit_draws():
    g = _tied_skewed_graph()
    csc, csr = g.cols, g.rows
    col_cum = _slice_cumsum(csc.indptr, csc.data)
    row_cum = _slice_cumsum(csr.indptr, csr.data)
    for indptr, data, cum in ((csc.indptr, csc.data, col_cum),
                              (csr.indptr, csr.data, row_cum)):
        for lo, hi in zip(indptr[:-1], indptr[1:]):
            np.testing.assert_array_equal(cum[lo:hi], np.cumsum(data[lo:hi]))
    m = g.n_diversion
    for seed in range(20):
        rng = np.random.default_rng(seed)
        perm = rng.permutation(m)
        u = rng.random(2 * m)
        ks = _draw_many(csc.indptr, csc.indices, col_cum, perm, u[0::2])
        js = _draw_many(csr.indptr, csr.indices, row_cum, ks, u[1::2])
        rng = np.random.default_rng(seed)
        for t, i in enumerate(rng.permutation(m)):
            k = _draw(csc.indptr, csc.indices, csc.data, i, rng)
            assert k == ks[t]
            assert _draw(csr.indptr, csr.indices, csr.data, k, rng) == js[t]
    # Doubles that land on the cumulative sums themselves, zero and the
    # largest double below 1: ties and both ends of every slice.
    for indptr, indices, data, cum in (
            (csc.indptr, csc.indices, csc.data, col_cum),
            (csr.indptr, csr.indices, csr.data, row_cum)):
        for s in range(indptr.size - 1):
            lo, hi = indptr[s], indptr[s + 1]
            us = [0.0, np.nextafter(1.0, 0.0)]
            if cum[hi - 1] > 0:  # else every weight of the slice is zero
                us.extend(cum[lo:hi] / cum[hi - 1])
            us = np.array(us)
            got = _draw_many(indptr, indices, cum, np.full(us.size, s), us)
            want = [_draw(indptr, indices, data, s, _FixedDouble(x))
                    for x in us]
            np.testing.assert_array_equal(got, want)


def test_local_search_keeps_edgeless_unit_single():
    # Column w has no edges: it is its own partner, so it stays alone.
    W = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    g = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v", "w"))
    with pytest.raises(ValueError):
        wedge_sample(g, 2, np.random.default_rng(0))
    for seed in range(5):
        cfg = LocalSearchConfig(phi=0.0, max_passes=5, convergence=False,
                                seed=seed)
        labels = local_search(g, cfg).clustering.assignment
        assert labels[0] == labels[1]
        assert np.sum(labels == labels[2]) == 1


def test_config_validation():
    with pytest.raises(ValueError):
        LocalSearchConfig(convergence=False)
    with pytest.raises(ValueError):
        LocalSearchConfig(phi=-0.5)
    with pytest.raises(ValueError):
        LocalSearchConfig(k_max=0)
    with pytest.raises(ValueError):
        LocalSearchConfig(p=0.0)
    cfg = LocalSearchConfig(convergence=False, max_passes=4)
    assert cfg.max_passes == 4


def test_local_search_trace_and_caps():
    rng = np.random.default_rng(5)
    g = random_instance(rng, n_max=8, m_max=16)
    for seed in (0, 1, 2):
        for phi, k_max in ((1.0, None), (0.3, 2), (0.0, 3)):
            cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=12,
                                    seed=seed)
            result = local_search(g, cfg)
            totals = [row.objective_total for row in result.trace]
            for earlier, later in zip(totals, totals[1:]):
                assert later >= earlier - 1e-9
            sizes = np.bincount(result.clustering.assignment)
            if k_max is not None:
                assert sizes.max() <= k_max
            assert result.objective.total == pytest.approx(totals[-1])


def test_local_search_deterministic():
    rng = np.random.default_rng(9)
    g = random_instance(rng, n_max=8, m_max=16)
    cfg = LocalSearchConfig(phi=1.0, max_passes=10, seed=42)
    r1 = local_search(g, cfg)
    r2 = local_search(g, cfg)
    np.testing.assert_array_equal(r1.clustering.assignment,
                                  r2.clustering.assignment)
    assert r1.objective.total == r2.objective.total


def test_local_search_converged_flag():
    g = small_graph()
    cfg = LocalSearchConfig(phi=1.0, convergence=True, max_passes=50, seed=0)
    result = local_search(g, cfg)
    assert result.converged
    assert result.trace[-1].moves_accepted == 0


def test_local_search_improves_over_singletons():
    g, planted = planted_four_block()
    singles = objective(g, Clustering.singletons(g.n_diversion), 1.0).total
    cfg = LocalSearchConfig(phi=1.0, convergence=False, max_passes=30,
                            seed=0)
    result = local_search(g, cfg)
    assert result.objective.total > singles


def test_local_search_recovers_planted_blocks():
    g, planted = planted_four_block()
    hits = 0
    for seed in (0, 1, 2):
        cfg = LocalSearchConfig(phi=1.0, convergence=False, max_passes=30,
                                seed=seed)
        result = local_search(g, cfg)
        if partitions_equal(result.clustering, planted):
            hits += 1
    assert hits == 3


def test_restarts_pick_best():
    rng = np.random.default_rng(13)
    g = random_instance(rng, n_max=8, m_max=16)
    cfg = LocalSearchConfig(phi=1.0, max_passes=8, seed=100)
    best = local_search_restarts(g, cfg, restarts=4)
    singles = [local_search(g, LocalSearchConfig(phi=1.0, max_passes=8,
                                                 seed=100 + r))
               for r in range(4)]
    assert best.objective.total == max(r.objective.total for r in singles)
    with pytest.raises(ValueError):
        local_search_restarts(g, cfg, restarts=0)


def test_balanced_baseline_caps_and_determinism():
    rng = np.random.default_rng(21)
    g = random_instance(rng, n_max=8, m_max=16)
    m = g.n_diversion
    for k in (1, 2, 3, m):
        c = balanced_partition_baseline(g, k, seed=7)
        sizes = np.bincount(c.assignment)
        assert sizes.max() <= -(-m // k)
        assert sizes.sum() == m
    c1 = balanced_partition_baseline(g, 3, seed=7)
    c2 = balanced_partition_baseline(g, 3, seed=7)
    np.testing.assert_array_equal(c1.assignment, c2.assignment)
    with pytest.raises(ValueError):
        balanced_partition_baseline(g, m + 1)
    with pytest.raises(ValueError):
        balanced_partition_baseline(g, 0)


def _naive_balanced_partition(g, k, seed=0, max_passes=15):
    """balanced_partition_baseline by definition: per visit, a dict of
    label affinities summed over the two-hop paths in column-then-row
    order; the best label that is neither the own one nor full, the
    smallest on ties, wins when it beats the own affinity."""
    m = g.n_diversion
    cap = -(-m // k)
    labels = np.arange(m, dtype=np.int64) % k
    sizes = np.bincount(labels, minlength=k)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    csc, csr = g.cols, g.rows
    for _ in range(max_passes):
        moved = 0
        for i in rng.permutation(m):
            aff = {}
            lo, hi = csc.indptr[i], csc.indptr[i + 1]
            for kk, wk in zip(csc.indices[lo:hi], csc.data[lo:hi]):
                rlo, rhi = csr.indptr[kk], csr.indptr[kk + 1]
                for j2, w2 in zip(csr.indices[rlo:rhi], csr.data[rlo:rhi]):
                    lab = labels[j2]
                    aff[lab] = aff.get(lab, 0.0) + wk * w2
            cur = labels[i]
            best_lab, best_aff = cur, aff.get(cur, 0.0)
            for lab in sorted(aff):
                if lab == cur or sizes[lab] >= cap:
                    continue
                if aff[lab] > best_aff:
                    best_lab, best_aff = lab, aff[lab]
            if best_lab != cur:
                labels[i] = best_lab
                sizes[cur] -= 1
                sizes[best_lab] += 1
                moved += 1
        if moved == 0:
            break
    return Clustering.from_labels(labels).assignment


def test_balanced_baseline_matches_naive():
    rng = np.random.default_rng(41)
    cases = [(random_instance(rng), t) for t in range(30)]
    # Stored zero weights and hubs give tied affinities; an edgeless
    # column has none.
    cases.append((_tied_skewed_graph(), 0))
    W = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    cases.append((BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v", "w")), 1))
    for g, seed in cases:
        m = g.n_diversion
        for k in sorted({1, min(2, m), min(3, m), max(1, m // 3), m}):
            np.testing.assert_array_equal(
                balanced_partition_baseline(g, k, seed=seed).assignment,
                _naive_balanced_partition(g, k, seed=seed))
    # The paired pool ties exactly: siblings share their affinities. At
    # k = 450 (cap 5) units move in several passes, at 1200 (cap 2) in one.
    g = paired_pool_instance()[0]
    for k in (450, 1200):
        np.testing.assert_array_equal(
            balanced_partition_baseline(g, k, seed=3).assignment,
            _naive_balanced_partition(g, k, seed=3))


def test_write_trace_csv(tmp_path):
    g = small_graph()
    cfg = LocalSearchConfig(phi=1.0, max_passes=3, convergence=False, seed=0)
    result = local_search(g, cfg)
    path = tmp_path / "trace.csv"
    write_trace_csv(result.trace, path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(result.trace)
    assert rows[0]["pass"] == "1"
    assert float(rows[-1]["objective_total"]) == pytest.approx(
        result.objective.total)
    # The counters follow elapsed, so the first six columns keep their
    # places.
    assert list(rows[0])[5:] == ["elapsed", "kernel_visits",
                                 "stale_recomputes"]
    for row, step in zip(rows, result.trace):
        assert int(row["kernel_visits"]) == step.kernel_visits
        assert int(row["stale_recomputes"]) == step.stale_recomputes
        assert step.stale_recomputes <= step.kernel_visits <= g.n_diversion
