import csv
import hashlib
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from bipx import cluster_opt
from bipx.cluster_opt import (ACCEPT_EPS, LocalSearchConfig, _block_stops,
                              _draw_many, _MoveDelta, _slice_cumsum,
                              local_search, local_search_restarts, objective,
                              write_trace_csv)
from bipx.design import Clustering, DesignSpec
from bipx.graph_core import BipartiteGraph
from bipx.oracle import (_draw, corr_clust_cs_rewrite,
                         exposure_spread_enumerated, exposure_spread_objective,
                         objective_by_moments, objective_by_omega,
                         omega_matrix, spread_identity_constant, wedge_sample)
from instances import (paired_pool_instance, partitions_equal, perf_instance,
                       planted_four_block, random_clustering, random_instance,
                       small_graph)


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


def move_delta(g, assignment, i, target, phi, p=0.5):
    """Objective change from moving unit i into the cluster labelled
    `target`, by local_search's two-hop gather; a label no unit holds makes
    i a new singleton."""
    labels = np.asarray(assignment, dtype=np.int64)
    if target == labels[i]:
        return 0.0
    S = np.bincount(labels, weights=g.col_sums,
                    minlength=max(int(labels.max()), target) + 1)
    delta, units = _MoveDelta(g, phi, p), np.array([i])
    return float(delta.gains(labels, S, units, np.array([target]),
                             *delta.paths(units))[0])


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
    ACCEPT_EPS and the target cluster is below k_max. Also gives, per
    pass, the trace's counters by their definitions: accepted moves,
    visits past the self-partner and cap checks, live clusters, the
    largest cluster's size, visits whose partner is in the own cluster,
    visits whose partner's cluster is full, and scored visits that did
    not improve the objective."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    m = g.n_diversion
    cap = m if k_max is None else k_max
    labels = np.arange(m)
    counters = []
    for _ in range(passes):
        accepted = visits = skips = full = worse = 0
        for i in rng.permutation(m):
            b = labels[wedge_sample(g, i, rng)]
            if b == labels[i]:
                skips += 1
                continue
            if np.sum(labels == b) >= cap:
                full += 1
                continue
            visits += 1
            moved = labels.copy()
            moved[i] = b
            before = objective_by_omega(g, Clustering.from_labels(labels), phi)
            after = objective_by_omega(g, Clustering.from_labels(moved), phi)
            if after.total - before.total > ACCEPT_EPS:
                labels = moved
                accepted += 1
            else:
                worse += 1
        sizes = np.bincount(labels)
        counters.append((accepted, visits, np.count_nonzero(sizes),
                         sizes.max(), skips, full, worse))
    return Clustering.from_labels(labels).assignment, counters


def _counters(trace):
    return [(row.moves_accepted, row.kernel_visits, row.live_clusters,
             row.largest_cluster, row.self_partner_skips, row.cap_rejections,
             row.non_improving_rejections) for row in trace]


def test_local_search_matches_naive_search(monkeypatch):
    rng = np.random.default_rng(31)
    # The small paired-pool graph adds moves whose gain is exactly zero at
    # phi = 1, which a strict search must reject.
    graphs = [random_instance(rng) for _ in range(30)]
    graphs.append(paired_pool_instance(n_pairs=3, spokes=2, pool=2)[0])
    # A block ends after _BLOCK visits that could move at the pass start.
    # Block size 1 and 3 cross block boundaries on these m <= 12 graphs;
    # 64 and the default hold a whole pass, so later visits of a block are
    # often scored again.
    blocks = (1, 3, 64, cluster_opt._BLOCK)
    stale = dict.fromkeys(blocks, 0)
    rejected = np.zeros(3, dtype=int)
    # Accepts applied one at a time by the walk, and in bulk as a block's
    # clean run, per block size.
    walked, bulk = dict.fromkeys(blocks, 0), dict.fromkeys(blocks, 0)
    clusters = cluster_opt._Clusters
    move, move_many = clusters.move, clusters.move_many

    def walk_move(self, *args):
        walked[block] += 1
        move(self, *args)

    def bulk_move(self, units, *args):
        bulk[block] += units.size
        move_many(self, units, *args)

    monkeypatch.setattr(clusters, "move", walk_move)
    monkeypatch.setattr(clusters, "move_many", bulk_move)
    for t, g in enumerate(graphs):
        for phi in (0.0, 0.3, 1.0):
            for k_max in (None, 2):
                cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=4,
                                        convergence=False, seed=t)
                naive, counters = _naive_search(g, phi, k_max, t, 4)
                rejected += np.sum(counters, axis=0, dtype=int)[4:]
                for block in blocks:
                    monkeypatch.setattr(cluster_opt, "_BLOCK", block)
                    result = local_search(g, cfg)
                    np.testing.assert_array_equal(
                        result.clustering.assignment, naive)
                    assert _counters(result.trace) == counters
                    stale[block] += sum(row.stale_recomputes
                                        for row in result.trace)
    # Even a block of one visit that could move holds the visits before
    # the next such visit, and an accept can make those movable, so they
    # are scored again. Larger blocks leave more visits behind an accept.
    assert 0 < stale[1] <= stale[3] < stale[blocks[-1]]
    # A block that holds the whole pass has dense conflicts, so the walk
    # takes many accepts; every block size applies some in bulk.
    assert 0 < walked[1] < walked[3] < walked[64]
    assert all(bulk.values())
    # Self-partner skips, cap rejections and non-improving rejections all
    # occur.
    assert (rejected > 0).all()


def test_block_stops_cut_after_block_movable_visits():
    rng = np.random.default_rng(33)
    masks = [np.zeros(0, bool), np.zeros(7, bool), np.ones(7, bool)]
    masks += [rng.random(int(rng.integers(1, 300))) < rng.random()
              for _ in range(200)]
    for movable in masks:
        for block in (1, 3, 64):
            stops = _block_stops(movable, block)
            assert stops[-1] == movable.size
            starts = [0] + stops[:-1]
            counts = [np.count_nonzero(movable[lo:hi])
                      for lo, hi in zip(starts, stops)]
            # Every block but the last holds `block` movable visits and
            # ends on one; the last holds the rest, at least one if any.
            assert counts[:-1] == [block] * (len(counts) - 1)
            assert all(movable[hi - 1] for hi in stops[:-1])
            total = int(np.count_nonzero(movable))
            assert 0 < counts[-1] <= block or counts[-1] == total == 0


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
    # The cap changed decisions, and a block holds _BLOCK visits that
    # could move at the pass start, so clusters filled up and refused moves
    # within a block.
    assert not partitions_equal(blocked.clustering, uncapped.clustering)
    assert sum(row.stale_recomputes for row in blocked.trace) > 0
    np.testing.assert_array_equal(blocked.clustering.assignment,
                                  serial.clustering.assignment)
    assert [row.moves_accepted for row in blocked.trace] == \
        [row.moves_accepted for row in serial.trace]


def _cluster_state(g, labels):
    """The _Clusters of `labels`, labels in [0, m), reached from the
    singletons by moves as local_search reaches its clusterings; a move
    may go into a cluster its founder has left."""
    state = cluster_opt._Clusters(g.col_sums, np.diff(g.csc.indptr))
    for i, c in enumerate(labels.tolist()):
        if c != i:
            state.move(i, i, c)
    np.testing.assert_array_equal(state.labels, labels)
    return state


def _with_edgeless_units(g, rng):
    """g with up to two edgeless diversion units put in at random places."""
    n, m = g.n_outcome, g.n_diversion + int(rng.integers(0, 3))
    W = sp.hstack([g.rows, sp.csr_matrix((n, m - g.n_diversion))]).tocsc()
    W = W[:, rng.permutation(m)].tocsr()
    return BipartiteGraph.from_csr(W, tuple(range(n)), tuple(range(m)))


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), phi=st.sampled_from([0.0, 0.3, 1.0]),
       p=st.sampled_from([0.3, 0.5]))
def test_cluster_side_gains_match_gather(seed, phi, p):
    rng = np.random.default_rng(seed)
    g = _with_edgeless_units(random_instance(rng), rng)
    m = g.n_diversion
    # Clusters of at most `cap` units under scattered labels, some unused,
    # and some units alone in a cluster, which the cluster side does not
    # read.
    cap = int(rng.integers(1, m + 1))
    labels = rng.permutation(m)[rng.permutation(m) // cap]
    free = np.setdiff1d(np.arange(m), labels)
    lone = rng.permutation(m)[:int(rng.integers(0, free.size + 1))]
    labels[lone] = free[:lone.size]
    state = _cluster_state(g, labels)
    # A batch may repeat a unit; a target may be the own cluster or an
    # unused label, which makes the unit a new singleton. Every edgeless
    # unit is in the batch.
    size = int(rng.integers(1, 2 * m + 1))
    units = np.concatenate((rng.integers(0, m, size),
                            np.flatnonzero(np.diff(g.csc.indptr) == 0)))
    targets = rng.integers(0, m, units.size)
    delta = cluster_opt._MoveDelta(g, phi, p)
    gains = {}
    with pytest.MonkeyPatch.context() as mp:
        for side in (False, True):
            mp.setattr(cluster_opt, "_cluster_side", lambda *_, s=side: s)
            gains[side], on_clusters = delta.score(state, units, targets)
            assert on_clusters is side
            for v in range(units.size):
                # A batch of one, and score_one, which scores a stale visit
                # in plain Python on the cluster side: both give the
                # batch's bits.
                alone, on_clusters = delta.score(
                    state, units[v:v + 1], targets[v:v + 1])
                assert on_clusters is side
                gain, on_clusters = delta.score_one(
                    state, int(units[v]), int(targets[v]))
                assert on_clusters is side
                assert type(gain) is float
                assert gain.hex() == float(alone[0]).hex() \
                    == float(gains[side][v]).hex()
    np.testing.assert_allclose(gains[True], gains[False], rtol=0, atol=1e-12)
    # The gain of a move to another cluster is its objective change.
    for v in np.flatnonzero(targets != labels[units])[:3]:
        moved = labels.copy()
        moved[units[v]] = targets[v]
        change = objective(g, Clustering.from_labels(moved), phi, p).total \
            - objective(g, Clustering.from_labels(labels), phi, p).total
        assert gains[True][v] == pytest.approx(change, rel=1e-9, abs=1e-10)


def _members(state, c):
    lo = int(state.start[c])
    return state.pool[lo:lo + int(state.sizes[c])].tolist()


def test_clusters_keep_member_order(monkeypatch):
    """_Clusters' moves, one at a time and in bulk, against lists of
    members: founder first, a joining unit appended, a leaving one
    replaced by the last. Long move sequences on a few units make clusters
    outgrow their room and the arena compact many times."""
    compactions = []
    compact = cluster_opt._Clusters._compact
    monkeypatch.setattr(cluster_opt._Clusters, "_compact",
                        lambda self: compactions.append(1) or compact(self))
    rng = np.random.default_rng(34)
    for _ in range(30):
        m = int(rng.integers(1, 9))
        s, deg = rng.random(m), rng.integers(0, 5, m)
        state = cluster_opt._Clusters(s, deg)
        members = [[i] for i in range(m)]
        labels = np.arange(m)
        for _ in range(40):
            # A few moves one at a time, or a batch of moves whose clusters
            # are pairwise distinct, as a clean run's are. A move may go
            # into an empty cluster.
            bulk, moves, used = rng.random() < 0.5, [], set()
            for i in rng.permutation(m).tolist():
                a, b = int(labels[i]), int(rng.integers(m))
                if a != b and not (bulk and used & {a, b}):
                    at = members[a].index(i)
                    last = members[a].pop()
                    if last != i:
                        members[a][at] = last
                    members[b].append(i)
                    labels[i] = b
                    moves.append((i, a, b))
                    used.update((a, b))
                    if not bulk:
                        state.move(i, a, b)
            if bulk:
                state.move_many(*np.array(moves, dtype=np.int64).reshape(
                    -1, 3).T)
            np.testing.assert_array_equal(state.labels, labels)
            assert [_members(state, c) for c in range(m)] == members
            for c, units in enumerate(members):
                assert state.sizes[c] == len(units) <= state.cap[c]
                assert [state.where[i] for i in units] == list(
                    range(len(units)))
            np.testing.assert_array_equal(
                state.cdeg, np.bincount(labels, deg, minlength=m))
            np.testing.assert_allclose(
                state.S, np.bincount(labels, s, minlength=m), atol=1e-12)
            # The clusters' rooms lie apart, within the arena's 4m slots.
            room = sorted(zip(state.start.tolist(), state.cap.tolist()))
            assert all(lo + n <= nxt for (lo, n), (nxt, _) in
                       zip(room, room[1:]))
            assert room[-1][0] + room[-1][1] <= state.end \
                <= state.pool.size == 4 * m
    assert len(compactions) > 30


def test_arena_stays_within_its_bound(monkeypatch):
    """A search without a cap grows clusters past their room again and
    again; the arena compacts instead of outgrowing its 4m slots, and
    ends holding each cluster's units."""
    states, compactions = [], []
    init, compact = cluster_opt._Clusters.__init__, \
        cluster_opt._Clusters._compact
    monkeypatch.setattr(cluster_opt._Clusters, "__init__",
                        lambda self, *a: states.append(self) or init(self, *a))
    monkeypatch.setattr(cluster_opt._Clusters, "_compact",
                        lambda self: compactions.append(1) or compact(self))
    g = paired_pool_instance()[0]
    m = g.n_diversion
    result = local_search(g, LocalSearchConfig(phi=1.0 / 199.0, seed=0))
    (state,) = states
    assert result.converged and compactions
    assert result.trace[-1].largest_cluster > 5
    assert state.end <= state.pool.size == 4 * m
    assert partitions_equal(Clustering.from_labels(state.labels),
                            result.clustering)
    for c in range(m):
        assert sorted(_members(state, c)) == np.flatnonzero(
            state.labels == c).tolist()


def test_local_search_routes_match_naive_search(monkeypatch):
    rng = np.random.default_rng(32)
    graphs = [random_instance(rng) for _ in range(10)]
    graphs.append(paired_pool_instance(n_pairs=3, spokes=2, pool=2)[0])
    # A block of 64 visits that could move holds a whole pass of these
    # m <= 18 graphs, so later visits of a block are scored again, alone:
    # on the cluster side by score_one's Python sums.
    monkeypatch.setattr(cluster_opt, "_BLOCK", 64)
    stale = {False: 0, True: 0}
    for t, g in enumerate(graphs):
        for phi in (0.0, 1.0):
            for k_max in (None, 2):
                cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=4,
                                        convergence=False, seed=t)
                naive, counters = _naive_search(g, phi, k_max, t, 4)
                for side in (False, True):
                    monkeypatch.setattr(cluster_opt, "_cluster_side",
                                        lambda *_, s=side: s)
                    result = local_search(g, cfg)
                    np.testing.assert_array_equal(
                        result.clustering.assignment, naive)
                    assert _counters(result.trace) == counters
                    for row in result.trace:
                        assert row.cluster_side_visits == (
                            row.kernel_visits if side else 0)
                        stale[side] += row.stale_recomputes
    assert stale[False] > 0 and stale[True] > 0


def _search_graph():
    """A random graph of n = 2000, m = 10000 and 1e5 edges: big enough for
    blocks, stale visits and clusters of many sizes, small enough that a
    3-pass search takes a fraction of a second."""
    rng = np.random.default_rng(np.random.SeedSequence([30]))
    n, m, nnz = 2000, 10000, 100_000
    rows = np.concatenate([np.arange(m) % n, rng.integers(0, n, nnz - m)])
    cols = np.concatenate([rng.permutation(m), rng.integers(0, m, nnz - m)])
    W = sp.coo_matrix((rng.uniform(0.1, 1.1, nnz), (rows, cols)),
                      shape=(n, m))
    return BipartiteGraph.from_csr(W, tuple(range(n)), tuple(range(m)))


# The PassTrace fields a golden trace pins by digest, with the clustering:
# every decision, so all fields but elapsed and the two counters that
# depend on how a pass is cut into blocks, which it pins as totals with
# the rejection counters.
_DIGESTED = ("pass_index", "moves_accepted", "objective_total",
             "variance_sum", "covariance_sum", "kernel_visits",
             "live_clusters", "largest_cluster")
_TOTALLED = ("self_partner_skips", "cap_rejections",
             "non_improving_rejections", "stale_recomputes",
             "cluster_side_visits")


# Each case's digest and totals.
_GOLDEN = {
    "pool-phi-1": ("f93969f6d431d8a7", (6498, 5412, 7149, 252, 8090)),
    "pool-phi-1/199": ("db49f319e8bf9f32", (16420, 26997, 4252, 824, 6556)),
    "random-3-passes": ("da543807f055ec61", (802, 0, 20626, 536, 29198)),
}


@pytest.mark.parametrize("case", _GOLDEN)
def test_golden_traces(case):
    """Every decision of three searches, against values recorded before
    the search's exact speed-ups: the two searches of the design-ordering
    experiment, and three passes on a random graph, where a flipped
    decision that the small graphs of the naive-search tests cannot show
    changes the digest of the clustering and the trace. The stale and
    cluster-side counts move with the block size, not with a decision,
    so they are pinned apart from the digest, at the current block size."""
    if case.startswith("pool"):
        g = paired_pool_instance()[0]
        cfg = LocalSearchConfig(phi=1.0 if case == "pool-phi-1" else
                                1.0 / 199.0, k_max=5, seed=3)
    else:
        g = _search_graph()
        cfg = LocalSearchConfig(phi=0.01, k_max=50, max_passes=3,
                                convergence=False, seed=0)
    result = local_search(g, cfg)
    digest, totals = _GOLDEN[case]
    h = hashlib.sha256(result.clustering.assignment.astype("<i8").tobytes())
    h.update(repr([[getattr(row, name) for name in _DIGESTED]
                   for row in result.trace]).encode())
    assert h.hexdigest()[:16] == digest
    assert tuple(sum(getattr(row, name) for row in result.trace)
                 for name in _TOTALLED) == totals


def test_wedge_tables_built_once_per_search(monkeypatch):
    """A search that may run another pass builds the wedge tables once and
    keeps them; a pass that is the last one max_passes allows builds them
    inside the draw, so a one-pass search never holds them in its walk."""
    g = paired_pool_instance(n_pairs=10)[0]
    built, kept = [], []
    real_cumsum, real_partners = _slice_cumsum, cluster_opt._pass_partners

    def pass_partners(g, perm, u, tables=None):
        kept.append(tables is not None)
        return real_partners(g, perm, u, tables)

    monkeypatch.setattr(cluster_opt, "_slice_cumsum",
                        lambda *a: built.append(1) or real_cumsum(*a))
    monkeypatch.setattr(cluster_opt, "_pass_partners", pass_partners)
    for max_passes in (1, 3, None):
        built.clear()
        kept.clear()
        result = local_search(g, LocalSearchConfig(
            phi=1.0, k_max=5, max_passes=max_passes,
            convergence=max_passes is None, seed=0))
        assert len(built) == 2
        assert kept == [max_passes != 1] * len(result.trace)


def _traced_peak(f, *args):
    """The peak of memory traced by tracemalloc, numpy's arrays included,
    while f(*args) runs."""
    tracemalloc.start()
    try:
        f(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _many_degree_graph():
    # 2000 columns of degrees 0 to 199, ten of each, on random rows among
    # the first 400, and a diversion hub on every row: rows of many
    # degrees, and rows that hold the hub only.
    rng = np.random.default_rng(6)
    n, m = 2000, 2001
    degrees = np.arange(m - 1) % 200
    rows = np.concatenate([rng.choice(400, d, replace=False)
                           for d in degrees] + [np.arange(n)])
    cols = np.repeat(np.arange(m), np.r_[degrees, n])
    W = sp.csr_matrix((rng.random(rows.size) + 0.1, (rows, cols)),
                      shape=(n, m))
    return BipartiteGraph.from_csr(W, tuple(range(n)), tuple(range(m)))


def test_slice_cumsum_steps_once_per_degree(monkeypatch):
    g = _many_degree_graph()
    col_deg, row_deg = np.diff(g.csc.indptr), np.diff(g.csr.indptr)
    assert {0, 1, g.n_outcome} <= set(col_deg.tolist())
    assert 1 in row_deg  # rows that hold the hub only
    gathers = []
    real_cumsum = np.cumsum

    def cumsum(a, axis=None, **kw):
        gathers.append(axis)
        return real_cumsum(a, axis=axis, **kw)

    for a, deg in ((g.csc, col_deg), (g.csr, row_deg)):
        gathers.clear()
        with monkeypatch.context() as patch:
            patch.setattr(np, "cumsum", cumsum)
            cum = _slice_cumsum(a.indptr, a.data)
        assert gathers.count(1) == np.unique(deg[deg > 1]).size > 50
        for lo, hi in zip(a.indptr[:-1], a.indptr[1:]):
            np.testing.assert_array_equal(cum[lo:hi],
                                          np.cumsum(a.data[lo:hi]))


def test_wedge_tables_memory_is_bounded_by_a_degree_group():
    # The two tables are 16 bytes an entry; gathering every slice at once
    # would hold about 24 more an entry beside them.
    g = _many_degree_graph()
    assert _traced_peak(list, cluster_opt._wedge_tables(g)) < 20 * g.nnz


def _old_hops_and_self_term(g):
    # The whole-array formulas that _MoveDelta's column blocks replace.
    csc, csr = g.csc, g.csr
    row_deg = np.diff(csr.indptr)
    ends = np.concatenate(([0], np.cumsum(row_deg[csc.indices])))
    deg = np.diff(csc.indptr)
    self_term = np.bincount(np.repeat(np.arange(deg.size), deg),
                            weights=csc.data ** 2, minlength=deg.size)
    return np.diff(ends[csc.indptr]), self_term


@pytest.mark.parametrize("entries", [1, 3, None])  # None: the default
def test_move_delta_blocks_keep_hops_and_self_term(monkeypatch, entries):
    if entries is not None:
        monkeypatch.setattr(cluster_opt, "_AGG_ENTRIES", entries)
    graphs = (_many_degree_graph(), _tied_skewed_graph(),
              _power_degree_graph(),
              BipartiteGraph.from_csr(sp.csr_matrix(np.array(
                  [[0.5, 0.0, 0.5, 0.0], [1.0, 0.0, 0.0, 0.0]])),
                  ("a", "b"), ("u", "v", "w", "x")))
    for g in graphs:
        delta = _MoveDelta(g, 1.0, 0.5)
        hops, self_term = _old_hops_and_self_term(g)
        assert delta.hops.dtype == hops.dtype
        np.testing.assert_array_equal(delta.hops, hops)
        np.testing.assert_array_equal(delta.self_term, self_term)
    assert (np.diff(graphs[0].csc.indptr) == 0).any()


def test_move_delta_memory_is_bounded_by_a_block():
    # On the perf-shaped graph the whole-array formulas peak at about
    # 25 MB and the column blocks at 4.0 MB, 3.4 MB of it the per-unit
    # arrays.
    g = perf_instance()
    g.csc  # Built first: the pin is on _MoveDelta's own arrays.
    assert _traced_peak(_MoveDelta, g, 1.0, 0.5) < 8 * 2**20


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
    g = BipartiteGraph.from_csr(W, tuple(range(n)), tuple(range(m)))
    assert (g.csc.data == 0.0).any() and (g.csr.data == 0.0).any()
    return g


def _power_degree_graph():
    # Columns of degree 1, 2, 3, 4, 8, ..., 64 on rows 0 up to their
    # degree, so rows have degrees 8 down to 1.
    rng = np.random.default_rng(5)
    degrees = (1, 2, 3, 4, 8, 16, 32, 64)
    cols = np.repeat(np.arange(len(degrees)), degrees)
    rows = np.concatenate([np.arange(d) for d in degrees])
    W = sp.csr_matrix((rng.random(rows.size) + 0.1, (rows, cols)),
                      shape=(64, len(degrees)))
    return BipartiteGraph.from_csr(W, tuple(range(64)),
                                   tuple(range(len(degrees))))


def test_pass_draws_match_per_visit_draws():
    g = _tied_skewed_graph()
    csc, csr = g.csc, g.csr
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
    # Doubles that land on the cumulative sums themselves and next to
    # them, zero and the largest double below 1: ties, thresholds equal to
    # an entry and both ends of every slice, on slices of every degree
    # from 1 to 64, powers of two among them.
    exact = 0
    for csc, csr in ((g.csc, g.csr) for g in (g, _power_degree_graph())):
        for a in (csc, csr):
            indptr, cum = a.indptr, _slice_cumsum(a.indptr, a.data)
            for s in range(indptr.size - 1):
                lo, hi = indptr[s], indptr[s + 1]
                us = [0.0, np.nextafter(1.0, 0.0)]
                if cum[hi - 1] > 0:  # else every weight is zero
                    x = cum[lo:hi] / cum[hi - 1]
                    us += [y for y in np.concatenate((
                        np.nextafter(x, 0.0), x, np.nextafter(x, 1.0)))
                        if y < 1.0]
                    exact += np.isin(cum[lo:hi],
                                     np.array(us) * cum[hi - 1]).sum()
                us = np.array(us)
                got = _draw_many(indptr, a.indices, cum, np.full(us.size, s),
                                 us)
                want = [_draw(indptr, a.indices, a.data, s, _FixedDouble(x))
                        for x in us]
                np.testing.assert_array_equal(got, want)
    assert exact > 100


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
    for phi in (-0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LocalSearchConfig(phi=phi)
    for budget in (-1.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            LocalSearchConfig(time_budget=budget)
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
            last = result.trace[-1]
            assert (last.live_clusters, last.largest_cluster) == (
                result.clustering.k, sizes.max())
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


def test_local_search_spent_time_budget_leaves_singletons():
    g, _ = planted_four_block()
    result = local_search(g, LocalSearchConfig(phi=1.0, time_budget=1e-9))
    np.testing.assert_array_equal(result.clustering.assignment,
                                  np.arange(g.n_diversion))
    assert result.trace == ()
    assert not result.converged
    # With no pass run, the result is the singletons' starting value.
    want = objective(g, Clustering.singletons(g.n_diversion), 1.0)
    got = result.objective
    assert got.total == pytest.approx(want.total, rel=1e-12)
    assert got.variance_sum == pytest.approx(want.variance_sum, rel=1e-12)
    assert got.covariance_sum == pytest.approx(want.covariance_sum,
                                               rel=1e-12)


def test_local_search_budget_spent_in_zero_accept_pass_converges(
        monkeypatch):
    g, _ = planted_four_block()
    cfg = LocalSearchConfig(phi=1.0, seed=3)
    passes = len(local_search(g, cfg).trace)
    assert passes >= 2
    # A fake clock that jumps past the budget while the last pass, which
    # accepts nothing, draws its partners.
    now, drawn = [0.0], []
    real = cluster_opt._pass_partners

    def pass_partners(*args):
        drawn.append(1)
        if len(drawn) == passes:
            now[0] = 10.0
        return real(*args)

    monkeypatch.setattr(cluster_opt, "_pass_partners", pass_partners)
    monkeypatch.setattr(cluster_opt, "time",
                        SimpleNamespace(perf_counter=lambda: now[0]))
    result = local_search(g, replace(cfg, time_budget=1.0))
    assert len(result.trace) == passes
    assert result.trace[-1].moves_accepted == 0
    assert result.converged


def test_local_search_never_computes_objective(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(None)
        return objective(*args)

    monkeypatch.setattr(cluster_opt, "objective", counted)
    g = paired_pool_instance()[0]
    result = local_search(g, LocalSearchConfig(
        phi=1.0, k_max=5, max_passes=15, convergence=False, seed=0))
    assert len(result.trace) == 15
    assert calls == []


@pytest.mark.parametrize("k_max", [5, None])
@pytest.mark.parametrize("phi", [0.0, 1.0 / 199.0, 1.0, 5.0])
def test_carried_trace_matches_objective(phi, k_max):
    """The reported objective and the last trace row, both carried by the
    search, against a fresh objective() of its clustering, after every
    pass count t."""
    g = paired_pool_instance()[0]
    for seed in range(3):
        for t in range(1, 16):
            result = local_search(g, LocalSearchConfig(
                phi=phi, k_max=k_max, max_passes=t, convergence=False,
                seed=seed))
            fresh = objective(g, result.clustering, phi)
            last, obj = result.trace[-1], result.objective
            for got in (obj.total, last.objective_total):
                assert got == pytest.approx(fresh.total, rel=1e-9)
            for got in (obj, last):
                assert got.variance_sum == pytest.approx(fresh.variance_sum,
                                                         rel=1e-9)
                assert got.covariance_sum == pytest.approx(
                    fresh.covariance_sum, rel=1e-9)


def test_local_search_unreached_time_budget_changes_nothing():
    g, _ = planted_four_block()
    cfg = LocalSearchConfig(phi=1.0, seed=3)
    budgeted = local_search(g, replace(cfg, time_budget=600.0))
    np.testing.assert_array_equal(budgeted.clustering.assignment,
                                  local_search(g, cfg).clustering.assignment)
    assert budgeted.converged


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


def test_write_trace_csv_bytes(tmp_path):
    trace = [cluster_opt.PassTrace(1, 3, 1e16, np.float64(0.1), -0.0,
                                   5e-324, 4, 0, 2, 9, 4, 5, 0, 1),
             cluster_opt.PassTrace(2, 0, 2.0, 1 / 3, 1.0, 0.25, 0, 0, 0, 9,
                                   4, 8, 1, 0)]
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    assert path.read_bytes() == (
        b"pass,moves_accepted,objective_total,variance_sum,covariance_sum,"
        b"elapsed,kernel_visits,stale_recomputes,cluster_side_visits,"
        b"live_clusters,largest_cluster,self_partner_skips,cap_rejections,"
        b"non_improving_rejections\n"
        b"1,3,1e+16,0.1,-0.0,5e-324,4,0,2,9,4,5,0,1\n"
        b"2,0,2.0,0.3333333333333333,1.0,0.25,0,0,0,9,4,8,1,0\n")


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
    # places, and each new counter comes after the ones before it.
    assert list(rows[0])[5:] == ["elapsed", "kernel_visits",
                                 "stale_recomputes", "cluster_side_visits",
                                 "live_clusters", "largest_cluster",
                                 "self_partner_skips", "cap_rejections",
                                 "non_improving_rejections"]
    for row, step in zip(rows, result.trace):
        for name in list(row)[6:]:
            assert int(row[name]) == getattr(step, name)
        assert step.stale_recomputes <= step.kernel_visits <= g.n_diversion
        assert step.cluster_side_visits <= step.kernel_visits
