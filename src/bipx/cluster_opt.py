"""Clustering objective for exposure designs and its local-search heuristic.

The objective scores a clustering of diversion units by the exposure
moments it induces: sum of exposure variances minus phi times the sum of
pairwise exposure covariances, phi >= 0 a trade-off parameter. Through the
pair weights

    omega[i, j] = (1 + phi) * sum_k w[k, i] w[k, j] - phi * s[i] * s[j]

the objective equals the coin variance 4p(1-p) times the total in-cluster
omega weight, so maximizing it is a correlation-clustering problem. The
local search starts from singletons and repeatedly tries to move a unit
into the cluster of a wedge-sampled partner, accepting strict improvements
subject to a cluster-size cap. The dense omega and enumeration routes to
the objective, which the tests check it against, are in bipx.oracle.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import astuple, dataclass, fields, replace
from itertools import count, islice

import numpy as np

from bipx.design import (_AGG_ENTRIES, Clustering, DesignSpec,
                         exposure_moments)
from bipx.graph_core import write_rows

# Strict improvement threshold; prevents cycling on exact ties.
ACCEPT_EPS = 1e-12


@dataclass(frozen=True)
class LocalSearchConfig:
    """Knobs for the local search.

    At least one stopping rule must be active: convergence (a full pass
    that accepts no move), max_passes, or time_budget (seconds). The
    budget bounds one search: local_search_restarts gives each restart
    the whole budget, so r restarts may run for about r budgets.
    """

    phi: float = 1.0
    k_max: int | None = None
    max_passes: int | None = None
    time_budget: float | None = None
    convergence: bool = True
    seed: int = 0
    p: float = 0.5

    def __post_init__(self):
        if not (math.isfinite(self.phi) and self.phi >= 0):
            raise ValueError("phi must be finite and >= 0")
        if self.k_max is not None and self.k_max < 1:
            raise ValueError("k_max must be >= 1")
        # The search counts passes with islice, which takes at most
        # sys.maxsize.
        if self.max_passes is not None and not (
                1 <= self.max_passes <= sys.maxsize):
            raise ValueError(f"max_passes must be in [1, {sys.maxsize}]")
        if self.time_budget is not None and not (
                math.isfinite(self.time_budget) and self.time_budget > 0):
            raise ValueError("time_budget must be finite and > 0")
        if not (self.convergence or self.max_passes or self.time_budget):
            raise ValueError("no stopping rule set")
        if not (0.0 < self.p < 1.0):
            raise ValueError("p must be in (0, 1)")


@dataclass(frozen=True)
class ObjectiveValue:
    """Objective split into its variance and covariance parts."""

    variance_sum: float
    covariance_sum: float
    phi: float

    @property
    def total(self):
        return self.variance_sum - self.phi * self.covariance_sum


@dataclass(frozen=True)
class PassTrace:
    pass_index: int
    moves_accepted: int
    objective_total: float
    variance_sum: float
    covariance_sum: float
    elapsed: float
    kernel_visits: int  # visits past the self-partner and cap checks
    stale_recomputes: int  # of those, scored again after a block accept
    cluster_side_visits: int  # of those, scored from member columns
    live_clusters: int  # clusters with a unit, at the end of the pass
    largest_cluster: int  # units in the largest of them
    # Every visit is a self-partner skip (the partner is in the unit's own
    # cluster), a cap rejection (the partner's cluster is full) or a kernel
    # visit, and a kernel visit is accepted or rejected as non-improving.
    self_partner_skips: int
    cap_rejections: int
    non_improving_rejections: int


@dataclass(frozen=True)
class SearchResult:
    clustering: Clustering
    objective: ObjectiveValue
    trace: tuple
    converged: bool


def objective(g, c, phi, p=0.5):
    """Objective of a clustering via the cluster aggregates (closed form).

    variance_sum = 4p(1-p) sum_i sum_C agg[i, C]^2 and covariance_sum =
    4p(1-p) sum_C (S_C^2 - sum_i agg[i, C]^2); the total also equals
    4p(1-p) times the in-cluster omega weight (tested as an invariant).
    The coin-variance factor scales every clustering alike, so the argmax
    over clusterings does not depend on p.
    """
    d = DesignSpec.independent_cluster(c, p)
    var_sum = float(exposure_moments(g, d, check=False).variance.sum())
    s_c = np.bincount(c.assignment, weights=g.col_sums, minlength=c.k)
    s_sq = d.coin_variance * float(np.sum(s_c ** 2))
    return ObjectiveValue(variance_sum=var_sum,
                          covariance_sum=s_sq - var_sum, phi=phi)


def _slice_cumsum(indptr, data):
    """np.cumsum of every slice data[indptr[s]:indptr[s + 1]], bit for bit.

    The slices of each degree d > 1 are gathered as one (count, d) array,
    whose row-wise np.cumsum makes the same left-to-right adds, and
    scattered back: one step per distinct degree, and working memory
    bounded by the largest group of slices, not by the entries.
    """
    deg = np.diff(indptr)
    order = np.argsort(deg, kind="stable")
    bounds = np.cumsum(np.bincount(deg))  # bounds[d]: slices of degree <= d
    cum = np.array(data, dtype=np.float64)
    for d in np.flatnonzero(np.diff(bounds[1:])) + 2:
        at = indptr[order[bounds[d - 1]:bounds[d]], None] + np.arange(d)
        cum[at] = np.cumsum(cum[at], axis=1)
    return cum


def _draw_many(indptr, indices, cum, slices, u):
    """_draw for many non-empty slices at once, given their doubles u.

    `cum` is _slice_cumsum of the data. The drawn offset is the count of
    cum <= u * total in the slice, which is searchsorted(side="right") on
    the non-decreasing cum, clipped to the slice's last entry; binary
    lifting finds it in log2(max degree) vectorized steps.
    """
    lo = indptr[slices]
    last = indptr[slices + 1] - 1
    thr = u * cum[last]
    pos, end = lo, last + 1
    step = 1 << int((end - lo).max(initial=1)).bit_length() - 1
    while step:
        cand = np.minimum(pos + step, end)
        pos = np.where(cum[cand - 1] <= thr, cand, pos)
        step >>= 1
    return indices[np.minimum(pos, last)]


def _wedge_tables(g):
    """The cumulative sums the wedge draws read, the CSC's and then the
    CSR's, each built when it is asked for. They depend on the graph
    only."""
    return (_slice_cumsum(a.indptr, a.data) for a in (g.csc, g.csr))


def _pass_partners(g, perm, u, tables=None):
    """Wedge-sampled partner of every unit of perm, two doubles of u each.

    Gives the partners that _draw calls on these doubles give, visit by
    visit. A unit with no edges is its own partner. `tables` are the
    caller's _wedge_tables, kept across passes; without them each
    cumulative sum is built for its draw and freed after it, so neither
    outlives the call.
    """
    csc, csr = g.csc, g.csr
    cums = iter(tables or _wedge_tables(g))
    partner = perm.copy()
    drawn = np.diff(csc.indptr)[perm] > 0
    k = _draw_many(csc.indptr, csc.indices, next(cums), perm[drawn],
                   u[0::2][drawn])
    partner[drawn] = _draw_many(csr.indptr, csr.indices, next(cums), k,
                                u[1::2][drawn])
    return partner


def _ranges(starts, lengths):
    """Concatenation of arange(s, s + n) over the pairs (s, n)."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


class _MoveDelta:
    """Objective changes of single-unit moves, scored by one of two routes.

    With d(i, C) = sum_{j in C} <col i, col j>, moving unit i from its
    cluster A to cluster B changes the objective by 2 * 4p(1-p) *
    [(1 + phi) (d(i, B) - d(i, A \\ {i})) - phi s_i (S_B - (S_A - s_i))],
    S the cluster column totals. Both routes sum d(i, A) with i among A's
    members and then take off the self term <col i, col i>.

    The gather walks the two-hop paths i -> k -> j, the CSR rows of i's
    outcome units k laid end to end: each CSC entry (k, i) contributes
    the run of CSR positions of row k. `paths` gathers them once for a
    batch; `gains` reads the current labels at their ends and sums, per
    unit with np.bincount, the paths that land in the own or the target
    cluster. It reads hops(i) paths a unit, however small the clusters.

    The cluster side reads the columns of the members of A and B, in the
    _Clusters arena. It keys each unit entry (k, i) of a batch by slot *
    n + k, sorted as CSC rows are; one searchsorted finds the members'
    entries (k, j) on the same row and one np.bincount sums their w[k, i]
    w[k, j] per slot and cluster. It reads deg(i) + cdeg(A) + cdeg(B)
    entries a unit, cdeg a cluster's summed column degrees, less A's when
    i is alone in A: then d(i, A) is the self term, the same adds in the
    same order. `score` picks the route for a batch and `score_one` for a
    single visit, which it scores on the cluster side in plain Python.
    """

    def __init__(self, g, phi, p):
        csc, csr = g.csc, g.csr
        self.g = g
        self.phi = phi
        self.coin_variance = 4.0 * p * (1.0 - p)
        self.row_deg = np.diff(csr.indptr)
        self.deg = np.diff(csc.indptr)
        m = self.deg.size
        self.hops = np.zeros(m, dtype=np.int64)
        self.self_term = np.zeros(m)
        # Blocks of whole columns of about _AGG_ENTRIES entries, which
        # bounds the working memory; each column's sums are sequential, as
        # over the whole array, and hops is a sum of integers below 2^53.
        cuts = np.r_[0, np.searchsorted(csc.indptr, np.arange(
            _AGG_ENTRIES, g.nnz, _AGG_ENTRIES)), m]
        for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
            entries = slice(csc.indptr[lo], csc.indptr[hi])
            col = np.repeat(np.arange(hi - lo), self.deg[lo:hi])
            self.hops[lo:hi] = np.bincount(
                col, weights=self.row_deg[csc.indices[entries]],
                minlength=hi - lo)
            self.self_term[lo:hi] = np.bincount(
                col, weights=csc.data[entries] ** 2, minlength=hi - lo)
        # What score_one reads one element at a time: memoryviews skip
        # numpy's scalar objects.
        self.views = tuple(map(memoryview, (
            csc.indptr, csc.indices, csc.data, self.hops, self.deg,
            self.self_term, g.col_sums)))

    def paths(self, units):
        """Two-hop paths of a batch of units: the unit each path ends in,
        its weight w[k, i] w[k, j], and bounds such that unit v's paths are
        [bounds[v], bounds[v + 1]); a unit is among its own path ends."""
        csc, csr = self.g.csc, self.g.csr
        lo = csc.indptr[units]
        entries = _ranges(lo, csc.indptr[units + 1] - lo)
        rows = csc.indices[entries]
        reps = self.row_deg[rows]
        pos = _ranges(csr.indptr[rows], reps)
        prod = csc.data[entries].repeat(reps) * csr.data.take(pos)
        bounds = np.concatenate(([0], self.hops[units].cumsum()))
        return csr.indices.take(pos), prod, bounds

    def gains(self, labels, S, units, targets, ends, prod, bounds):
        """Objective change of moving units[v] into targets[v], for every v,
        given the batch's `paths`."""
        lab = labels.take(ends)
        hops = np.diff(bounds)

        def d(clusters):
            at = np.flatnonzero(lab == clusters.repeat(hops))
            return np.bincount(bounds.searchsorted(at, "right") - 1,
                               weights=prod[at], minlength=units.size)

        own = labels[units]
        return self._gain(S, units, own, targets, d(targets), d(own))

    def _gain(self, S, units, own, targets, d_new, d_own):
        """The move gains, given d(i, B) and d(i, A) with i still in A.
        score_one repeats this arithmetic, op for op, on Python floats."""
        d_own = d_own - self.self_term[units]
        s_i = self.g.col_sums[units]
        gain = (1.0 + self.phi) * (d_new - d_own) \
            - self.phi * s_i * (S[targets] - (S[own] - s_i))
        return 2.0 * self.coin_variance * gain

    def score(self, c, units, targets):
        """Gains of moving units[v] into targets[v], for every v, in the
        _Clusters c, by the route that _cluster_side picks for the batch,
        and whether that is the cluster side."""
        V = units.size
        if not V:
            return np.zeros(0), False
        own = c.labels[units]
        clusters = np.concatenate((targets, own))
        # Entries of each unit, then of each target's and own cluster's
        # members: what the cluster side reads.
        counts = np.concatenate((self.deg[units], c.cdeg[clusters]))
        cum = counts.cumsum()
        if not _cluster_side(int(self.hops[units].sum()), int(cum[-1])):
            ends, prod, bounds = self.paths(units)
            return self.gains(c.labels, c.S, units, targets, ends, prod,
                              bounds), False
        mine = int(cum[V - 1])  # the units' own entries come first
        if not mine:  # edgeless units share no row with any unit
            zero = np.zeros(V)
            return self._gain(c.S, units, own, targets, zero, zero), True
        csc = self.g.csc
        lone = c.sizes[own] == 1  # own clusters that are not read
        counts[2 * V:][lone] = 0
        cols = np.concatenate((units, c.members(
            np.concatenate((targets, own[~lone])))))
        entries = _ranges(csc.indptr[cols], self.deg[cols])
        # Unit v's entries, its target's member entries and its own
        # cluster's all carry slot v's offset v * n in their keys.
        offsets = np.arange(V) * self.g.n_outcome
        keys = np.repeat(np.concatenate((offsets, offsets, offsets)),
                         counts) + csc.indices[entries]
        key_i = keys[:mine]
        at = key_i.searchsorted(keys[mine:])
        hit = np.flatnonzero(key_i.take(at, mode="clip") == keys[mine:])
        at, hit = at[hit], hit + mine
        # Each hit's slot: the run of entries it lies in, of the 3V laid end
        # to end, less the V unit runs; v for unit v's target, V + v for its
        # own cluster. "right" steps past empty runs.
        slot = counts.cumsum().searchsorted(hit, "right") - V
        w = csc.data
        d = np.bincount(slot, weights=w[entries[hit]] * w[entries[at]],
                        minlength=2 * V)
        d_own = np.where(lone, self.self_term[units], d[V:])
        return self._gain(c.S, units, own, targets, d[:V], d_own), True

    def score_one(self, c, i, b):
        """The gain of moving unit i into cluster b, bit for bit what
        `score` gives for that batch of one, and whether it was scored on
        the cluster side. The gather is scored by `score`; the cluster
        side sums in score's hit order, from 0.0: each member of the
        cluster in turn, its entries in row order, member weight times
        unit weight."""
        indptr, rows, w, hops, deg, self_term, col_sums = self.views
        label, size, S, cdeg, pool, start = c.views[:6]
        a = label[i]
        if not _cluster_side(hops[i], deg[i] + cdeg[b] + cdeg[a]):
            (gain,), _ = self.score(c, np.array([i]), np.array([b]))
            return float(gain), False
        lo, hi = indptr[i], indptr[i + 1]
        unit = dict(zip(rows[lo:hi], w[lo:hi]))

        def d(c):
            total = 0.0
            for j in pool[start[c]:start[c] + size[c]]:
                lo, hi = indptr[j], indptr[j + 1]
                for k, x in zip(rows[lo:hi], w[lo:hi]):
                    y = unit.get(k)
                    if y is not None:
                        total += x * y
            return total

        d_new = d(b)
        d_own = self_term[i] if size[a] == 1 else d(a)
        d_own = d_own - self_term[i]
        s_i = col_sums[i]
        gain = (1.0 + self.phi) * (d_new - d_own) \
            - self.phi * s_i * (S[b] - (S[a] - s_i))
        return 2.0 * self.coin_variance * gain, True


class _Clusters:
    """Each unit's label, and each cluster's size, column total S, summed
    column degrees cdeg and members, pool[start[c]:start[c] + sizes[c]] in
    one int64 arena of 4m slots. They keep the order _MoveDelta sums them
    in: founder first, joiners appended, a leaver replaced by the last
    (where[i] is unit i's place). A full cluster doubles its room at the
    arena's end, compacting the arena first if that has too little."""

    def __init__(self, col_sums, deg):
        m = deg.size
        self.labels = np.arange(m, dtype=np.int64)
        self.sizes = np.ones(m, dtype=np.int64)
        self.S = col_sums.astype(np.float64)
        self.cdeg = deg.astype(np.int64)
        self.start, self.cap = self.labels.copy(), self.sizes.copy()
        self.where = np.zeros(m, dtype=np.int64)
        self.pool = np.zeros(4 * m, dtype=np.int64)
        self.pool[:m] = self.labels  # the rest is untouched until used
        self.end = m  # the arena's slots from here on are free
        self.col_sums, self.deg = col_sums, deg
        # Single elements are read through memoryviews: no numpy scalars.
        self.views = tuple(map(memoryview, (
            self.labels, self.sizes, self.S, self.cdeg, self.pool,
            self.start, self.cap, self.where, col_sums, deg)))

    def members(self, clusters):
        """The members of each of `clusters`, laid end to end."""
        return self.pool[_ranges(self.start[clusters], self.sizes[clusters])]

    def move(self, i, a, b):
        """Move unit i from its cluster a into cluster b."""
        label, size, S, cdeg, pool, start, cap, where, s, deg = self.views
        S[a], S[b] = S[a] - s[i], S[b] + s[i]
        cdeg[a], cdeg[b] = cdeg[a] - deg[i], cdeg[b] + deg[i]
        label[i] = b
        n = size[b]
        if n == cap[b]:  # move b's members to room for 2n at the end
            room = 2 * n or 1
            if self.end + room > len(pool):
                self._compact()
            lo = self.end
            pool[lo:lo + n] = pool[start[b]:start[b] + n]
            start[b], cap[b], self.end = lo, room, lo + room
        # Swap a's last member into i's place, then append i to b.
        size[a] -= 1
        last = pool[start[a] + size[a]]
        pool[start[a] + where[i]] = last
        where[last] = where[i]
        pool[start[b] + n] = i
        where[i] = n
        size[b] = n + 1

    def move_many(self, units, a, b):
        """move(units[v], a[v], b[v]) for every v, with the bits of one
        move at a time: no cluster is in two of the moves."""
        if self.end + 2 * int(self.sizes[b].sum()) + b.size > self.pool.size:
            self._compact()  # then every full cluster of b fits
        for totals, x in ((self.S, self.col_sums), (self.cdeg, self.deg)):
            totals[a] -= x[units]
            totals[b] += x[units]
        self.labels[units] = b
        pool, start, sizes, where = self.pool, self.start, self.sizes, \
            self.where
        sizes[a] -= 1
        last = pool[start[a] + sizes[a]]
        pool[start[a] + where[units]] = last
        where[last] = where[units]
        full = b[sizes[b] == self.cap[b]]
        room = np.maximum(2 * sizes[full], 1)
        lo = self.end + np.cumsum(room) - room
        pool[_ranges(lo, sizes[full])] = self.members(full)
        start[full], self.cap[full] = lo, room
        self.end += int(room.sum())
        pool[start[b] + sizes[b]] = units
        where[units] = sizes[b]
        sizes[b] += 1

    def _compact(self):
        """Lay all members end to end from slot 0, cluster by cluster."""
        m = self.sizes.size
        self.pool[:m] = self.members(np.arange(m))
        self.start[:] = np.cumsum(self.sizes) - self.sizes
        self.cap[:] = self.sizes
        self.end = m


# Visits that could move at the pass start per scored block in
# local_search. Larger blocks make fewer score calls and leave more visits
# stale; of 64, 128, 256 and 512, 256 ran the benchmark's one-pass search
# on the perf-shaped graph and its paired-pool searches fastest.
_BLOCK = 256


def _block_stops(movable, block):
    """Where the blocks of a pass end: each block but the last ends right
    after its `block`-th visit flagged in `movable`, and the last block
    ends with the pass."""
    cum = np.cumsum(movable)
    cuts = np.arange(block, np.count_nonzero(movable), block)
    return np.append(cum.searchsorted(cuts) + 1, movable.size).tolist()


def _cluster_side(gather_cost, cluster_cost):
    """Whether a block is scored on the cluster side: the route that reads
    fewer entries, two-hop paths against the members' column entries."""
    return cluster_cost < gather_cost


def _split_objective(total, S, phi, coin_variance):
    """The objective `total` of a clustering with cluster totals S, split
    into its parts: total = (1 + phi) variance_sum - phi s_sq, where
    s_sq = 4p(1-p) S.S is variance_sum plus covariance_sum. S.S is summed
    by numpy, not a BLAS dot, so that its bits do not depend on the BLAS
    thread count."""
    s_sq = coin_variance * float(np.sum(S * S))
    variance_sum = (total + phi * s_sq) / (1.0 + phi)
    return ObjectiveValue(variance_sum=variance_sum,
                          covariance_sum=s_sq - variance_sum, phi=phi)


def local_search(g, cfg):
    """Greedy improvement over singletons with wedge-sampled move targets.

    Each pass visits every diversion unit in a fresh random permutation,
    samples a partner j by wedge sampling, and moves the unit into j's
    cluster when that strictly improves the objective and the target is
    below k_max. A unit with no edges is its own partner and stays put.
    Stops on a zero-accept pass (if cfg.convergence), the pass budget, or
    the time budget, checked once before each pass: a zero-accept pass
    that ran past the budget still reports converged. The search carries
    the objective from the singletons' closed form by the accepted gains,
    so the trace is non-decreasing by construction, and reports that
    carried value as its result; it never calls objective().

    A pass draws all its wedges up front, from the same doubles the
    per-visit draws would use: rng.permutation(m), then rng.random(2m),
    two per visit. The draws read the wedge tables, cumulative sums of
    the graph's 2 nnz weights; a search that may run another pass builds
    them once and keeps them, and a pass that is the last one max_passes
    allows builds them inside its draw and frees them before its walk.
    The pass is then cut into blocks, each ending after _BLOCK visits
    that could move at the pass start: the partner is in another
    cluster, and that cluster is below k_max. A block's visits that can
    still move are scored against the block-start state and walked in
    order. A move of unit u from cluster c to c' changes d(i, C) and S_C
    only for C in {c, c'}, so a visit's score is stale exactly when an
    earlier accept in the block touched its own or its target cluster,
    and a visit that could not move at the block start can only move
    after such an accept; only those visits are scored again, alone, and
    every decision is the one a visit-by-visit search makes. The visits
    before the first one whose clusters an earlier accept touched make
    their block-start decisions, and their accepts touch distinct
    clusters: they are applied at once, and the walk starts after them.
    The cut only batches the visits, so near convergence, where few
    visits can move, a pass makes few score calls.

    A block, or a visit scored again, is scored by the two-hop gather or
    from its clusters' member columns (see _MoveDelta), whichever reads
    fewer entries: the summed hops(i) of its visits against their summed
    deg(i) + cdeg(A) + cdeg(B). Under a small k_max the cluster side
    wins; clusters that grow large send blocks back to the gather. A
    visit scored again on the cluster side is summed in plain Python, in
    the batch's order, so it gets the batch's bits. The routes sum in
    other orders, so their gains agree to rounding, not bit for bit.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    m = g.n_diversion
    k_max = m if cfg.k_max is None else cfg.k_max
    delta = _MoveDelta(g, cfg.phi, cfg.p)
    state = _Clusters(g.col_sums, delta.deg)
    labels, sizes = state.labels, state.sizes
    label_at, size_at = state.views[:2]
    # Each cluster's first visit in a block to touch it; m for none.
    first_touch = np.full(m, m)
    total = delta.coin_variance * float(np.sum(
        (1.0 + cfg.phi) * delta.self_term - cfg.phi * g.col_sums ** 2))
    trace = []
    start = time.perf_counter()
    converged = False
    tables = None  # the wedge tables, kept while another pass may follow
    for pass_index in islice(count(1), cfg.max_passes):
        if cfg.time_budget is not None and \
                time.perf_counter() - start > cfg.time_budget:
            break
        if tables is None and pass_index != cfg.max_passes:
            tables = list(_wedge_tables(g))
        perm = rng.permutation(m)
        partner = _pass_partners(g, perm, rng.random(2 * m), tables)
        targets = labels[partner]
        movable = (targets != labels[perm]) & (sizes[targets] < k_max)
        accepted = kernel_visits = stale = cluster_visits = skips = lo = 0
        for hi in _block_stops(movable, _BLOCK):
            units, partners = perm[lo:hi], partner[lo:hi]
            lo = hi
            own, targets = labels[units], labels[partners]
            same = targets == own
            scored = np.flatnonzero(~same & (sizes[targets] < k_max))
            gains, on_clusters = delta.score(state, units[scored],
                                             targets[scored])
            # The clean run: the visits before the first whose own or target
            # cluster an earlier block-start accept touches.
            up = scored[gains > ACCEPT_EPS]
            first = units.size
            if up.size:
                ends = np.concatenate((own[up], targets[up]))
                np.minimum.at(first_touch, ends, np.tile(up, 2))
                clash = np.flatnonzero(np.minimum(
                    first_touch[own], first_touch[targets]) < np.arange(first))
                first_touch[ends] = m
                first = int(clash[0]) if clash.size else first
                up = up[:int(up.searchsorted(first))]
                state.move_many(units[up], own[up], targets[up])
            ran = int(scored.searchsorted(first))
            kernel_visits += ran
            cluster_visits += ran * on_clusters
            skips += int(np.count_nonzero(same[:first]))
            accepted += up.size
            for gain in gains[:ran][gains[:ran] > ACCEPT_EPS].tolist():
                total += gain
            if first == units.size:
                continue
            touched = set(own[up].tolist() + targets[up].tolist())
            gains = gains.tolist()
            slot = np.full(units.size, -1)
            slot[scored] = np.arange(scored.size)
            for i, j, a, v in zip(units[first:].tolist(),
                                  partners[first:].tolist(),
                                  own[first:].tolist(),
                                  slot[first:].tolist()):
                b = label_at[j]
                if b == a:
                    skips += 1
                    continue
                if size_at[b] >= k_max:
                    continue
                kernel_visits += 1
                # If b is not the block-start target, unit j moved into b,
                # so b is touched.
                if v >= 0 and a not in touched and b not in touched:
                    gain, side = gains[v], on_clusters
                else:
                    stale += 1
                    gain, side = delta.score_one(state, i, b)
                cluster_visits += side
                if gain > ACCEPT_EPS:
                    total += gain
                    state.move(i, a, b)
                    accepted += 1
                    touched.update((a, b))
        parts = _split_objective(total, state.S, cfg.phi,
                                 delta.coin_variance)
        trace.append(PassTrace(pass_index, accepted, total,
                               parts.variance_sum, parts.covariance_sum,
                               time.perf_counter() - start, kernel_visits,
                               stale, cluster_visits,
                               int(np.count_nonzero(sizes)),
                               int(sizes.max(initial=0)), skips,
                               m - skips - kernel_visits,
                               kernel_visits - accepted))
        if cfg.convergence and accepted == 0:
            converged = True
            break
    return SearchResult(clustering=Clustering.from_labels(labels),
                        objective=_split_objective(total, state.S, cfg.phi,
                                                   delta.coin_variance),
                        trace=tuple(trace), converged=converged)


def local_search_restarts(g, cfg, restarts):
    """Best of `restarts` runs with seeds derived from cfg.seed."""
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    best = None
    for r in range(restarts):
        result = local_search(g, replace(cfg, seed=cfg.seed + r))
        if best is None or result.objective.total > best.objective.total:
            best = result
    return best


def write_trace_csv(trace, path):
    """Search trace as CSV, one row of PassTrace fields per pass, headed by
    their names with pass_index as `pass`; elapsed is wall-clock and thus
    run-specific."""
    names = [f.name for f in fields(PassTrace)]
    write_rows(path, map(astuple, trace), header=["pass"] + names[1:])
