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
import time
from dataclasses import dataclass, replace

import numpy as np

from bipx.design import Clustering, DesignSpec, exposure_moments

# Strict improvement threshold; prevents cycling on exact ties.
ACCEPT_EPS = 1e-12


@dataclass(frozen=True)
class LocalSearchConfig:
    """Knobs for the local search.

    At least one stopping rule must be active: convergence (a full pass
    that accepts no move), max_passes, or time_budget (seconds).
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
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be >= 1")
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


@dataclass(frozen=True)
class SearchResult:
    clustering: Clustering
    objective: ObjectiveValue
    trace: tuple
    converged: bool
    seed: int


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


def exposure_spread_objective(g, c, p=0.5):
    """Expected empirical variance of the exposure vector under the design.

    E[ sum_i (x_i - mean(x))^2 ] equals the trace form
    4p(1-p) sum_C (sum_i agg[i,C]^2 - S_C^2 / n) plus a mean term
    (2p-1)^2 * r^T (I - 11^T/n) r with r the row sums, which vanishes for
    row-normalized graphs.
    """
    g.require_normalized()
    obj = objective(g, c, 0.0, p)
    total = obj.variance_sum + obj.covariance_sum
    return obj.variance_sum - total / g.n_outcome \
        + spread_identity_constant(g, c, p)


def spread_identity_constant(g, c, p=0.5):
    """Additive constant linking the spread to the phi = 1/(n-1) objective.

    spread = ((n-1)/n) * objective(phi = 1/(n-1)).total + constant. The
    constant is the mean term of the spread, zero whenever rows sum to 1.
    """
    r = g.row_sums
    return (2.0 * p - 1.0) ** 2 * float(np.sum((r - r.mean()) ** 2))


def wedge_sample(g, i, rng):
    """Draw a partner diversion unit j with probability c[i, j] / s[i].

    Two stages: pick an outcome unit k with probability w[k, i] / s[i],
    then pick j with probability w[k, j] (rows sum to 1). The marginal of
    j is proportional to the co-weight sum_k w[k, i] w[k, j].
    """
    g.require_normalized()
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    csc, csr = g.cols, g.rows
    if csc.indptr[i] == csc.indptr[i + 1]:
        raise ValueError(f"diversion unit {i} has no incident edges")
    k = _draw(csc.indptr, csc.indices, csc.data, i, rng)
    return int(_draw(csr.indptr, csr.indices, csr.data, k, rng))


def _draw(indptr, indices, data, i, rng):
    """One index of compressed slice i, drawn in proportion to its data."""
    lo, hi = indptr[i], indptr[i + 1]
    cum = np.cumsum(data[lo:hi])
    u = rng.random() * cum[-1]
    return indices[lo + min(int(np.searchsorted(cum, u, side="right")),
                            hi - lo - 1)]


def _slice_cumsum(indptr, data):
    """np.cumsum of every slice data[indptr[s]:indptr[s + 1]], bit for bit.

    Step t adds entry t - 1 to entry t of every slice longer than t, the
    same left-to-right adds np.cumsum makes; slices are ordered by degree
    so the ones still open at step t are a prefix.
    """
    deg = np.diff(indptr)
    starts = indptr[:-1][np.argsort(-deg, kind="stable")]
    longer = deg.size - np.cumsum(np.bincount(deg))  # slices with deg > t
    cum = np.array(data, dtype=np.float64)
    for t in range(1, longer.size):
        at = starts[:longer[t]] + t
        cum[at] += cum[at - 1]
    return cum


def _draw_many(indptr, indices, cum, slices, u):
    """_draw for many non-empty slices at once, given their doubles u.

    `cum` is _slice_cumsum of the data. The drawn offset is the count of
    cum <= u * total in the slice, which is searchsorted(side="right") on
    the non-decreasing cum, clipped to the slice's last entry; bisection
    finds it in log2(max degree) vectorized steps.
    """
    lo = indptr[slices]
    deg = indptr[slices + 1] - lo
    last = lo + deg - 1
    thr = u * cum[last]
    left, right = np.zeros_like(lo), deg
    for _ in range(int(deg.max(initial=0)).bit_length()):
        mid = (left + right) >> 1
        below = cum[np.minimum(lo + mid, last)] <= thr
        open_ = left < right
        left = np.where(open_ & below, mid + 1, left)
        right = np.where(open_ & ~below, mid, right)
    return indices[np.minimum(lo + left, last)]


def _pass_partners(g, perm, u):
    """Wedge-sampled partner of every unit of perm, two doubles of u each.

    Gives the partners that _draw calls on these doubles give, visit by
    visit. A unit with no edges is its own partner. The cumulative sums
    live only for the call, so they do not add to the search's peak
    memory, which the per-pass objective sets.
    """
    csc, csr = g.cols, g.rows
    partner = perm.copy()
    drawn = np.diff(csc.indptr)[perm] > 0
    k = _draw_many(csc.indptr, csc.indices,
                   _slice_cumsum(csc.indptr, csc.data), perm[drawn],
                   u[0::2][drawn])
    partner[drawn] = _draw_many(csr.indptr, csr.indices,
                                _slice_cumsum(csr.indptr, csr.data), k,
                                u[1::2][drawn])
    return partner


def _ranges(starts, lengths):
    """Concatenation of arange(s, s + n) over the pairs (s, n)."""
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if ends.size else 0
    return np.repeat(starts - ends + lengths, lengths) + np.arange(total)


class _MoveDelta:
    """Objective changes of single-unit moves, from a two-hop gather.

    With d(i, C) = sum_{k in col i} w[k, i] sum_{j in row k, a[j] = C}
    w[k, j], moving unit i from its cluster A to cluster B changes the
    objective by 2 * 4p(1-p) * [(1 + phi) (d(i, B) - d(i, A \\ {i}))
    - phi s_i (S_B - (S_A - s_i))], S the cluster column totals.

    The paths i -> k -> j of a batch of units are the CSR rows of their
    outcome units k, laid end to end: each CSC entry (k, i) contributes
    the run of CSR positions of row k. `paths` gathers them once for a
    batch; `gains` reads the current labels at their ends and sums, per
    unit with np.bincount, the paths that land in the own or the target
    cluster.
    """

    def __init__(self, g, phi, p):
        csc, csr = g.cols, g.rows
        self.g = g
        self.phi = phi
        self.coin_variance = 4.0 * p * (1.0 - p)
        self.lens = np.diff(csr.indptr)[csc.indices]
        self.row_start = csr.indptr[csc.indices]
        ends = np.concatenate(([0], np.cumsum(self.lens)))
        self.hops = np.diff(ends[csc.indptr])
        deg = np.diff(csc.indptr)
        self.self_term = np.bincount(
            np.repeat(np.arange(deg.size), deg), weights=csc.data ** 2,
            minlength=deg.size)

    def paths(self, units):
        """Two-hop paths of a batch of units: the unit each path ends in,
        its weight w[k, i] w[k, j], and bounds such that unit v's paths are
        [bounds[v], bounds[v + 1]); a unit is among its own path ends."""
        csc, csr = self.g.cols, self.g.rows
        lo = csc.indptr[units]
        entries = _ranges(lo, csc.indptr[units + 1] - lo)
        reps = self.lens[entries]
        pos = _ranges(self.row_start[entries], reps)
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
        d_new = d(targets)
        d_own = d(own) - self.self_term[units]
        s_i = self.g.col_sums[units]
        gain = (1.0 + self.phi) * (d_new - d_own) \
            - self.phi * s_i * (S[targets] - (S[own] - s_i))
        return 2.0 * self.coin_variance * gain

    def rescore(self, labels, S, i, target, batch=None, v=-1):
        """Gain of moving unit i into `target`, scored alone on its paths:
        slot v of a batch's `paths`, or a fresh gather when v < 0."""
        if v < 0:
            ends, prod, _ = self.paths(np.array([i]))
        else:
            ends, prod, bounds = batch
            ends = ends[bounds[v]:bounds[v + 1]]
            prod = prod[bounds[v]:bounds[v + 1]]
        return self.gains(labels, S, np.array([i]), np.array([target]), ends,
                          prod, np.array([0, ends.size]))[0]


def move_delta(g, assignment, i, target, phi, p=0.5):
    """Objective change from moving unit i into the cluster labelled `target`.

    `assignment` holds one non-negative integer label per diversion unit;
    a label no unit holds makes i a new singleton. Uses the kernel of
    local_search, with the cluster totals S computed from `assignment`.
    """
    g.require_normalized()
    labels = np.asarray(assignment, dtype=np.int64)
    if target == labels[i]:
        return 0.0
    S = np.bincount(labels, weights=g.col_sums,
                    minlength=max(int(labels.max()), target) + 1)
    return float(_MoveDelta(g, phi, p).rescore(labels, S, i, target))


# Visits per two-hop gather in local_search and balanced_partition_baseline.
_BLOCK = 64


def local_search(g, cfg):
    """Greedy improvement over singletons with wedge-sampled move targets.

    Each pass visits every diversion unit in a fresh random permutation,
    samples a partner j by wedge sampling, and moves the unit into j's
    cluster when that strictly improves the objective and the target is
    below k_max. A unit with no edges is its own partner and stays put.
    Stops on a zero-accept pass (if cfg.convergence), the pass budget, or
    the time budget. The per-pass trace records the recomputed objective,
    so it is exact, not drift-accumulated.

    A pass draws all its wedges up front, from the same doubles the
    per-visit draws would use: rng.permutation(m), then rng.random(2m),
    two per visit. Visits are then scored _BLOCK at a time against the
    block-start state and walked in order. A move of unit u from cluster
    c to c' changes d(i, C) and S_C only for C in {c, c'}, so a visit's
    score is stale exactly when an earlier accept in the block touched
    its own or its target cluster; only those visits are scored again,
    and every decision is the one a visit-by-visit search makes.
    """
    g.require_normalized()
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed]))
    m = g.n_diversion
    k_max = m if cfg.k_max is None else cfg.k_max
    delta = _MoveDelta(g, cfg.phi, cfg.p)
    col_sums = g.col_sums.tolist()
    labels = np.arange(m, dtype=np.int64)
    sizes = np.ones(m, dtype=np.int64)
    S = g.col_sums.astype(np.float64)
    trace = []
    start = time.perf_counter()
    converged = False
    pass_index = 0
    while True:
        if cfg.max_passes is not None and pass_index >= cfg.max_passes:
            break
        if cfg.time_budget is not None and \
                time.perf_counter() - start > cfg.time_budget:
            break
        perm = rng.permutation(m)
        partner = _pass_partners(g, perm, rng.random(2 * m))
        accepted = kernel_visits = stale = 0
        for lo in range(0, m, _BLOCK):
            units, partners = perm[lo:lo + _BLOCK], partner[lo:lo + _BLOCK]
            own, targets = labels[units], labels[partners]
            scored = np.flatnonzero((targets != own)
                                    & (sizes[targets] < k_max))
            ends, prod, bounds = delta.paths(units[scored])
            gains = delta.gains(labels, S, units[scored], targets[scored],
                                ends, prod, bounds).tolist()
            batch = ends, prod, bounds.tolist()
            slot = np.full(units.size, -1)
            slot[scored] = np.arange(scored.size)
            touched = set()  # clusters an accept in this block changed
            for i, j, a, v in zip(units.tolist(), partners.tolist(),
                                  own.tolist(), slot.tolist()):
                b = int(labels[j])
                if b == a or sizes[b] >= k_max:
                    continue
                kernel_visits += 1
                # If b is not the block-start target, unit j moved into b,
                # so b is touched.
                if v >= 0 and a not in touched and b not in touched:
                    gain = gains[v]
                else:
                    stale += 1
                    gain = delta.rescore(labels, S, i, b, batch, v)
                if gain > ACCEPT_EPS:
                    S[b] += col_sums[i]
                    S[a] -= col_sums[i]
                    sizes[b] += 1
                    sizes[a] -= 1
                    labels[i] = b
                    accepted += 1
                    touched.update((a, b))
        pass_index += 1
        clustering = Clustering.from_labels(labels)
        obj = objective(g, clustering, cfg.phi, cfg.p)
        trace.append(PassTrace(pass_index, accepted, obj.total,
                               obj.variance_sum, obj.covariance_sum,
                               time.perf_counter() - start, kernel_visits,
                               stale))
        if cfg.time_budget is not None and \
                time.perf_counter() - start > cfg.time_budget:
            break
        if cfg.convergence and accepted == 0:
            converged = True
            break
    if not trace:  # the time budget ran out before the first pass
        clustering = Clustering.singletons(m)
        obj = objective(g, clustering, cfg.phi, cfg.p)
    return SearchResult(clustering=clustering, objective=obj,
                        trace=tuple(trace), converged=converged,
                        seed=cfg.seed)


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


def balanced_partition_baseline(g, k, seed=0, max_passes=15):
    """Size-constrained label propagation over diversion co-weights.

    Starts from round-robin labels (unit j gets j mod k), then repeatedly
    moves each unit to the label with the largest co-weight affinity among
    its two-hop neighbors, subject to the size cap ceil(m/k). Deterministic
    given the seed, which only shuffles the visit order.
    """
    g.require_normalized()
    m = g.n_diversion
    if k < 1 or k > m:
        raise ValueError(f"k must be in [1, {m}]")
    cap = -(-m // k)
    labels = np.arange(m, dtype=np.int64) % k
    sizes = np.bincount(labels, minlength=k)
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    paths = _MoveDelta(g, 0.0, 0.5).paths  # phi and p do not enter paths
    for _ in range(max_passes):
        moved = 0
        perm = rng.permutation(m)
        for lo in range(0, m, _BLOCK):
            # Path ends and weights do not depend on the labels, so a
            # block's units share one gather.
            units = perm[lo:lo + _BLOCK]
            ends, prod, bounds = paths(units)
            for i, a, b in zip(units.tolist(), bounds[:-1].tolist(),
                               bounds[1:].tolist()):
                if a == b:  # a unit with no edges has no affinity
                    continue
                # Affinity to every label among the path ends, summed in
                # path order; labels come sorted, so argmax breaks ties to
                # the smallest label. The own label cannot beat itself.
                labs, at = np.unique(labels[ends[a:b]], return_inverse=True)
                aff = np.bincount(at, weights=prod[a:b])
                cur = labels[i]
                own = aff[labs.searchsorted(cur)]
                aff[sizes[labs] >= cap] = -np.inf
                best = int(np.argmax(aff))
                if aff[best] > own:
                    labels[i] = labs[best]
                    sizes[cur] -= 1
                    sizes[labs[best]] += 1
                    moved += 1
        if moved == 0:
            break
    return Clustering.from_labels(labels)


def write_trace_csv(trace, path):
    """Search trace as CSV; elapsed is wall-clock and thus run-specific."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("pass,moves_accepted,objective_total,variance_sum,"
                 "covariance_sum,elapsed,kernel_visits,stale_recomputes\n")
        for row in trace:
            fh.write(f"{row.pass_index},{row.moves_accepted},"
                     f"{float(row.objective_total)!r},"
                     f"{float(row.variance_sum)!r},"
                     f"{float(row.covariance_sum)!r},{float(row.elapsed)!r},"
                     f"{row.kernel_visits},{row.stale_recomputes}\n")
