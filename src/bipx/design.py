"""Treatment designs over diversion units and exact exposure moments.

A design assigns +1 (treatment, probability p) or -1 (control) to every
diversion unit. Bernoulli designs flip one independent coin per unit;
independent cluster designs partition the units and flip one coin per
cluster. Exposure moments under either design have closed forms through
the cluster-aggregated weights. The brute-force route over all 2^k cluster
coin outcomes, which the tests check these against, is in bipx.oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

# Below this exposure variance the reweighting term 1/Var explodes; designs
# that produce one are rejected as degenerate.
VAR_FLOOR = 1e-10

BERNOULLI = "bernoulli"
INDEPENDENT_CLUSTER = "independent-cluster"


class DesignError(ValueError):
    pass


class DegenerateDesignError(DesignError):
    """Some exposure variance fell below VAR_FLOOR.

    `units` holds outcome unit indices; callers that know the graph can
    map them to ids for display.
    """

    def __init__(self, units, variances=None):
        self.units = [int(u) for u in units]
        self.variances = variances
        super().__init__(
            f"{len(self.units)} outcome unit(s) have exposure variance below "
            f"{VAR_FLOOR}: {self.units[:10]}")


def derived_rng(base_seed, replicate):
    """Replicate-indexed generator: deterministic and order-independent."""
    return np.random.default_rng(np.random.SeedSequence([base_seed, replicate]))


@dataclass(frozen=True)
class Clustering:
    """A partition of the m diversion units into k non-empty clusters.

    assignment[j] is the dense cluster id of unit j; sizes[c] its member
    count. Every id in [0, k) is non-empty.
    """

    assignment: np.ndarray
    sizes: np.ndarray = field(repr=False)

    @classmethod
    def from_labels(cls, labels):
        """Build from arbitrary integer labels, densifying cluster ids.

        Dense ids follow first appearance order of the labels.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d integer array")
        uniq, first_pos, dense = np.unique(labels, return_index=True,
                                           return_inverse=True)
        # Remap so cluster 0 is the first label seen, cluster 1 the next, ...
        order = np.argsort(first_pos, kind="stable")
        rank = np.empty_like(order)
        rank[order] = np.arange(order.size)
        dense = rank[dense]
        sizes = np.bincount(dense, minlength=uniq.size)
        return cls(dense.astype(np.int64), sizes.astype(np.int64))

    def __post_init__(self):
        a = self.assignment
        if a.ndim != 1:
            raise ValueError("assignment must be 1-d")
        if self.sizes.sum() != a.size:
            raise ValueError("sizes must sum to the number of diversion units")
        if np.any(self.sizes <= 0):
            raise ValueError("cluster ids must be dense (no empty clusters)")

    @property
    def m(self):
        return int(self.assignment.size)

    @property
    def k(self):
        return int(self.sizes.size)

    @classmethod
    def singletons(cls, m):
        return cls(np.arange(m, dtype=np.int64), np.ones(m, dtype=np.int64))

    @classmethod
    def one_cluster(cls, m):
        return cls(np.zeros(m, dtype=np.int64),
                   np.array([m], dtype=np.int64))


def write_clustering(c, g, path):
    """Write `diversion_id<TAB>cluster_id` lines in diversion index order."""
    with open(path, "w", encoding="utf-8") as fh:
        for j in range(c.m):
            fh.write(f"{g.diversion_ids[j]}\t{c.assignment[j]}\n")


def read_clustering(g, path):
    """Read a clustering file; every diversion unit must appear exactly once."""
    index = {did: j for j, did in enumerate(g.diversion_ids)}
    labels = np.full(g.n_diversion, -1, dtype=np.int64)
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            parts = text.split("\t")
            if len(parts) != 2:
                raise DesignError(
                    f"{path}:{line_no}: expected 'diversion_id<TAB>cluster_id'")
            did, cid = parts
            if did not in index:
                raise DesignError(f"{path}:{line_no}: unknown diversion id {did!r}")
            j = index[did]
            if labels[j] != -1:
                raise DesignError(f"{path}:{line_no}: duplicate entry for {did!r}")
            try:
                labels[j] = int(cid)
            except ValueError:
                raise DesignError(
                    f"{path}:{line_no}: cluster id {cid!r} is not an integer")
    if np.any(labels == -1):
        missing = [g.diversion_ids[j] for j in np.flatnonzero(labels == -1)]
        raise DesignError(f"{path}: missing diversion unit(s): {missing[:5]}")
    return Clustering.from_labels(labels)


@dataclass(frozen=True)
class DesignSpec:
    """A treatment distribution: Bernoulli(p) or IndependentCluster(c, p).

    p must lie strictly inside (0, 1); p in {0, 1} gives every exposure
    zero variance and no design-based estimate exists.
    """

    kind: str
    p: float = 0.5
    clustering: Clustering | None = None

    def __post_init__(self):
        if self.kind not in (BERNOULLI, INDEPENDENT_CLUSTER):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"treatment probability must be in (0, 1), got {self.p}")
        if self.kind == INDEPENDENT_CLUSTER and self.clustering is None:
            raise ValueError("independent-cluster design requires a clustering")
        if self.kind == BERNOULLI and self.clustering is not None:
            raise ValueError("Bernoulli design does not take a clustering")

    @classmethod
    def bernoulli(cls, p=0.5):
        return cls(BERNOULLI, p)

    @classmethod
    def independent_cluster(cls, clustering, p=0.5):
        return cls(INDEPENDENT_CLUSTER, p, clustering)

    def effective_clustering(self, m):
        """Bernoulli is the all-singleton special case."""
        if self.kind == BERNOULLI:
            return Clustering.singletons(m)
        if self.clustering.m != m:
            raise ValueError(
                f"clustering covers {self.clustering.m} units, graph has {m}")
        return self.clustering

    @property
    def coin_variance(self):
        """Variance of one +/-1 coin with success probability p: 4p(1-p)."""
        return 4.0 * self.p * (1.0 - self.p)


@dataclass(frozen=True)
class ExposureMoments:
    """Per-outcome-unit mean and variance of exposures under a design."""

    mean: np.ndarray
    variance: np.ndarray
    design: DesignSpec = field(repr=False)

    def degenerate_units(self):
        return np.flatnonzero(self.variance < VAR_FLOOR)


@dataclass(frozen=True)
class ClusterAggregatedWeights:
    """Sparse per-(outcome, cluster) aggregates of the incidence weights.

    agg[i, C] = sum over cluster C's members j of w[i, j]; row sums stay 1
    for a normalized graph. cluster_col_sums[C] aggregates the per-column
    totals, S_C = sum_{j in C} s_j.
    """

    agg: sp.csr_matrix
    cluster_col_sums: np.ndarray

    @property
    def k(self):
        return self.agg.shape[1]


def cluster_aggregated_weights(g, c):
    """Aggregate the incidence matrix column-wise by cluster."""
    if c.m != g.n_diversion:
        raise ValueError("clustering does not cover the graph's diversion units")
    member = sp.csr_matrix(
        (np.ones(c.m), (np.arange(c.m), c.assignment)),
        shape=(c.m, c.k))
    agg = (g.rows @ member).tocsr()
    agg.sort_indices()
    s_c = np.bincount(c.assignment, weights=g.col_sums, minlength=c.k)
    return ClusterAggregatedWeights(agg, s_c)


def sample_assignment(d, rng, m=None):
    """Draw one +/-1 assignment: one independent coin per cluster.

    rng is a numpy Generator (or an int seed). All members of a cluster
    share their cluster's coin; +1 lands with probability p. Bernoulli
    designs need the diversion unit count m; cluster designs imply it.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if d.kind == INDEPENDENT_CLUSTER:
        m = d.clustering.m
    elif m is None:
        raise ValueError("Bernoulli sampling needs the diversion unit count m")
    c = d.effective_clustering(m)
    coins = np.where(rng.random(c.k) < d.p, 1.0, -1.0)
    return coins[c.assignment]


def exposure_moments(g, d, check=True):
    """Closed-form exposure mean and variance under the design.

    E[x_i] = (2p - 1) * (row sum); Var[x_i] = 4p(1-p) * sum_C agg[i, C]^2,
    because cluster coins are independent with variance 4p(1-p) each.
    Raises DegenerateDesignError when any variance falls below VAR_FLOOR
    (unless check=False, for diagnostics that want the raw values).
    """
    g.require_normalized()
    c = d.effective_clustering(g.n_diversion)
    return aggregate_moments(g, d, cluster_aggregated_weights(g, c), check)


def aggregate_moments(g, d, caw, check=True):
    """exposure_moments from the design's prebuilt cluster aggregates.

    For callers that also need `caw`, so it is built once.
    """
    mean = (2.0 * d.p - 1.0) * np.asarray(g.rows.sum(axis=1)).ravel()
    sq = caw.agg.copy()
    sq.data = sq.data ** 2
    variance = d.coin_variance * np.asarray(sq.sum(axis=1)).ravel()
    if check:
        bad = np.flatnonzero(variance < VAR_FLOOR)
        if bad.size:
            raise DegenerateDesignError(bad, variance)
    return ExposureMoments(mean, variance, d)


def write_moments_csv(mom, g, path):
    """CSV export with columns (outcome_id, mean, variance)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("outcome_id,mean,variance\n")
        for i in range(g.n_outcome):
            fh.write(f"{g.outcome_ids[i]},{float(mom.mean[i])!r},"
                     f"{float(mom.variance[i])!r}\n")
