"""Treatment designs over diversion units and exact exposure moments.

A design assigns +1 (treatment, probability p) or -1 (control) to every
diversion unit. Bernoulli designs flip one independent coin per unit;
independent cluster designs partition the units and flip one coin per
cluster. Exposure moments under either design have closed forms through
the cluster-aggregated weights. The brute-force route over all 2^k cluster
coin outcomes, which the tests check these against, is in bipx.oracle.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from bipx.graph_core import TOKEN_PAD, BipxError, Compressed, compress, \
    first_appearance_codes, id_keys, read_numbers, sum_rows, text_lines, \
    token_groups, tokenize, write_rows

# Below this exposure variance the reweighting term 1/Var explodes; designs
# that produce one are rejected as degenerate.
VAR_FLOOR = 1e-10

# cluster_aggregated_weights sums blocks of about this many graph entries.
_AGG_ENTRIES = 1 << 16

BERNOULLI = "bernoulli"
INDEPENDENT_CLUSTER = "independent-cluster"


class DesignError(BipxError, ValueError):
    pass


class DegenerateDesignError(DesignError):
    """Some exposure variance fell below VAR_FLOOR.

    `units` holds outcome unit indices; the message names the first 20 by
    `ids` (the graph's outcome ids) when given, else by index.
    """

    def __init__(self, units, ids=None):
        self.units = [int(u) for u in units]
        names = [str(u) if ids is None else ids[u] for u in self.units[:20]]
        more = len(self.units) - len(names)
        super().__init__(
            "degenerate design: zero exposure variance for outcome units "
            + ", ".join(names) + (f" (+{more} more)" if more else ""))


def derived_rng(base_seed, replicate):
    """The generator of replicate r = `replicate` of a simulation seeded by
    base_seed: PCG64(SeedSequence([base_seed])) advanced to position
    r * 2^64 of its one stream, so that a replicate's draws do not depend
    on which replicates were drawn before it. base_seed is checked by
    numpy's own SeedSequence; r must lie in [0, 2^64), since PCG64.advance
    takes any integer and one outside would land on another replicate."""
    if not 0 <= replicate < 1 << 64:
        raise ValueError(f"replicate must be in [0, 2**64), got {replicate}")
    bits = np.random.PCG64(np.random.SeedSequence([base_seed]))
    return np.random.Generator(bits.advance(int(replicate) << 64))


def replicate_coins(rng, out):
    """Fill each row of the float64 array out with one replicate's doubles,
    starting at the replicate whose position rng is at (derived_rng), and
    leave rng at the position of the replicate after the last row."""
    skip = (1 << 64) - out.shape[1]
    for row in out:
        rng.random(out=row)
        rng.bit_generator.advance(skip)


def coin_signs(coins, p, out):
    """Write +1 where a coin is below p and -1 elsewhere into the float64
    array out, which may be coins itself; return out."""
    np.less(coins, p, out=out)
    out *= 2.0
    out -= 1.0
    return out


@dataclass(frozen=True)
class Clustering:
    """A partition of the m diversion units into k non-empty clusters.

    assignment[j] is the dense cluster id of unit j, and every id in
    [0, k) is non-empty. sizes[c], its member count, is derived from it.
    """

    assignment: np.ndarray

    @classmethod
    def from_labels(cls, labels):
        """Build from arbitrary integer labels, densifying cluster ids.

        Dense ids follow first appearance order of the labels. Labels
        that are such ids already (the first is 0, none is negative, and
        none is more than one above every label before it) are copied,
        not sorted.
        """
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-d integer array")
        if labels[0] == 0 and labels.min() >= 0 and \
                (np.diff(np.maximum.accumulate(labels)) <= 1).all():
            return cls(labels.copy())
        return cls(first_appearance_codes(labels)[0].astype(np.int64))

    def __post_init__(self):
        a = self.assignment
        if a.ndim != 1:
            raise ValueError("assignment must be 1-d")
        # np.bincount refuses a negative id, so it is checked first.
        if a.size and a.min() < 0:
            raise ValueError("cluster ids must be >= 0")
        if np.any(self.sizes <= 0):
            raise ValueError("cluster ids must be dense (no empty clusters)")

    @cached_property
    def sizes(self):
        return np.bincount(self.assignment)

    @property
    def m(self):
        return int(self.assignment.size)

    @property
    def k(self):
        return int(self.sizes.size)

    @classmethod
    def singletons(cls, m):
        return cls(np.arange(m, dtype=np.int64))

    @classmethod
    def one_cluster(cls, m):
        return cls(np.zeros(m, dtype=np.int64))


def write_clustering(c, g, path):
    """Write `diversion_id<TAB>cluster_id` lines in diversion index order."""
    write_rows(path, zip(g.diversion_ids, c.assignment.tolist()), sep="\t")


def read_clustering(g, path):
    """Read a `diversion_id<TAB>cluster_id` file, its lines read as
    text_lines reads them; every diversion unit must appear exactly once,
    with a 64-bit integer cluster id. _clustering_block alone builds the
    labels; a file it refuses holds an error, which _clustering_lines
    raises with its `path:line`."""
    with open(path, "rb") as fh:
        labels = _clustering_block(g, fh.read())
    if labels is None:
        _clustering_lines(g, path)
    return Clustering.from_labels(labels)


def _clustering_block(g, blob):
    """The labels, in diversion index order, of a clustering file's bytes,
    or None when the file holds an error. A line's text runs from its first
    token to its last and holds one tab; ids are matched to the graph's in
    groups of one width, and cluster ids read by read_numbers with int().
    No line names a graph id holding a newline or '#' (tokenize reads a NUL
    as '#'), so such a graph is refused."""
    if (tokens := tokenize(blob, "\n\t")) is None:
        return None
    # Line k's tokens are lines[k] to lines[k + 1] - 1; a tab lies in its
    # text when the token after the tab is one of them but the first.
    byte, starts, ends, [(_, breaks), (tabs, word)] = tokens
    first = np.zeros(starts.size + 1, dtype=bool)
    first[0] = first[breaks] = True
    lines = np.flatnonzero(first)
    inside = ~first[word]
    tabs, word = tabs[inside], word[inside]
    # Arrays are dropped once used, which lowers the peak by a third.
    del tokens, _, breaks, first, inside
    if not (lines.size == g.n_diversion + 1 == word.size + 1
            and (lines[:-1] < word).all() and (word < lines[1:]).all()):
        return None
    labels = read_numbers(token_groups(byte, tabs + 1, ends[lines[1:] - 1]),
                          tabs.size, np.int64, int)
    groups = token_groups(byte, starts[lines[:-1]], tabs)
    del tabs, word, lines, byte, starts, ends
    # Each id ends in a newline; surrogates of a non-UTF-8 id match no file.
    known = "\n".join((*g.diversion_ids, "")).encode("utf-8", "surrogatepass")
    graph_byte = np.frombuffer(known.replace(b"\0", b"#") + TOKEN_PAD,
                               dtype=np.uint8)
    graph_ends = np.flatnonzero(graph_byte[:len(known)] == ord("\n"))
    graph_groups = token_groups(graph_byte, np.r_[0, graph_ends + 1][:-1],
                                graph_ends)
    if (labels is None or b"#" in known or graph_ends.size != g.n_diversion
            or groups.keys() != graph_groups.keys()):
        return None
    out = np.empty(g.n_diversion, dtype=np.int64)
    for width, (at, ids) in groups.items():
        graph_at, graph_ids = graph_groups[width]
        ids, graph_ids = id_keys(ids), id_keys(graph_ids)
        line_order, order = np.argsort(ids), np.argsort(graph_ids)
        graph_ids = graph_ids[order]
        if not (np.array_equal(ids[line_order], graph_ids)
                and (graph_ids[1:] != graph_ids[:-1]).all()):
            return None
        out[np.arange(g.n_diversion)[graph_at][order]] = \
            labels[np.arange(labels.size)[at][line_order]]
    return out


def _clustering_lines(g, path):
    """Raise the first error of a file _clustering_block refused, read a
    line at a time: the one place that raises a clustering file's errors."""
    def bad(line_no, why):
        return DesignError(f"{path}:{line_no}: {why}")

    index = {did: j for j, did in enumerate(g.diversion_ids)}
    seen = np.zeros(g.n_diversion, dtype=bool)
    for line_no, text in text_lines(path, bad):
        parts = text.split("\t")
        if len(parts) != 2:
            raise bad(line_no, "expected 'diversion_id<TAB>cluster_id'")
        did, cid = parts
        if did not in index:
            raise bad(line_no, f"unknown diversion id {did!r}")
        j = index[did]
        if seen[j]:
            raise bad(line_no, f"duplicate entry for {did!r}")
        try:
            np.int64(int(cid))
        except (ValueError, OverflowError):
            raise bad(line_no,
                      f"cluster id {cid!r} is not a 64-bit integer") from None
        seen[j] = True
    if not seen.all():
        missing = [g.diversion_ids[j] for j in np.flatnonzero(~seen)]
        raise DesignError(f"{path}: missing diversion unit(s): {missing[:5]}")
    raise AssertionError(f"{path}: a refused clustering file holds no error")


@dataclass(frozen=True)
class DesignSpec:
    """A treatment distribution: Bernoulli(p) or IndependentCluster(c, p).

    p must lie strictly inside (0, 1); p in {0, 1} gives every exposure
    zero variance and no design-based estimate exists.
    """

    kind: str
    p: float = 0.5
    clustering: Clustering | None = None
    # design_aggregates' memo: (weakref to a graph, its aggregates, its raw
    # moments).
    _built: tuple | None = field(default=None, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        if self.kind not in (BERNOULLI, INDEPENDENT_CLUSTER):
            raise ValueError(f"unknown design kind {self.kind!r}")
        if not (0.0 < self.p < 1.0):
            raise ValueError(f"treatment probability must be in (0, 1), got {self.p}")
        if self.kind == INDEPENDENT_CLUSTER and self.clustering is None:
            raise ValueError("independent-cluster design requires a clustering")
        if self.kind == BERNOULLI and self.clustering is not None:
            raise ValueError("Bernoulli design does not take a clustering")

    def __getstate__(self):
        # The memo holds a weak reference, which pickle cannot take.
        return {**self.__dict__, "_built": None}

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

    def degenerate_units(self):
        return np.flatnonzero(self.variance < VAR_FLOOR)


def cluster_aggregated_weights(g, c):
    """The n x k aggregates agg[i, C] = sum_{j in C} w[i, j], a Compressed
    CSR.

    The incidence matrix summed column-wise by cluster; its rows, like
    the graph's, sum to 1. Each sum adds its row's weights in column
    order, and sums of zero are left out, as scipy.sparse's product of
    g.rows with the cluster membership matrix does; the aggregates have
    that product's bits.
    """
    if c.m != g.n_diversion:
        raise ValueError("clustering does not cover the graph's diversion units")
    w = g.csr
    # Blocks of whole rows of about _AGG_ENTRIES entries, which bounds the
    # working memory; no sum spans two blocks.
    cuts = np.r_[0, np.searchsorted(w.indptr, np.arange(
        _AGG_ENTRIES, g.nnz, _AGG_ENTRIES)), g.n_outcome]
    # The aggregates have at most as many entries as the graph.
    indptr = np.zeros(g.n_outcome + 1, dtype=np.int64)
    indices, data = np.empty(g.nnz, dtype=np.int64), np.empty(g.nnz)
    for lo, hi in zip(cuts[:-1].tolist(), cuts[1:].tolist()):
        entries = slice(w.indptr[lo], w.indptr[hi])
        row = np.repeat(np.arange(hi - lo), np.diff(w.indptr[lo:hi + 1]))
        # A zero weight adds nothing to a sum, and the product leaves out
        # the sums that are zero.
        nonzero = w.data[entries] != 0
        block = compress(row[nonzero],
                         c.assignment[w.indices[entries][nonzero]],
                         w.data[entries][nonzero], (hi - lo, c.k))
        indptr[lo + 1:hi + 1] = indptr[lo] + block.indptr[1:]
        indices[indptr[lo]:indptr[hi]] = block.indices
        data[indptr[lo]:indptr[hi]] = block.data
    return Compressed(indptr, indices[:indptr[-1]], data[:indptr[-1]],
                      (g.n_outcome, c.k))


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
    coins = rng.random(c.k)
    return coin_signs(coins, d.p, out=coins)[c.assignment]


def design_aggregates(g, d, check=True):
    """(aggregates, moments) of design d on graph g: the Compressed
    cluster_aggregated_weights and the closed-form exposure moments.

    E[x_i] = (2p - 1) * (row sum); Var[x_i] = 4p(1-p) * sum_C agg[i, C]^2,
    because cluster coins are independent with variance 4p(1-p) each.
    Both are built once per design for the graph object they were built
    on, kept on d beside a weak reference to g, and handed out read-only;
    another graph object rebuilds them. Raises DegenerateDesignError on
    every call whose moments have a variance below VAR_FLOOR, unless
    check=False, for diagnostics that want the raw values.
    """
    built = d._built
    if built is None or built[0]() is not g:
        agg = cluster_aggregated_weights(
            g, d.effective_clustering(g.n_diversion))
        # scipy's sparse products take int32 indices wherever they fit, and
        # then share these arrays rather than copy them.
        if max(agg.indptr[-1], *agg.shape) <= np.iinfo(np.int32).max:
            agg = agg._replace(indptr=agg.indptr.astype(np.int32),
                               indices=agg.indices.astype(np.int32))
        mom = ExposureMoments(
            (2.0 * d.p - 1.0) * g.row_sums,
            d.coin_variance * sum_rows(agg._replace(data=agg.data ** 2)))
        for a in (agg.indptr, agg.indices, agg.data, mom.mean, mom.variance):
            a.flags.writeable = False
        built = (weakref.ref(g), agg, mom)
        object.__setattr__(d, "_built", built)
    _, agg, mom = built
    if check and mom.degenerate_units().size:
        raise DegenerateDesignError(mom.degenerate_units(), g.outcome_ids)
    return agg, mom


def exposure_moments(g, d, check=True):
    """The design's exposure moments on g, as design_aggregates gives them."""
    return design_aggregates(g, d, check)[1]


def write_moments_csv(mom, g, path):
    """CSV export with columns (outcome_id, mean, variance), each value by
    its shortest repr."""
    write_rows(path, zip(g.outcome_ids, mom.mean.tolist(),
                         mom.variance.tolist()),
               header=("outcome_id", "mean", "variance"))
