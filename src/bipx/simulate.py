"""Monte Carlo harness: scenario models, replicated runs, reports.

Three outcome-model scenarios over a fixed graph:

* PositiveTE: slopes Normal(1, 1/4), intercepts Normal(0, 1/8), i.i.d.
* ZeroTE: slopes Normal(0, 1/8), intercepts Normal(2, 1/4), i.i.d.
* GraphDependent: outcome units grouped by complete-linkage clustering of
  their pairwise similarity; one (slope, intercept) pair per group.

All Normal(mean, var) draws use the inverse CDF applied to a 53-bit
uniform, so the stream is reproducible across library versions. A model
is drawn exactly once per model_seed; replicates only redraw treatment
assignments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from bipx.cluster_opt import local_search
from bipx.design import DesignSpec, aggregate_moments, \
    cluster_aggregated_weights, derived_rng
from bipx.estimator import OutcomeModel, true_ate

POSITIVE_TE = "PositiveTE"
ZERO_TE = "ZeroTE"
GRAPH_DEPENDENT = "GraphDependent"
_KINDS = (POSITIVE_TE, ZERO_TE, GRAPH_DEPENDENT)

_DEFAULTS = {
    POSITIVE_TE: dict(slope_mean=1.0, slope_var=0.25,
                      intercept_mean=0.0, intercept_var=0.125),
    ZERO_TE: dict(slope_mean=0.0, slope_var=0.125,
                  intercept_mean=2.0, intercept_var=0.25),
    GRAPH_DEPENDENT: dict(slope_mean=1.0, slope_var=0.5,
                          intercept_mean=0.0, intercept_var=0.125),
}


# A block of replicates holds at most this many coins (and at most
# _MAX_BLOCK replicates): a larger coin block falls out of cache, which
# made 64-replicate blocks slower than single replicates at k = 1e5.
_BLOCK_COINS = 1 << 17
_MAX_BLOCK = 64

# outcome_linkage_labels holds about 28 n^2 bytes of dense matrices; this
# many outcome units keeps them under about 0.7 GB.
MAX_LINKAGE_UNITS = 5000


class ScenarioError(ValueError):
    """Bad scenario kind, parameter, or file contents."""


@dataclass(frozen=True)
class ScenarioSpec:
    """Outcome-model recipe: which scenario, its parameters, its seed."""

    kind: str
    slope_mean: float
    slope_var: float
    intercept_mean: float
    intercept_var: float
    n_outcome_clusters: int = 1
    model_seed: int = 0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ScenarioError(f"unknown scenario kind {self.kind!r}")
        if self.slope_var < 0 or self.intercept_var < 0:
            raise ScenarioError("variances must be >= 0")
        if self.kind == GRAPH_DEPENDENT and self.n_outcome_clusters < 1:
            raise ScenarioError("n_outcome_clusters must be >= 1")

    @classmethod
    def preset(cls, kind, model_seed=0, n_outcome_clusters=1, **overrides):
        if kind not in _DEFAULTS:
            raise ScenarioError(f"unknown scenario kind {kind!r}")
        params = dict(_DEFAULTS[kind])
        params.update(overrides)
        return cls(kind=kind, model_seed=model_seed,
                   n_outcome_clusters=n_outcome_clusters, **params)

    @classmethod
    def positive_te(cls, model_seed=0, **overrides):
        return cls.preset(POSITIVE_TE, model_seed, **overrides)

    @classmethod
    def zero_te(cls, model_seed=0, **overrides):
        return cls.preset(ZERO_TE, model_seed, **overrides)

    @classmethod
    def graph_dependent(cls, n_outcome_clusters, model_seed=0, **overrides):
        return cls.preset(GRAPH_DEPENDENT, model_seed,
                          n_outcome_clusters=n_outcome_clusters, **overrides)


def read_scenario_file(path):
    """Parse a `key = value` scenario file into a ScenarioSpec.

    Lines starting with `#` and blank lines are skipped. `kind` is
    required; other keys override the kind's default parameters.
    """
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ScenarioError(
                    f"{path}:{line_no}: expected key = value, got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key in values:
                raise ScenarioError(f"{path}:{line_no}: duplicate key {key!r}")
            values[key] = value
    if "kind" not in values:
        raise ScenarioError(f"{path}: missing required key 'kind'")
    kind = values.pop("kind")
    kwargs = {}
    for key, value in values.items():
        if key in ("model_seed", "n_outcome_clusters"):
            kwargs[key] = int(value)
        elif key in ("slope_mean", "slope_var",
                     "intercept_mean", "intercept_var"):
            kwargs[key] = float(value)
        else:
            raise ScenarioError(f"{path}: unknown scenario key {key!r}")
    try:
        return ScenarioSpec.preset(kind, **kwargs)
    except TypeError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def write_scenario_file(spec, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"kind = {spec.kind}\n")
        fh.write(f"slope_mean = {spec.slope_mean!r}\n")
        fh.write(f"slope_var = {spec.slope_var!r}\n")
        fh.write(f"intercept_mean = {spec.intercept_mean!r}\n")
        fh.write(f"intercept_var = {spec.intercept_var!r}\n")
        if spec.kind == GRAPH_DEPENDENT:
            fh.write(f"n_outcome_clusters = {spec.n_outcome_clusters}\n")
        fh.write(f"model_seed = {spec.model_seed}\n")


def normal_draw(rng, size, mean, var):
    """Normal(mean, var) via inverse CDF of a 53-bit uniform.

    Fixed sampling method: u = (k + 0.5) / 2^53 with k uniform on
    [0, 2^53), then mean + sqrt(var) * ndtri(u). Unlike the generator's
    built-in normal() this does not depend on the library's choice of
    ziggurat tables, so seeded streams stay stable across versions.
    var = 0 returns the mean exactly.
    """
    # Imported here: scipy.special takes about 65 ms to load, and most
    # bipx commands never draw a normal.
    from scipy.special import ndtri
    u = (rng.integers(0, 1 << 53, size=size).astype(np.float64) + 0.5) \
        / float(1 << 53)
    return mean + np.sqrt(var) * ndtri(u)


def outcome_linkage_labels(g, n_clusters):
    """Group outcome units by complete-linkage on pairwise similarity.

    Similarity is the shared-diversion weight sum; the linkage distance is
    its negation shifted to be non-negative (a uniform shift does not
    change complete-linkage merge order, only dendrogram heights).
    """
    n = g.n_outcome
    if n_clusters >= n:
        return np.arange(n, dtype=np.int64)
    if n > MAX_LINKAGE_UNITS:
        raise ScenarioError(
            f"GraphDependent linkage over {n} outcome units needs dense "
            f"n x n similarity and distance matrices plus their condensed "
            f"form, about 28 n^2 bytes = {28 * n * n / 1e9:.1f} GB; the "
            f"limit is {MAX_LINKAGE_UNITS} outcome units")
    # Imported here: they add about 0.12 s to every bipx process otherwise.
    import scipy.cluster.hierarchy as sch
    import scipy.spatial.distance as ssd

    sim = (g.rows @ g.rows.T).toarray()
    dist = np.max(sim) - sim
    np.fill_diagonal(dist, 0.0)
    condensed = ssd.squareform(dist, checks=False)
    link = sch.linkage(condensed, method="complete")
    labels = sch.fcluster(link, t=n_clusters, criterion="maxclust")
    return labels.astype(np.int64)


def generate_outcome_model(g, spec):
    """Draw the scenario's outcome model; one draw per model_seed."""
    rng = np.random.default_rng(np.random.SeedSequence([spec.model_seed]))
    n = g.n_outcome
    if spec.kind in (POSITIVE_TE, ZERO_TE):
        slopes = normal_draw(rng, n, spec.slope_mean, spec.slope_var)
        intercepts = normal_draw(rng, n, spec.intercept_mean,
                                 spec.intercept_var)
        return OutcomeModel(slopes=slopes, intercepts=intercepts)
    labels = outcome_linkage_labels(g, spec.n_outcome_clusters)
    uniq = np.unique(labels)
    slopes_c = normal_draw(rng, uniq.size, spec.slope_mean, spec.slope_var)
    inter_c = normal_draw(rng, uniq.size, spec.intercept_mean,
                          spec.intercept_var)
    lookup = {lab: k for k, lab in enumerate(uniq)}
    pos = np.array([lookup[lab] for lab in labels], dtype=np.int64)
    return OutcomeModel(slopes=slopes_c[pos], intercepts=inter_c[pos])


@dataclass(frozen=True)
class SimulationReport:
    """Replicated-run summary for one (graph, design, model) triple."""

    design_name: str
    scenario_name: str
    true_ate: float
    estimates: np.ndarray
    bias: float
    mse: float
    histogram: tuple  # (edges ndarray, counts ndarray)

    @property
    def n_replicates(self):
        return len(self.estimates)

    @property
    def mean_estimate(self):
        return self.true_ate + self.bias

    def estimate_array(self):
        return self.estimates

    def standard_error(self):
        """Standard error of the mean estimate, taken as sqrt(mse / R).

        `mse` holds the squared bias as well as the variance, so this is
        exact only at zero bias.
        """
        return float(np.sqrt(self.mse / self.n_replicates))

    def mse_standard_error(self):
        """Monte Carlo standard error of `mse`: std((est - tau)^2) / sqrt(R).

        Uses ddof=1, so it is nan for a single replicate.
        """
        if self.n_replicates < 2:
            return float("nan")
        sq = (self.estimates - self.true_ate) ** 2
        return float(np.std(sq, ddof=1) / np.sqrt(self.n_replicates))


def build_histogram(values, bins):
    """Equal-width bins spanning [min, max] of the values exactly."""
    if bins < 1:
        raise ValueError("bins must be >= 1")
    values = np.asarray(values, dtype=np.float64)
    lo, hi = float(values.min()), float(values.max())
    if lo == hi:
        # All estimates identical; one degenerate bin holds everything.
        edges = np.array([lo, hi])
        return edges, np.array([values.size], dtype=np.int64)
    edges = np.linspace(lo, hi, bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    return edges, counts.astype(np.int64)


def run_simulation(g, d, model, replicates, base_seed, *,
                   design_name="", scenario_name="", bins=50):
    """Replicate the experiment: assign, expose, respond, estimate.

    Replicate r uses the generator seeded by (base_seed, r), so results
    do not depend on execution order and rerunning any subset reproduces
    the same estimates. Its cluster coins are the doubles
    `sample_assignment` draws from that generator, and its exposures are
    agg @ coins over the design's cluster aggregates, computed for a block
    of replicates per sparse product.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    g.require_normalized()
    if model.n != g.n_outcome:
        raise ValueError("exposure vector length does not match the model")
    c = d.effective_clustering(g.n_diversion)
    caw = cluster_aggregated_weights(g, c)
    mom = aggregate_moments(g, d, caw)
    tau = true_ate(model)
    ests = np.empty(replicates, dtype=np.float64)
    block = max(1, min(_MAX_BLOCK, _BLOCK_COINS // c.k))
    coins = np.empty((block, c.k), dtype=np.float64)
    for start in range(0, replicates, block):
        b = min(block, replicates - start)
        for row in range(b):
            coins[row] = derived_rng(base_seed, start + row).random(c.k)
        signs = np.where(coins[:b] < d.p, 1.0, -1.0)
        # (n, b) from the sparse product, transposed so that each
        # replicate's terms are summed along one contiguous row: the sum
        # then has the same bits whatever the block size.
        x = np.ascontiguousarray((caw.agg @ signs.T).T)
        y = model.slopes * x + model.intercepts
        terms = y * (x - mom.mean) / mom.variance
        ests[start:start + b] = (2.0 / g.n_outcome) * terms.sum(axis=1)
    bias = float(ests.mean() - tau)
    mse = float(np.mean((ests - tau) ** 2))
    edges, counts = build_histogram(ests, bins)
    return SimulationReport(design_name=design_name or d.kind,
                            scenario_name=scenario_name,
                            true_ate=float(tau),
                            estimates=ests,
                            bias=bias,
                            mse=mse,
                            histogram=(edges, counts))


def export_histogram(report, bins, path):
    """Histogram CSV plus a `true_ate` marker row (for the plot's rule)."""
    edges, counts = build_histogram(report.estimate_array(), bins)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count\n")
        for k in range(counts.size):
            fh.write(f"{float(edges[k])!r},{float(edges[k + 1])!r},"
                     f"{int(counts[k])}\n")
        fh.write(f"true_ate,{report.true_ate!r},\n")
    return path


def export_estimates_csv(report, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("replicate,estimate\n")
        for r, x in enumerate(report.estimates.tolist()):
            fh.write(f"{r},{x!r}\n")
    return path


def report_to_json(report, path=None):
    """Aggregate metadata as JSON; per-replicate data stays in the CSVs."""
    edges, counts = report.histogram
    se = report.mse_standard_error()
    payload = {
        "design_name": report.design_name,
        "scenario_name": report.scenario_name,
        "true_ate": report.true_ate,
        "n_replicates": report.n_replicates,
        "mean_estimate": report.mean_estimate,
        "bias": report.bias,
        "mse": report.mse,
        # null for a single replicate, where it is not defined.
        "mse_standard_error": None if np.isnan(se) else se,
        "histogram_edges": [float(e) for e in edges],
        "histogram_counts": [int(c) for c in counts],
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


@dataclass(frozen=True)
class SweepRow:
    phi: float
    n_clusters: int
    objective_total: float
    mse: float
    bias: float


def phi_sweep(g, scenario, phis, cfg, replicates, base_seed, path=None):
    """Optimize a design at each phi and measure its Monte Carlo MSE.

    One outcome model is drawn up front and shared by every phi, so rows
    differ only through the designs. Search and simulation seeds derive
    from cfg.seed and base_seed respectively, per phi index.
    """
    if len(phis) == 0:
        raise ValueError("phis must be non-empty")
    model = generate_outcome_model(g, scenario)
    rows = []
    for idx, phi in enumerate(phis):
        result = local_search(g, replace(cfg, phi=float(phi),
                                         seed=cfg.seed + idx))
        d = DesignSpec.independent_cluster(result.clustering, cfg.p)
        report = run_simulation(g, d, model, replicates,
                                base_seed + idx,
                                design_name=f"exposure-design[phi={phi}]",
                                scenario_name=scenario.kind)
        rows.append(SweepRow(phi=float(phi),
                             n_clusters=result.clustering.k,
                             objective_total=result.objective.total,
                             mse=report.mse,
                             bias=report.bias))
    if path is not None:
        write_sweep_csv(rows, path)
    return rows


def write_sweep_csv(rows, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("phi,n_clusters,objective_total,mse,bias\n")
        for row in rows:
            fh.write(f"{row.phi!r},{row.n_clusters},"
                     f"{row.objective_total!r},{row.mse!r},{row.bias!r}\n")
    return path
