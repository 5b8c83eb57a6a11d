"""Monte Carlo harness: scenario models, replicated runs, reports.

Three outcome-model scenarios over a fixed graph:

* PositiveTE: slopes Normal(1, 1/4), intercepts Normal(0, 1/8), i.i.d.
* ZeroTE: slopes Normal(0, 1/8), intercepts Normal(2, 1/4), i.i.d.
* GraphDependent: outcome units grouped by complete-linkage clustering of
  their pairwise similarity; one (slope, intercept) pair per group.

All Normal(mean, var) draws use the inverse CDF applied to a 53-bit
uniform, so the stream is reproducible across library versions. A model
is drawn exactly once per model_seed; replicates only redraw treatment
assignments, and replicate r of a simulation seeded by base_seed draws
them from position r * 2^64 of one PCG64 stream (bipx.design.derived_rng).
A simulation report gives the Monte Carlo MSE; the phi sweep gives each
design's exact MSE (bipx.estimator.mse) next to it.
"""

from __future__ import annotations

import json
import math
import os
import threading
from dataclasses import astuple, dataclass, fields, replace
from typing import get_type_hints

import numpy as np

from bipx.design import DesignSpec, coin_signs, derived_rng, \
    design_aggregates, replicate_coins
from bipx.estimator import OutcomeModel, erl_rows, mse as exact_mse, \
    true_ate
from bipx.graph_core import BipxError, scipy_csr, text_lines, write_rows

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


# Replicates per block of run_simulation: one sparse product per block.
_BLOCK = 16

# Multiply-adds of one block's sparse product, nnz(A) x _BLOCK, below which
# run_simulation runs one span: below it the spans mostly wait for the
# interpreter lock. On a 2-CPU machine two spans took 28 ms against 17.5
# ms in one at 4.8e4 (1000 replicates), 13 against 11 ms at 2.5e5, 21
# against 24 ms at 1e6 and 51 against 100 ms at 4e6 (400 replicates).
_SPAN_PRODUCTS = 1 << 20

# Exposures a span hands the estimator at once: a row slice of a block,
# which bounds the estimator's buffers for any n.
_SLICE = 1 << 16

# outcome_linkage_labels holds about 28 n^2 bytes of dense matrices; this
# many outcome units keeps them under about 0.7 GB.
MAX_LINKAGE_UNITS = 5000


class ScenarioError(BipxError, ValueError):
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
        for name, kind in _FIELD_TYPES.items():
            if kind is float and not math.isfinite(getattr(self, name)):
                raise ScenarioError(f"{name} must be finite")
        if not (self.slope_var >= 0 and self.intercept_var >= 0):
            raise ScenarioError("variances must be >= 0")
        if self.model_seed < 0:
            raise ScenarioError("model_seed must be >= 0")
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


# The type of each key of a scenario file.
_FIELD_TYPES = get_type_hints(ScenarioSpec)


def read_scenario_file(path):
    """Parse a `key = value` scenario file, read through text_lines, into a
    ScenarioSpec. `kind` is required; other keys override the kind's
    default parameters.
    """
    def bad(line_no, why):
        return ScenarioError(f"{path}:{line_no}: {why}")

    values = {}
    for line_no, text in text_lines(path, bad):
        key, eq, value = (part.strip() for part in text.partition("="))
        if not eq:
            raise bad(line_no, f"expected key = value, got {text!r}")
        if key in values:
            raise bad(line_no, f"duplicate key {key!r}")
        if key not in _FIELD_TYPES:
            raise bad(line_no, f"unknown scenario key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](value)
        except ValueError:
            raise bad(line_no, f"cannot read {key} = {value!r} as "
                               f"{_FIELD_TYPES[key].__name__}") from None
    if "kind" not in values:
        raise ScenarioError(f"{path}: missing required key 'kind'")
    try:
        return ScenarioSpec.preset(**values)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def normal_draw(rng, size, mean, var):
    """Normal(mean, var) via inverse CDF of a 53-bit uniform.

    Fixed sampling method: u = (k + 0.5) / 2^53 with k uniform on
    [0, 2^53), then mean + sqrt(var) * ndtri(u). Unlike the generator's
    built-in normal() this does not depend on the library's choice of
    ziggurat tables, so seeded streams stay stable across versions.
    var = 0 returns the mean exactly.
    """
    # Imported here, as most bipx commands never draw a normal. On scipy
    # 1.17.1 scipy.special takes 0.21-0.35 s to load after numpy alone and
    # 0.05-0.13 s once scipy.sparse is loaded: it pulls in
    # scipy._lib.array_api_compat, which loads numpy.f2py and numpy.testing.
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
    # Imported here: on scipy 1.17.1 they take 0.29-0.58 s to load after
    # numpy alone and 0.13-0.27 s after scipy.sparse, which every bipx
    # process would pay otherwise.
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
    uniq, pos = np.unique(labels, return_inverse=True)
    slopes_c = normal_draw(rng, uniq.size, spec.slope_mean, spec.slope_var)
    inter_c = normal_draw(rng, uniq.size, spec.intercept_mean,
                          spec.intercept_var)
    return OutcomeModel(slopes=slopes_c[pos], intercepts=inter_c[pos])


@dataclass(frozen=True)
class SimulationReport:
    """Replicated-run summary for one (graph, design, model) triple: the
    estimates and the true ATE, and what derives from them."""

    design_name: str
    scenario_name: str
    true_ate: float
    estimates: np.ndarray

    @property
    def n_replicates(self):
        return len(self.estimates)

    @property
    def bias(self):
        return float(self.estimates.mean() - self.true_ate)

    @property
    def mse(self):
        return float(np.mean((self.estimates - self.true_ate) ** 2))

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


def _usable_cpus():
    """The CPUs this process may run on: its affinity set where the OS
    keeps one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _slice_rows(n):
    """Replicates per estimator slice: about _SLICE exposures."""
    return max(1, min(_BLOCK, _SLICE // n))


def _span_count(agg, blocks):
    """How many spans run_simulation splits `blocks` blocks over the
    aggregates agg (a scipy CSR) into.

    One while a block's product is below _SPAN_PRODUCTS; else at most the
    usable CPUs and the blocks, and one more span only while the extra
    spans' buffers together fit in the bytes of agg, so that spans at
    most double what the simulation holds.
    """
    n, k = agg.shape
    if agg.nnz * _BLOCK < _SPAN_PRODUCTS:
        return 1
    # Coins and signs, (_BLOCK, k) each; the product, (n, _BLOCK); the
    # estimator's two slices.
    per_span = 8 * (2 * _BLOCK * k + _BLOCK * n + 2 * _slice_rows(n) * n)
    held = agg.data.nbytes + agg.indices.nbytes + agg.indptr.nbytes
    return max(1, min(_usable_cpus(), blocks, 1 + held // per_span))


def _replicate_span(agg, d, model, mom, base_seed, ests, start, stop, halt):
    """Write the estimates of replicates [start, stop) to ests, one block
    of _BLOCK replicates per sparse product, with this span's own
    generator and buffers; return early once halt is set, and set it on
    any exception."""
    n, k = agg.shape
    coins = np.empty((_BLOCK, k), dtype=np.float64)
    # (k, b) and C-contiguous, so the sparse product reads it in place.
    signs_buf = np.empty(k * _BLOCK, dtype=np.float64)
    rows = _slice_rows(n)
    x_buf = np.empty(rows * n, dtype=np.float64)
    y_buf = np.empty(rows * n, dtype=np.float64)
    try:
        rng = derived_rng(base_seed, start)
        for lo in range(start, stop, _BLOCK):
            if halt.is_set():
                return
            b = min(_BLOCK, stop - lo)
            replicate_coins(rng, coins[:b])
            signs = coin_signs(coins[:b].T, d.p,
                               out=signs_buf[:k * b].reshape(k, b))
            product = agg @ signs
            # Each replicate's exposures are copied to one contiguous row,
            # so its estimate is summed along that row: the sum then has
            # the same bits whatever the block, slice or span.
            for r in range(0, b, rows):
                x = x_buf[:min(rows, b - r) * n].reshape(-1, n)
                np.copyto(x, product[:, r:r + x.shape[0]].T)
                erl_rows(model, x, mom, y_buf[:x.size].reshape(x.shape),
                         out=ests[lo + r:lo + r + x.shape[0]])
            # Freed before the next block's product is made, not after.
            del product
    except BaseException:
        halt.set()
        raise


def run_simulation(g, d, model, replicates, base_seed, *,
                   design_name="", scenario_name=""):
    """Replicate the experiment: assign, expose, respond, estimate.

    Replicate r's cluster coins are the doubles `sample_assignment` draws
    from derived_rng(base_seed, r), so results do not depend on execution
    order and rerunning any subset reproduces the same estimates. The
    replicates are cut into contiguous spans that start on block
    boundaries, as many as _span_count allows; the caller's thread runs
    the first and a thread pool the others, and an exception in any span
    stops the others at their next block and is raised. No generator is
    built per replicate: the replicates share one PCG64 stream, replicate
    r's coins at its position r * 2^64, and each span advances one
    generator from its first replicate to the next (replicate_coins).
    The exposures are agg @ signs over the design's cluster aggregates,
    computed for a block of replicates per sparse product.
    export_histogram bins the estimates.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if model.n != g.n_outcome:
        raise ValueError("exposure vector length does not match the model")
    # Imported here: concurrent.futures and the logging module it loads
    # take about 5 ms, which every bipx process would pay otherwise.
    from concurrent.futures import ThreadPoolExecutor

    agg, mom = design_aggregates(g, d)
    agg = scipy_csr(agg)
    ests = np.empty(replicates, dtype=np.float64)
    blocks = -(-replicates // _BLOCK)
    count = _span_count(agg, blocks)
    cuts = [min(replicates, _BLOCK * (blocks * w // count))
            for w in range(count + 1)]
    halt = threading.Event()

    def span(start, stop):
        _replicate_span(agg, d, model, mom, base_seed, ests, start, stop,
                        halt)

    # A pool with nothing submitted starts no thread.
    with ThreadPoolExecutor(max(1, count - 1)) as pool:
        try:
            others = [pool.submit(span, *bounds)
                      for bounds in zip(cuts[1:-1], cuts[2:])]
            span(cuts[0], cuts[1])
            for future in others:
                future.result()
        except BaseException:
            halt.set()
            raise
    return SimulationReport(design_name=design_name or d.kind,
                            scenario_name=scenario_name,
                            true_ate=float(true_ate(model)),
                            estimates=ests)


def export_histogram(report, bins, path):
    """Histogram CSV plus a `true_ate` marker row (for the plot's rule)."""
    edges, counts = build_histogram(report.estimate_array(), bins)
    write_rows(path, [*zip(edges[:-1].tolist(), edges[1:].tolist(),
                           counts.tolist()), ("true_ate", report.true_ate, "")],
               header=("bin_left", "bin_right", "count"))
    return path


def export_estimates_csv(report, path):
    write_rows(path, enumerate(report.estimates.tolist()),
               header=("replicate", "estimate"))
    return path


def report_to_json(report, path=None):
    """Aggregate metadata as JSON; estimates and histogram are in the CSVs."""
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
    exact_mse: float


def phi_sweep(g, scenario, phis, cfg, replicates, base_seed, path=None):
    """Optimize a design at each phi; give its Monte Carlo and exact MSE.

    One outcome model is drawn up front and shared by every phi, so rows
    differ only through the designs. Search and simulation seeds derive
    from cfg.seed and base_seed respectively, per phi index.
    """
    if len(phis) == 0:
        raise ValueError("phis must be non-empty")
    # Imported here: of this module, only the sweep runs the search, and a
    # `bipx simulate` process need not load it.
    from bipx.cluster_opt import local_search

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
                             bias=report.bias,
                             exact_mse=exact_mse(g, d, model)))
    if path is not None:
        write_sweep_csv(rows, path)
    return rows


def write_sweep_csv(rows, path):
    write_rows(path, map(astuple, rows),
               header=[f.name for f in fields(SweepRow)])
    return path
