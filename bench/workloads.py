"""The four workloads of the bipx benchmark.

Each workload times its set-up, makes one untimed warm-up call, then
repeats rounds of the same operations until `seconds` have passed (and at
least a minimum number of rounds ran), timing a fresh set-up after every
round. It checks the program's outputs against computations made apart
from it (see oracle.py). Every call into bipx goes through `Run.call`, so that a
traced run records a span around it; nothing is traced inside bipx.
"""

from __future__ import annotations

import gc
import json
import os
import re
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import time

import numpy as np
import scipy.sparse as sp

import inputs
import oracle
import reference
from bipx import cluster_opt, design, estimator, graph_core, simulate

PHI_LARGE = 0.01
K_MAX_LARGE = 50
SEARCH_PASSES = 1
CLUSTER_SIZE = 25
SIM_REPLICATES = 250
ORDERING_PHIS = (1.0, 1.0 / 199.0)
ORDERING_K_MAX = 5
# The searches use criterion 11's seed; --seed varies the outcome model and
# the replicate streams. At other search seeds the phi = 1 search can stop
# with a spoke left beside its siblings (see CHANGES.md), which fails the
# documented-layout check.
ORDERING_SEARCH_SEED = 3
ORDERING_REPLICATES = 1000
PIPELINE_REPLICATES = 200
# Replicates a traced run drives itself, call by call, per workload.
DRIVEN_REPLICATES = 200

REL_TOL = 1e-9
MOMENT_TOL = 1e-12
Z_MAX = 4.0
MIN_MSE_RATIO = 10.0
SUBPROCESS_TIMEOUT_S = 150

# Per-layer metrics of a traced run, by name and unit. A "median" metric
# is the median duration of the span named by the metric without its unit
# suffix; a "per_round" metric is that span's total time divided by the
# number of rounds; None marks a figure the workload computes itself. A
# layer the workload never calls reads 0.
PER_LAYER = (
    ("graph_core.load_edge_list_s", "s", "median"),
    ("graph_core.edges_parsed_per_s", "1/s", None),
    ("graph_core.normalize_rows_s", "s", "median"),
    ("graph_core.save_snapshot_s", "s", "median"),
    ("graph_core.load_snapshot_s", "s", "median"),
    ("graph_core.exposures_ms", "ms", "median"),
    ("design.cluster_aggregated_weights_s", "s", "median"),
    ("design.exposure_moments_s", "s", "median"),
    ("design.sample_assignment_ms", "ms", "median"),
    ("design.read_clustering_s", "s", "median"),
    ("design.write_clustering_s", "s", "median"),
    ("estimator.erl_estimate_ms", "ms", "median"),
    ("cluster_opt.pass_s", "s", None),
    ("cluster_opt.visits_per_s", "1/s", None),
    ("cluster_opt.moves_accepted", "count", None),
    ("cluster_opt.accept_ratio", "ratio", None),
    ("cluster_opt.passes_to_converge", "count", None),
    ("cluster_opt.objective_s", "s", "median"),
    ("simulate.replicate_ms", "ms", None),
    ("simulate.generate_outcome_model_s", "s", "median"),
    ("simulate.export_s", "s", "per_round"),
    ("cli.startup_s", "s", "median"),
    ("cli.ingest_s", "s", "median"),
    ("cli.design_s", "s", "median"),
    ("cli.moments_s", "s", "median"),
    ("cli.simulate_s", "s", "median"),
    ("cli.rerun_check_s", "s", "per_round"),
)
_SCALE = {"s": 1.0, "ms": 1e3}

END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "round_s": "s",
                    "design_objective": "objective"}


class CommandFailed(Exception):
    pass


class Run:
    """State of one benchmark run: counters, checks, metrics and spans."""

    def __init__(self, seed, seconds, tracer, out_dir, cache_dir, env):
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.out_dir = out_dir
        self.cache_dir = cache_dir
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.metrics = {}
        self.figures = {}
        self.layer = {}
        self.rounds_done = 0
        self.reference = reference.Reference()
        self.reference.sample()  # warm the reference unit up
        self._walls = None
        self._samples = None

    def call(self, name, fn, *args, **kwargs):
        """Call into bipx under a span; inside a round, also time the call
        and take a reference sample after it."""
        t0 = time.perf_counter()
        with self.tracer.span(name):
            result = fn(*args, **kwargs)
        if self._walls is not None:
            self._walls.append(time.perf_counter() - t0)
            self._samples.append(self.reference.sample())
        return result

    def check(self, ok, what):
        if not ok:
            self.problems.append(what)

    def measure(self, setup, warm_up, do_round, after_round, ops,
                min_rounds, first_setups=1):
        """Time set-ups and rounds; returns the last set-up's state or None.

        After `first_setups` timed set-ups and one untimed warm-up, rounds
        of `ops` operations repeat until at least `min_rounds` were
        attempted and another round would end after `seconds`. A fresh
        set-up is timed after every round, so set-up samples spread over
        the run as the rounds do. setup_s is the median set-up time.

        A round's time is the sum of its calls into bipx, calibrated to
        machine speed by the median of the reference samples taken before
        the round and after each call (see reference.py); round_s is the
        median over rounds. A round that raises counts all its operations
        as failed; `after_round` checks a round's outputs, untimed.
        """
        setups, rounds = [], []

        def timed_setup():
            gc.collect()
            before = self.reference.sample()
            t0 = time.perf_counter()
            with self.tracer.span("setup"):
                state = setup()
            wall = time.perf_counter() - t0
            setups.append(reference.calibrated(
                wall, [before, self.reference.sample()]))
            return state

        # The previous state is dropped before each set-up, so that peak
        # RSS never holds two copies of the workload's graph.
        for _ in range(first_setups):
            state = None
            state = timed_setup()
        warm_up(state)
        start = time.perf_counter()
        index = 0
        last = 0.0
        while index < min_rounds or \
                time.perf_counter() - start + last <= self.seconds:
            gc.collect()
            self.attempted += ops
            self._walls = []
            self._samples = [self.reference.sample()]
            t0 = time.perf_counter()
            try:
                with self.tracer.span("round"):
                    result = do_round(index, state)
            except Exception as exc:  # a failed round is counted, not fatal
                self.failed += ops
                print(f"round {index} failed: {exc!r}", file=sys.stderr)
            else:
                last = time.perf_counter() - t0
                rounds.append(reference.calibrated(sum(self._walls),
                                                   self._samples))
                try:
                    after_round(index, result)
                except Exception as exc:  # unreadable output fails a check
                    self.check(False, f"round {index}: check raised {exc!r}")
            self._walls = self._samples = None
            index += 1
            state = None
            state = timed_setup()
        self.rounds_done = len(rounds)
        if not rounds:
            return None
        self.metrics["setup_s"] = statistics.median(setups)
        self.metrics["round_s"] = statistics.median(rounds)
        return state

    def peak_rss(self, who=resource.RUSAGE_SELF):
        self.metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0

    def layer_metrics(self):
        out = {}
        for name, unit, kind in PER_LAYER:
            durations = self.tracer.durations(name.rsplit("_", 1)[0])
            if kind is None:
                value = self.layer.get(name, 0.0)
            elif not durations:
                value = 0.0
            elif kind == "median":
                value = _SCALE[unit] * statistics.median(durations)
            else:
                value = _SCALE[unit] * sum(durations) / self.rounds_done
            out[name] = {"value": float(value), "unit": unit}
        return out

    def end_to_end_metrics(self):
        return {name: {"value": float(self.metrics[name]), "unit": unit}
                for name, unit in END_TO_END_UNITS.items()}


# ----------------------------------------------------------------- helpers

def _ids(prefix, count):
    return [f"{prefix}{k}" for k in range(count)]


class _GraphInput:
    """A graph's raw edges as bipx takes them, with its unit ids."""

    def __init__(self, rows, cols, weights, shape):
        self.coo = sp.coo_matrix((weights, (rows, cols)), shape=shape)
        self.outcome_ids = _ids("u", shape[0])
        self.diversion_ids = _ids("i", shape[1])


def _perf_inputs(seed):
    """The perf-shaped graph's input, and a builder of the benchmark's own
    normalized matrix. The checks build that matrix after peak RSS is
    read, so that it does not count as the program's memory."""
    rows, cols, micro = inputs.perf_edges(seed)
    weights = micro / 1e6
    shape = (inputs.PERF_N, inputs.PERF_M)
    return (_GraphInput(rows, cols, weights, shape),
            lambda: oracle.normalized_csr(rows, cols, weights, shape))


def _build_graph(run, raw, snapshot=None):
    """Graph through bipx's public functions; optionally via a snapshot."""
    g = run.call("graph_core.from_csr", graph_core.BipartiteGraph.from_csr,
                 raw.coo, raw.outcome_ids, raw.diversion_ids)
    g = run.call("graph_core.normalize_rows", graph_core.normalize_rows, g)
    if snapshot is not None:
        run.call("graph_core.save_snapshot", graph_core.save_snapshot, g,
                 snapshot)
        g = run.call("graph_core.load_snapshot", graph_core.load_snapshot,
                     snapshot)
    return g


def check_mse_form(run):
    """The exact-MSE form must agree with bipx's enumeration oracle."""
    worst = oracle.check_mse_form(run.seed)
    run.check(worst <= REL_TOL,
              f"exact-MSE form differs from mse_exact by rel {worst:.3g}")


def _pass_times(elapsed):
    return list(np.diff(np.concatenate([[0.0], np.asarray(elapsed)])))


def _search_layer(run, pass_times, moves, passes, live, m):
    """cluster_opt figures of one round, summed over its searches."""
    visits = m * passes
    run.layer["cluster_opt.pass_s"] = statistics.median(pass_times)
    run.layer["cluster_opt.visits_per_s"] = visits / sum(pass_times)
    run.layer["cluster_opt.moves_accepted"] = moves
    run.layer["cluster_opt.accept_ratio"] = moves / visits
    run.figures["live_clusters"] = live
    run.layer["cluster_opt.passes_to_converge"] = passes


def _check_search(run, w, objectives, labels, phi, k_max, reported, label):
    """Properties a search result must have; returns its own objective.

    `objectives` is the per-pass trace; it must not decrease from the
    all-singleton start, the cap must hold, and the reported objective
    must match the benchmark's recomputation.
    """
    m = w.shape[1]
    start = oracle.objective_total(w, np.arange(m), phi)
    path = [start] + list(objectives)
    run.check(all(b >= a - REL_TOL * abs(a) for a, b in zip(path, path[1:])),
              f"{label}: trace objective decreases")
    labels = np.asarray(labels)
    run.check(labels.shape == (m,) and labels.min() >= 0,
              f"{label}: not every diversion unit is assigned")
    largest = int(np.bincount(oracle.dense_labels(labels)).max())
    run.check(largest <= k_max,
              f"{label}: largest cluster {largest} exceeds k_max {k_max}")
    own = oracle.objective_total(w, labels, phi)
    run.check(abs(own - reported) <= REL_TOL * abs(own),
              f"{label}: reported objective {float(reported)!r} != {own!r}")
    run.check(own > start,
              f"{label}: objective {own!r} not above singletons {start!r}")
    return own


def _drive_replicates(run, g, d, model, mom, base_seed):
    """Replicates driven call by call, so each call gets its own span."""
    m = g.n_diversion
    for r in range(DRIVEN_REPLICATES):
        rng = design.derived_rng(base_seed, r)
        z = run.call("design.sample_assignment", design.sample_assignment,
                     d, rng, m=m)
        x = run.call("graph_core.exposures", graph_core.exposures, g, z)
        y = run.call("estimator.respond", estimator.respond, model, x)
        run.call("estimator.erl_estimate", estimator.erl_estimate, y, x, mom)


def _replicate_ms(run, replicates):
    spans = run.tracer.durations("simulate.run_simulation")
    if spans:
        run.layer["simulate.replicate_ms"] = \
            1e3 * statistics.median(spans) / replicates


# ----------------------------------------------------------- search-large

def search_large(run):
    raw, own_matrix = _perf_inputs(run.seed)
    snapshot = os.path.join(run.out_dir, "graph.bin")
    cfg = cluster_opt.LocalSearchConfig(
        phi=PHI_LARGE, k_max=K_MAX_LARGE, max_passes=SEARCH_PASSES,
        convergence=False, seed=run.seed)
    kept = []

    def do_round(_, g):
        return run.call("cluster_opt.local_search", cluster_opt.local_search,
                        g, cfg)

    def after_round(_, result):
        if kept:
            run.check(np.array_equal(result.clustering.assignment,
                                     kept[0].clustering.assignment),
                      "search-large: same seed gave another clustering")
        else:
            kept.append(result)

    g = run.measure(lambda: _build_graph(run, raw, snapshot),
                    lambda _: _warm_up_search(run), do_round, after_round,
                    ops=1, min_rounds=3, first_setups=2)
    if g is None:
        return
    run.peak_rss()
    w = own_matrix()
    res = kept[0]
    trace = res.trace
    own = _check_search(run, w, [t.objective_total for t in trace],
                        res.clustering.assignment, PHI_LARGE, K_MAX_LARGE,
                        res.objective.total, "search-large")
    run.metrics["design_objective"] = own
    run.figures.update(search_s=run.metrics["round_s"],
                       search_objective=own)
    if run.tracer.enabled:
        pass_times = _pass_times([t.elapsed for t in trace])
        _search_layer(run, pass_times, sum(t.moves_accepted for t in trace),
                      len(trace), res.clustering.k, inputs.PERF_M)
        run.call("cluster_opt.objective", cluster_opt.objective, g,
                 res.clustering, PHI_LARGE)


def _warm_up_search(run):
    """One search on the small paired-pool graph: imports and first calls."""
    rows, cols, weights, _ = inputs.paired_pool_edges()
    raw = _GraphInput(rows, cols, weights, (200, 2000))
    small = graph_core.normalize_rows(graph_core.BipartiteGraph.from_csr(
        raw.coo, raw.outcome_ids, raw.diversion_ids))
    cluster_opt.local_search(small, cluster_opt.LocalSearchConfig(
        phi=1.0, k_max=5, max_passes=1, convergence=False, seed=run.seed))


# --------------------------------------------------------- simulate-large

def simulate_large(run):
    raw, own_matrix = _perf_inputs(run.seed)
    labels = inputs.random_labels(run.seed, inputs.PERF_M, CLUSTER_SIZE)
    snapshot = os.path.join(run.out_dir, "graph.bin")
    scenario = simulate.ScenarioSpec.positive_te(model_seed=run.seed)

    def setup():
        g = _build_graph(run, raw, snapshot)
        c = design.Clustering.from_labels(labels)
        d = design.DesignSpec.independent_cluster(c, 0.5)
        model = run.call("simulate.generate_outcome_model",
                         simulate.generate_outcome_model, g, scenario)
        mom = run.call("design.exposure_moments", design.exposure_moments,
                       g, d)
        return g, c, d, model, mom

    sim_dir = os.path.join(run.out_dir, "sim")
    os.makedirs(sim_dir)
    paths = {name: os.path.join(sim_dir, name)
             for name in ("report.json", "estimates.csv", "histogram.csv")}

    def do_round(index, state):
        g, _, d, model, _ = state
        report = run.call("simulate.run_simulation", simulate.run_simulation,
                          g, d, model, SIM_REPLICATES,
                          base_seed=_base_seed(run.seed, index))
        run.call("simulate.export", simulate.report_to_json, report,
                 paths["report.json"])
        run.call("simulate.export", simulate.export_estimates_csv, report,
                 paths["estimates.csv"])
        run.call("simulate.export", simulate.export_histogram, report, 50,
                 paths["histogram.csv"])
        return report

    pooled = []

    def after_round(_, report):
        pooled.append(_check_exports(run, paths, report))

    def warm_up(state):
        g, _, d, model, _ = state
        simulate.run_simulation(g, d, model, 20, base_seed=run.seed)

    state = run.measure(setup, warm_up, do_round, after_round, ops=1,
                        min_rounds=3, first_setups=2)
    if state is None:
        return
    run.peak_rss()
    w = own_matrix()
    g, c, d, model, mom = state

    mean, var = oracle.moments(w, labels)
    run.check(np.max(np.abs(mom.mean - mean)) <= MOMENT_TOL
              and np.max(np.abs(mom.variance - var)) <= MOMENT_TOL,
              "simulate-large: exposure_moments differ from the closed form")
    tau = 2.0 * float(np.mean(model.slopes))
    exact = oracle.mse_at_half(w, labels, model.slopes, model.intercepts)
    _check_monte_carlo(run, np.concatenate(pooled), tau, exact,
                       "simulate-large")
    # Every workload reports every end-to-end metric, and no search runs
    # here: design_objective is bipx's objective of the fixed clustering
    # at phi = 0 (its variance sum; positive, unlike phi > 0 for random
    # clusters). Only a wrong objective moves it, and that fails the check.
    reported = run.call("cluster_opt.objective", cluster_opt.objective, g, c,
                        0.0).total
    own = oracle.objective_total(w, labels, 0.0)
    run.check(abs(own - reported) <= REL_TOL * abs(own),
              f"simulate-large: objective {reported!r} != {own!r}")
    run.metrics["design_objective"] = reported
    run.figures.update(replicates_per_s=SIM_REPLICATES
                       / run.metrics["round_s"], exact_mse=exact)
    if run.tracer.enabled:
        _replicate_ms(run, SIM_REPLICATES)
        run.call("design.cluster_aggregated_weights",
                 design.cluster_aggregated_weights, g, c)
        _drive_replicates(run, g, d, model, mom, _base_seed(run.seed, 0))


def _base_seed(seed, index):
    """Replicate seeds of round `index`; rounds never share a stream."""
    return seed * 100_000 + index


def _check_exports(run, paths, report):
    """The estimates CSV has one row per replicate, and its mean and MSE
    match report.json. Returns the estimates."""
    with open(paths["estimates.csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    est = np.array([float(line.split(",")[1]) for line in lines[1:]])
    with open(paths["report.json"], encoding="utf-8") as fh:
        payload = json.load(fh)
    tau = payload["true_ate"]
    run.check(lines[0] == "replicate,estimate"
              and est.size == payload["n_replicates"] == report.n_replicates,
              "estimates.csv does not hold one row per replicate")
    run.check(abs(est.mean() - tau - payload["bias"])
              <= REL_TOL * max(abs(tau), 1.0)
              and abs(np.mean((est - tau) ** 2) - payload["mse"])
              <= REL_TOL * payload["mse"],
              "estimates.csv mean or MSE differ from report.json")
    return est


def _check_monte_carlo(run, estimates, tau, exact, label):
    bias_z, mse_z = oracle.monte_carlo_gaps(estimates, tau, exact)
    run.check(abs(bias_z) <= Z_MAX,
              f"{label}: bias is {bias_z:+.2f} standard errors")
    run.check(abs(mse_z) <= Z_MAX,
              f"{label}: Monte Carlo MSE is {mse_z:+.2f} standard errors "
              f"from the exact MSE {exact!r}")


# --------------------------------------------------------- ordering-small

def ordering_small(run):
    rows, cols, weights, owner = inputs.paired_pool_edges()
    n, m = int(rows.max()) + 1, owner.size
    raw = _GraphInput(rows, cols, weights, (n, m))
    w = oracle.normalized_csr(rows, cols, weights, (n, m))
    scenario = simulate.ScenarioSpec.positive_te(model_seed=run.seed)
    bernoulli = design.DesignSpec.bernoulli(0.5)

    def setup():
        g = _build_graph(run, raw)
        model = run.call("simulate.generate_outcome_model",
                         simulate.generate_outcome_model, g, scenario)
        run.call("design.exposure_moments", design.exposure_moments, g,
                 bernoulli)
        return g, model

    configs = [cluster_opt.LocalSearchConfig(phi=phi, k_max=ORDERING_K_MAX,
                                             seed=ORDERING_SEARCH_SEED)
               for phi in ORDERING_PHIS]

    def do_round(index, state):
        g, model = state
        results = [run.call("cluster_opt.local_search",
                            cluster_opt.local_search, g, cfg)
                   for cfg in configs]
        designs = [design.DesignSpec.independent_cluster(r.clustering, 0.5)
                   for r in results] + [bernoulli]
        reports = [run.call("simulate.run_simulation",
                            simulate.run_simulation, g, dsn, model,
                            ORDERING_REPLICATES,
                            base_seed=_base_seed(run.seed, 3 * index + k))
                   for k, dsn in enumerate(designs)]
        return results, reports

    kept = {}
    pooled = [[], [], []]

    def after_round(_, out):
        results, reports = out
        labels = [r.clustering.assignment for r in results]
        if "results" in kept:
            run.check(all(np.array_equal(a, b.clustering.assignment)
                          for a, b in zip(labels, kept["results"])),
                      "ordering-small: same seed gave other clusterings")
        else:
            kept["results"] = results
        for k, report in enumerate(reports):
            pooled[k].append(report.estimate_array())

    def warm_up(state):
        g, model = state
        cluster_opt.local_search(g, configs[0])
        simulate.run_simulation(g, bernoulli, model, 50, base_seed=run.seed)

    state = run.measure(setup, warm_up, do_round, after_round, ops=5,
                        min_rounds=3, first_setups=10)
    if state is None:
        return
    run.peak_rss()
    g, model = state

    results = kept["results"]
    own = [_check_search(run, w, [t.objective_total for t in r.trace],
                         r.clustering.assignment, phi, ORDERING_K_MAX,
                         r.objective.total, f"ordering-small phi={phi:.4g}")
           for r, phi in zip(results, ORDERING_PHIS)]
    tau = 2.0 * float(np.mean(model.slopes))
    all_labels = [r.clustering.assignment for r in results] + [np.arange(m)]
    exact = [oracle.mse_at_half(w, lab, model.slopes, model.intercepts)
             for lab in all_labels]
    documented = oracle.mse_at_half(w, inputs.documented_labels(owner),
                                    model.slopes, model.intercepts)
    run.check(exact[0] < exact[1] < exact[2],
              f"ordering-small: exact MSEs not ordered phi=1 < phi=1/199 "
              f"< Bernoulli: {exact}")
    ratio = exact[2] / exact[0]
    run.check(ratio >= MIN_MSE_RATIO,
              f"ordering-small: Bernoulli / phi=1 MSE ratio {ratio:.3f} "
              f"< {MIN_MSE_RATIO}")
    run.check(exact[0] <= documented * (1.0 + REL_TOL),
              "ordering-small: phi=1 design worse than the documented layout")
    for name, est, mse in zip(("phi=1", "phi=1/199", "bernoulli"), pooled,
                              exact):
        _check_monte_carlo(run, np.concatenate(est), tau, mse,
                           f"ordering-small {name}")
    run.metrics["design_objective"] = own[0]
    run.figures.update(ordering_s=run.metrics["round_s"],
                       bernoulli_mse_ratio=ratio)
    if run.tracer.enabled:
        traces = [r.trace for r in results]
        pass_times = sum((_pass_times([t.elapsed for t in tr])
                          for tr in traces), [])
        _search_layer(run, pass_times,
                      sum(t.moves_accepted for tr in traces for t in tr),
                      sum(len(tr) for tr in traces),
                      sum(r.clustering.k for r in results), m)
        _replicate_ms(run, ORDERING_REPLICATES)
        d1 = design.DesignSpec.independent_cluster(results[0].clustering, 0.5)
        mom = run.call("design.exposure_moments", design.exposure_moments,
                       g, d1)
        run.call("design.cluster_aggregated_weights",
                 design.cluster_aggregated_weights, g, results[0].clustering)
        run.call("cluster_opt.objective", cluster_opt.objective, g,
                 results[0].clustering, 1.0)
        _drive_replicates(run, g, d1, model, mom, _base_seed(run.seed, 0))


# ----------------------------------------------------------- pipeline-cli

_INGESTED = re.compile(r"ingested (\d+) outcome x (\d+) diversion units, "
                       r"(\d+) edges")
_DESIGNED = re.compile(r"(\d+) clusters, objective (\S+) ->")


def _bipx(run, span, args, cwd):
    proc = run.call(span, subprocess.run,
                    [sys.executable, "-m", "bipx.cli", *args], cwd=cwd,
                    env=run.env, capture_output=True, text=True,
                    timeout=SUBPROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise CommandFailed(f"bipx {' '.join(args)} exited "
                            f"{proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def _pipeline_edges(run, rows, cols, micro):
    """The seed's edge list, written once into the cache directory."""
    path = os.path.join(run.cache_dir, f"pipeline-edges-seed{run.seed}.txt")
    if not os.path.exists(path):
        os.makedirs(run.cache_dir, exist_ok=True)
        for old in os.listdir(run.cache_dir):
            if old.startswith("pipeline-edges-"):
                os.remove(os.path.join(run.cache_dir, old))
        inputs.write_edge_list(path, rows, cols, micro)
    return path


def pipeline_cli(run):
    rows, cols, micro = inputs.perf_edges(run.seed)
    n, m = inputs.PERF_N, inputs.PERF_M
    w = oracle.normalized_csr(rows, cols, micro / 1e6, (n, m))
    edges = _pipeline_edges(run, rows, cols, micro)
    scenario = os.path.join(run.out_dir, "scenario.txt")
    with open(scenario, "w", encoding="utf-8") as fh:
        fh.write(f"kind = PositiveTE\nmodel_seed = {run.seed}\n")
    seed = str(run.seed)

    def do_round(index, _):
        wd = os.path.join(run.out_dir, f"round{index}")
        os.makedirs(wd)
        out = {"dir": wd}
        out["ingest"] = _bipx(run, "cli.ingest", ["ingest", edges, "g.bin"],
                              wd)
        out["design"] = _bipx(run, "cli.design", [
            "design", "g.bin", "c.tsv", "--method", "exposure-design",
            "--max-passes", "1", "--phi", repr(PHI_LARGE),
            "--k-max", str(K_MAX_LARGE), "--seed", seed,
            "--trace", "trace.csv"], wd)
        _bipx(run, "cli.moments", ["moments", "g.bin", "c.tsv",
                                   "moments.csv"], wd)
        _bipx(run, "cli.simulate", [
            "simulate", "g.bin", scenario, "sim", "--clustering", "c.tsv",
            "--replicates", str(PIPELINE_REPLICATES), "--seed", seed], wd)
        out["rerun"] = [_bipx(run, "cli.rerun_check",
                              ["rerun", manifest, "--check"], wd)
                        for manifest in ("g.bin.manifest.json",
                                         os.path.join("sim", "manifest.json"))]
        return out

    kept = {}

    def after_round(_, out):
        kept.update(_check_pipeline(run, w, rows, cols, out))
        if run.tracer.enabled and "probe_dir" not in kept:
            kept["probe_dir"] = out["dir"]
        else:
            shutil.rmtree(out["dir"])

    startup = ["--version"]
    if run.measure(lambda: _bipx(run, "cli.startup", startup, run.out_dir),
                   lambda _: _bipx(run, "warm-up", startup, run.out_dir),
                   do_round, after_round, ops=6, min_rounds=2,
                   first_setups=3) is None:
        return
    run.peak_rss(resource.RUSAGE_CHILDREN)
    run.metrics["design_objective"] = kept["objective"]
    run.figures.update(pipeline_s=run.metrics["round_s"],
                       design_objective=kept["objective"])
    if run.tracer.enabled:
        _search_layer(run, kept["pass_times"], kept["moves"],
                      len(kept["pass_times"]), kept["live"], m)
        _probe_pipeline_layers(run, edges, kept["probe_dir"])


def _read_pairs(path, sep="\t"):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n").split(sep) for line in fh
                if line.strip() and not line.startswith("#")]


def _id_index(ids):
    """Benchmark index of each id ('u17' -> 17, 'i5' -> 5)."""
    return np.array([int(s[1:]) for s in ids], dtype=np.int64)


def _read_snapshot(path):
    """CSR arrays of a bipx snapshot, parsed from its documented layout."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != b"BIPXGRF\x00":
        raise ValueError("bad snapshot magic")
    n, m, nnz = struct.unpack_from("<QQQ", blob, 12)
    off = 36
    indptr = np.frombuffer(blob, np.int64, n + 1, off)
    off += 8 * (n + 1)
    indices = np.frombuffer(blob, np.int64, nnz, off)
    data = np.frombuffer(blob, np.float64, nnz, off + 8 * nnz)
    return n, m, indptr, indices, data


def _check_pipeline(run, w, rows, cols, out):
    wd = out["dir"]
    n, m = w.shape
    distinct = int(np.unique(rows * m + cols).size)
    counts = _INGESTED.search(out["ingest"])
    run.check(counts is not None and tuple(map(int, counts.groups()))
              == (n, m, distinct),
              f"pipeline-cli: ingest reported {out['ingest'].strip()!r}, "
              f"expected {n} x {m}, {distinct} edges")

    row_of = _id_index([p[1] for p in _read_pairs(
        os.path.join(wd, "g.bin.outcome_ids.tsv"))])
    col_of = _id_index([p[1] for p in _read_pairs(
        os.path.join(wd, "g.bin.diversion_ids.tsv"))])
    sn, sm, indptr, indices, data = _read_snapshot(os.path.join(wd, "g.bin"))
    snap = sp.csr_matrix((data, (row_of[np.repeat(np.arange(sn),
                                                  np.diff(indptr))],
                                 col_of[indices])), shape=(n, m))
    snap.sort_indices()
    run.check((sn, sm) == (n, m) and np.array_equal(snap.indptr, w.indptr)
              and np.array_equal(snap.indices, w.indices)
              and np.allclose(snap.data, w.data, rtol=REL_TOL, atol=0.0),
              "pipeline-cli: snapshot matrix differs from the edge list's "
              "row-normalized matrix")

    pairs = _read_pairs(os.path.join(wd, "c.tsv"))
    ids = _id_index([p[0] for p in pairs])
    run.check(ids.size == m and np.unique(ids).size == m,
              "pipeline-cli: c.tsv does not list every diversion unit once")
    labels = np.full(m, -1, dtype=np.int64)
    labels[ids] = [int(p[1]) for p in pairs]
    mean, var = oracle.moments(w, labels)
    table = _read_pairs(os.path.join(wd, "moments.csv"), sep=",")[1:]
    order = _id_index([r[0] for r in table])
    got = np.array([[float(r[1]), float(r[2])] for r in table])
    run.check(len(table) == n
              and np.max(np.abs(got[:, 0] - mean[order])) <= MOMENT_TOL
              and np.max(np.abs(got[:, 1] - var[order])) <= MOMENT_TOL,
              "pipeline-cli: moments.csv differs from the closed form")

    trace = _read_pairs(os.path.join(wd, "trace.csv"), sep=",")[1:]
    designed = _DESIGNED.search(out["design"])
    own = _check_search(run, w, [float(t[2]) for t in trace], labels,
                        PHI_LARGE, K_MAX_LARGE,
                        float(designed.group(2)) if designed else np.nan,
                        "pipeline-cli design")
    for text in out["rerun"]:
        run.check("all checked outputs byte-identical" in text,
                  f"pipeline-cli: rerun --check did not pass: {text!r}")
    return {"objective": own,
            "pass_times": _pass_times([float(t[5]) for t in trace]),
            "moves": sum(int(t[1]) for t in trace),
            "live": int(np.unique(labels).size)}


def _probe_pipeline_layers(run, edges, wd):
    """In-process calls of the functions the CLI steps use, on their files."""
    t0 = time.perf_counter()
    raw = run.call("graph_core.load_edge_list", graph_core.load_edge_list,
                   edges)
    run.layer["graph_core.edges_parsed_per_s"] = \
        inputs.PERF_NNZ / (time.perf_counter() - t0)
    g = run.call("graph_core.normalize_rows", graph_core.normalize_rows, raw)
    del raw
    probe = os.path.join(wd, "probe.bin")
    run.call("graph_core.save_snapshot", graph_core.save_snapshot, g, probe)
    g = run.call("graph_core.load_snapshot", graph_core.load_snapshot, probe)
    c = run.call("design.read_clustering", design.read_clustering, g,
                 os.path.join(wd, "c.tsv"))
    run.call("design.write_clustering", design.write_clustering, c, g,
             os.path.join(wd, "probe.tsv"))
    run.call("design.cluster_aggregated_weights",
             design.cluster_aggregated_weights, g, c)
    run.call("design.exposure_moments", design.exposure_moments, g,
             design.DesignSpec.independent_cluster(c, 0.5))
    run.call("cluster_opt.objective", cluster_opt.objective, g, c, PHI_LARGE)
    shutil.rmtree(wd)


WORKLOADS = {
    "search-large": search_large,
    "simulate-large": simulate_large,
    "ordering-small": ordering_small,
    "pipeline-cli": pipeline_cli,
}
