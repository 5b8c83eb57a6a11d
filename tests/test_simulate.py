import json
import os
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from bipx import simulate
from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         coin_signs, derived_rng, exposure_moments,
                         replicate_coins, sample_assignment)
from bipx.estimator import OutcomeModel, erl_estimate, mse, respond
from bipx.graph_core import BipartiteGraph, exposures, write_rows
from bipx.simulate import (GRAPH_DEPENDENT, POSITIVE_TE, ZERO_TE,
                           ScenarioError, ScenarioSpec, build_histogram,
                           export_estimates_csv, export_histogram,
                           generate_outcome_model, normal_draw,
                           outcome_linkage_labels, phi_sweep,
                           read_scenario_file, report_to_json, run_simulation)
from bipx.cluster_opt import LocalSearchConfig, local_search
from instances import (identity_graph, nondegenerate_clustering,
                       paired_pool_instance, random_clustering,
                       random_instance, random_model, small_graph)


def write_scenario_file(spec, path):
    """`key = value` lines in the order read_scenario_file knows the keys;
    n_outcome_clusters only for GraphDependent."""
    write_rows(path, ((key, getattr(spec, key))
                      for key in simulate._FIELD_TYPES
                      if key != "n_outcome_clusters"
                      or spec.kind == GRAPH_DEPENDENT), sep=" = ")


def test_preset_parameters():
    pos = ScenarioSpec.positive_te()
    assert (pos.slope_mean, pos.slope_var) == (1.0, 0.25)
    assert (pos.intercept_mean, pos.intercept_var) == (0.0, 0.125)
    zero = ScenarioSpec.zero_te()
    assert (zero.slope_mean, zero.slope_var) == (0.0, 0.125)
    assert (zero.intercept_mean, zero.intercept_var) == (2.0, 0.25)
    dep = ScenarioSpec.graph_dependent(3)
    assert (dep.slope_mean, dep.slope_var) == (1.0, 0.5)
    assert dep.n_outcome_clusters == 3


def test_preset_overrides_and_validation():
    spec = ScenarioSpec.positive_te(slope_var=0.0)
    assert spec.slope_var == 0.0
    with pytest.raises(ScenarioError):
        ScenarioSpec.preset("Nope")
    with pytest.raises(ScenarioError):
        ScenarioSpec.positive_te(slope_var=-1.0)
    with pytest.raises(ScenarioError):
        ScenarioSpec.graph_dependent(0)
    for bad in (dict(slope_var=float("nan")), dict(intercept_var=-0.5),
                dict(slope_mean=float("inf")),
                dict(intercept_mean=float("nan")), dict(model_seed=-1)):
        with pytest.raises(ScenarioError):
            ScenarioSpec.positive_te(**bad)


def test_scenario_file_round_trip(tmp_path):
    spec = ScenarioSpec.graph_dependent(4, model_seed=9, slope_mean=2.5)
    path = tmp_path / "scenario.txt"
    write_scenario_file(spec, path)
    assert read_scenario_file(path) == spec


@pytest.mark.parametrize("spec,text", [
    (ScenarioSpec.positive_te(model_seed=3, slope_mean=0.1),
     "kind = PositiveTE\nslope_mean = 0.1\nslope_var = 0.25\n"
     "intercept_mean = 0.0\nintercept_var = 0.125\nmodel_seed = 3\n"),
    # Only GraphDependent writes n_outcome_clusters.
    (ScenarioSpec.graph_dependent(4, model_seed=9, intercept_mean=-2.5e-300),
     "kind = GraphDependent\nslope_mean = 1.0\nslope_var = 0.5\n"
     "intercept_mean = -2.5e-300\nintercept_var = 0.125\n"
     "n_outcome_clusters = 4\nmodel_seed = 9\n"),
], ids=["positive-te", "graph-dependent"])
def test_write_scenario_file_bytes(tmp_path, spec, text):
    path = tmp_path / "scenario.txt"
    write_scenario_file(spec, path)
    assert path.read_bytes() == text.encode()


def test_scenario_file_parsing(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("# comment\nkind = ZeroTE\nslope_var = 0.5  # inline\n")
    spec = read_scenario_file(path)
    assert spec.kind == ZERO_TE
    assert spec.slope_var == 0.5
    assert spec.intercept_mean == 2.0

    path.write_text("slope_var = 0.5\n")
    with pytest.raises(ScenarioError, match="missing"):
        read_scenario_file(path)
    path.write_text("kind = ZeroTE\nwobble = 3\n")
    with pytest.raises(ScenarioError, match="unknown scenario key"):
        read_scenario_file(path)
    path.write_text("kind = ZeroTE\nkind = ZeroTE\n")
    with pytest.raises(ScenarioError, match="duplicate"):
        read_scenario_file(path)
    path.write_text("kind ZeroTE\n")
    with pytest.raises(ScenarioError, match="key = value"):
        read_scenario_file(path)


def test_normal_draw_zero_variance_is_exact():
    rng = np.random.default_rng(0)
    values = normal_draw(rng, 100, 3.5, 0.0)
    assert np.all(values == 3.5)


def test_normal_draw_moments():
    rng = np.random.default_rng(1)
    values = normal_draw(rng, 200_000, 1.0, 0.25)
    assert values.mean() == pytest.approx(1.0, abs=0.01)
    assert values.var() == pytest.approx(0.25, abs=0.01)


def test_zero_te_with_zero_slope_var():
    g = small_graph()
    spec = ScenarioSpec.zero_te(slope_var=0.0)
    model = generate_outcome_model(g, spec)
    assert np.all(model.slopes == 0.0)


def test_model_seed_determinism():
    g = small_graph()
    a = generate_outcome_model(g, ScenarioSpec.positive_te(model_seed=5))
    b = generate_outcome_model(g, ScenarioSpec.positive_te(model_seed=5))
    c = generate_outcome_model(g, ScenarioSpec.positive_te(model_seed=6))
    np.testing.assert_array_equal(a.slopes, b.slopes)
    np.testing.assert_array_equal(a.intercepts, b.intercepts)
    assert not np.array_equal(a.slopes, c.slopes)


def test_graph_dependent_groups_share_parameters():
    rng = np.random.default_rng(3)
    g = random_instance(rng, n_max=8, m_max=10)
    n = g.n_outcome
    spec = ScenarioSpec.graph_dependent(2, model_seed=1)
    labels = outcome_linkage_labels(g, 2)
    model = generate_outcome_model(g, spec)
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        assert np.unique(model.slopes[members]).size == 1
        assert np.unique(model.intercepts[members]).size == 1
    if n > 2:
        assert np.unique(model.slopes).size <= 2
    iid_spec = ScenarioSpec.graph_dependent(n, model_seed=1)
    iid = generate_outcome_model(g, iid_spec)
    assert np.unique(iid.slopes).size == n


def test_graph_dependent_refuses_large_linkage(monkeypatch):
    rng = np.random.default_rng(8)
    g = random_instance(rng, n_max=6, m_max=10)
    monkeypatch.setattr(simulate, "MAX_LINKAGE_UNITS", 1)
    spec = ScenarioSpec.graph_dependent(1, model_seed=1)
    with pytest.raises(ScenarioError, match="GB; the limit is 1 outcome"):
        generate_outcome_model(g, spec)
    # One group per unit needs no linkage, so it is not refused.
    labels = outcome_linkage_labels(g, g.n_outcome)
    assert labels.tolist() == list(range(g.n_outcome))


def test_linkage_labels_count():
    rng = np.random.default_rng(8)
    g = random_instance(rng, n_max=6, m_max=10)
    n = g.n_outcome
    for k in range(1, n + 1):
        labels = outcome_linkage_labels(g, k)
        assert labels.size == n
        assert np.unique(labels).size == min(k, n)


def test_run_simulation_deterministic():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    r1 = run_simulation(g, d, model, 40, base_seed=7)
    r2 = run_simulation(g, d, model, 40, base_seed=7)
    assert r1.estimate_array().tolist() == r2.estimate_array().tolist()
    assert r1.mse == r2.mse
    r3 = run_simulation(g, d, model, 40, base_seed=8)
    assert r1.estimate_array().tolist() != r3.estimate_array().tolist()


def test_run_simulation_prefix_stability():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    short = run_simulation(g, d, model, 5, base_seed=7)
    long = run_simulation(g, d, model, 10, base_seed=7)
    assert short.estimate_array().tolist() == \
        long.estimate_array()[:5].tolist()


def test_run_simulation_mse_decomposes():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    report = run_simulation(g, d, model, 200, base_seed=3)
    ests = report.estimate_array()
    assert report.mse == pytest.approx(
        report.bias ** 2 + ests.var(ddof=0), abs=1e-12)
    assert report.standard_error() == pytest.approx(
        np.sqrt(report.mse / 200))


def test_mse_standard_error_formula():
    g = small_graph()
    d = DesignSpec.bernoulli(0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    report = run_simulation(g, d, model, 50, base_seed=3)
    sq = [(e - report.true_ate) ** 2 for e in report.estimates.tolist()]
    mean = sum(sq) / len(sq)
    var = sum((v - mean) ** 2 for v in sq) / (len(sq) - 1)
    assert report.mse_standard_error() == pytest.approx(
        (var / len(sq)) ** 0.5, rel=1e-12)
    payload = json.loads(report_to_json(report))
    assert payload["mse_standard_error"] == report.mse_standard_error()
    single = run_simulation(g, d, model, 1, base_seed=3)
    assert np.isnan(single.mse_standard_error())
    assert json.loads(report_to_json(single))["mse_standard_error"] is None


def test_run_simulation_does_not_mutate_model():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    slopes_before = model.slopes.copy()
    run_simulation(g, d, model, 20, base_seed=0)
    np.testing.assert_array_equal(model.slopes, slopes_before)


def test_run_simulation_sutva_exact():
    g = identity_graph(2)
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.zeros(2))
    report = run_simulation(g, d, model, 64, base_seed=0)
    assert np.all(report.estimate_array() == 2.0)
    assert report.mse == 0.0
    assert report.true_ate == 2.0


def test_run_simulation_rejects_bad_replicates():
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.zeros(2), intercepts=np.ones(2))
    with pytest.raises(ValueError):
        run_simulation(g, d, model, 0, base_seed=0)
    short = OutcomeModel(slopes=np.zeros(1), intercepts=np.ones(1))
    with pytest.raises(ValueError, match="does not match the model"):
        run_simulation(g, d, short, 5, base_seed=0)


def _count_replicate_seeds(monkeypatch):
    """Record every replicate whose coins run_simulation draws: a span's
    derived_rng call gives its first, and each row replicate_coins fills
    the next."""
    calls, at = [], {}

    def seeding(base_seed, start):
        rng = derived_rng(base_seed, start)
        at[rng] = start
        return rng

    def drawing(rng, out):
        calls.extend(range(at[rng], at[rng] + len(out)))
        at[rng] += len(out)
        replicate_coins(rng, out)

    monkeypatch.setattr(simulate, "derived_rng", seeding)
    monkeypatch.setattr(simulate, "replicate_coins", drawing)
    return calls


def test_run_simulation_seeds_each_replicate_once(monkeypatch):
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.zeros(2), intercepts=np.ones(2))
    calls = _count_replicate_seeds(monkeypatch)
    run_simulation(g, d, model, 5, base_seed=0)
    assert calls == list(range(5))


def test_run_simulation_rejects_degenerate_design_first(monkeypatch):
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 1e-12)
    model = OutcomeModel(slopes=np.ones(2), intercepts=np.zeros(2))
    calls = _count_replicate_seeds(monkeypatch)
    with pytest.raises(DegenerateDesignError):
        run_simulation(g, d, model, 100, base_seed=0)
    assert calls == []


def _replicate_loop(g, d, model, replicates, base_seed):
    """run_simulation's estimates, one public call at a time."""
    mom = exposure_moments(g, d)
    ests = []
    for r in range(replicates):
        z = sample_assignment(d, derived_rng(base_seed, r), m=g.n_diversion)
        x = exposures(g, z)
        ests.append(erl_estimate(respond(model, x), x, mom))
    return np.array(ests)


@pytest.mark.parametrize("p", [0.5, 0.3])
def test_run_simulation_matches_replicate_loop(p):
    rng = np.random.default_rng(2024)
    for case in range(24):
        g = random_instance(rng, n_max=8, m_max=14)
        model = random_model(rng, g.n_outcome)
        if case % 2:
            d = DesignSpec.bernoulli(p)
        else:
            d = DesignSpec.independent_cluster(
                nondegenerate_clustering(g, rng, p), p)
        # 1, a partial first block, and a full block plus a partial one.
        replicates = (1, 5, 70)[case % 3]
        report = run_simulation(g, d, model, replicates, base_seed=case)
        loop = _replicate_loop(g, d, model, replicates, case)
        np.testing.assert_allclose(report.estimates, loop, rtol=1e-12,
                                   atol=1e-12 * np.abs(loop).max())


# 40 replicates: two full blocks of 16 and a partial one.
@pytest.mark.parametrize("constant,value", [
    ("_BLOCK", 1), ("_BLOCK", 3), (None, None)])
def test_run_simulation_estimates_do_not_depend_on_block(
        monkeypatch, constant, value):
    g, _ = paired_pool_instance()
    model = generate_outcome_model(g, ScenarioSpec.positive_te(model_seed=4))
    rng = np.random.default_rng(5)
    designs = [DesignSpec.bernoulli(0.5),
               DesignSpec.independent_cluster(
                   random_clustering(rng, g.n_diversion, k_max=400), 0.3)]
    expected = [run_simulation(g, d, model, 40, base_seed=9).estimates
                for d in designs]
    if constant is not None:
        monkeypatch.setattr(simulate, constant, value)
    for d, want in zip(designs, expected):
        got = run_simulation(g, d, model, 40, base_seed=9).estimates
        assert got.tobytes() == want.tobytes()


def test_build_histogram_conservation():
    values = np.array([0.0, 0.1, 0.5, 0.9, 1.0, 1.0])
    edges, counts = build_histogram(values, 4)
    assert counts.sum() == values.size
    assert edges[0] == values.min()
    assert edges[-1] == values.max()
    assert edges.size == counts.size + 1


def test_build_histogram_degenerate():
    values = np.full(7, 2.5)
    edges, counts = build_histogram(values, 10)
    assert counts.sum() == 7
    assert counts.size == 1


def test_export_histogram_and_estimates(tmp_path):
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    report = run_simulation(g, d, model, 30, base_seed=1)
    hpath = tmp_path / "hist.csv"
    export_histogram(report, 8, hpath)
    lines = hpath.read_text().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert lines[-1].startswith("true_ate,")
    body = [ln for ln in lines[1:] if not ln.startswith("true_ate")]
    assert sum(int(ln.split(",")[2]) for ln in body) == 30

    epath = tmp_path / "est.csv"
    export_estimates_csv(report, epath)
    elines = epath.read_text().splitlines()
    assert elines[0] == "replicate,estimate"
    assert len(elines) == 31
    assert float(elines[1].split(",")[1]) == report.estimates[0]


@pytest.mark.parametrize("estimates,tau,bins,text", [
    ([0.1, 0.2, 0.7, -0.0], 1 / 3, 3,
     "bin_left,bin_right,count\n0.0,0.2333333333333333,3\n"
     "0.2333333333333333,0.4666666666666666,0\n0.4666666666666666,0.7,1\n"
     "true_ate,0.3333333333333333,\n"),
    # All estimates equal: one degenerate bin, whatever `bins` says.
    ([2.5, 2.5, 2.5], 0.1, 5,
     "bin_left,bin_right,count\n2.5,2.5,3\ntrue_ate,0.1,\n"),
], ids=["three-bins", "one-bin"])
def test_export_histogram_bytes(tmp_path, estimates, tau, bins, text):
    report = simulate.SimulationReport("d", "s", tau, np.array(estimates))
    path = tmp_path / "hist.csv"
    export_histogram(report, bins, path)
    assert path.read_bytes() == text.encode()


def test_report_to_json_deterministic(tmp_path):
    g = small_graph()
    d = DesignSpec.independent_cluster(Clustering.singletons(2), 0.5)
    model = OutcomeModel(slopes=np.array([1.0, 0.5]),
                         intercepts=np.array([0.2, -0.1]))
    report = run_simulation(g, d, model, 15, base_seed=2,
                            design_name="demo", scenario_name="PositiveTE")
    text1 = report_to_json(report)
    text2 = report_to_json(report, tmp_path / "r.json")
    assert text1 == text2
    assert (tmp_path / "r.json").read_text() == text1
    payload = json.loads(text1)
    assert payload["design_name"] == "demo"
    assert payload["n_replicates"] == 15
    # The histogram lives in histogram.csv only.
    assert not any(key.startswith("histogram") for key in payload)


def test_phi_sweep_rows():
    rng = np.random.default_rng(17)
    g = random_instance(rng, n_max=6, m_max=8)
    scenario = ScenarioSpec.positive_te(model_seed=2)
    cfg = LocalSearchConfig(phi=1.0, max_passes=5, convergence=False, seed=0)
    rows = phi_sweep(g, scenario, [0.5, 1.0], cfg, replicates=20,
                     base_seed=50)
    assert len(rows) == 2
    assert rows[0].phi == 0.5
    assert rows[1].phi == 1.0
    model = generate_outcome_model(g, scenario)
    for idx, row in enumerate(rows):
        assert row.n_clusters >= 1
        assert row.mse >= 0
        # The exact MSE is that of the row's own design and the shared model.
        result = local_search(g, replace(cfg, phi=row.phi, seed=idx))
        d = DesignSpec.independent_cluster(result.clustering, cfg.p)
        assert row.exact_mse == mse(g, d, model)
    again = phi_sweep(g, scenario, [0.5, 1.0], cfg, replicates=20,
                      base_seed=50)
    assert rows == again


def test_phi_sweep_rejects_empty():
    g = small_graph()
    scenario = ScenarioSpec.positive_te()
    cfg = LocalSearchConfig(phi=1.0, max_passes=3, convergence=False, seed=0)
    with pytest.raises(ValueError):
        phi_sweep(g, scenario, [], cfg, replicates=5, base_seed=0)


def test_sweep_csv(tmp_path):
    rng = np.random.default_rng(19)
    g = random_instance(rng, n_max=5, m_max=7)
    scenario = ScenarioSpec.zero_te(model_seed=1)
    cfg = LocalSearchConfig(phi=1.0, max_passes=4, convergence=False, seed=0)
    path = tmp_path / "sweep.csv"
    rows = phi_sweep(g, scenario, [1.0], cfg, replicates=10, base_seed=4,
                     path=path)
    lines = path.read_text().splitlines()
    assert lines[0] == "phi,n_clusters,objective_total,mse,bias,exact_mse"
    assert len(lines) == 1 + len(rows)
    assert lines[1].split(",")[-1] == repr(rows[0].exact_mse)


def test_write_sweep_csv_bytes(tmp_path):
    rows = [simulate.SweepRow(0.01, 7, 1e16, 1 / 3, -0.0, 5e-324),
            simulate.SweepRow(1.0, 1, 2.0, 0.1, 1e-05, 123456789.0)]
    path = tmp_path / "sweep.csv"
    simulate.write_sweep_csv(rows, path)
    assert path.read_bytes() == (
        b"phi,n_clusters,objective_total,mse,bias,exact_mse\n"
        b"0.01,7,1e+16,0.3333333333333333,-0.0,5e-324\n"
        b"1.0,1,2.0,0.1,1e-05,123456789.0\n")


def _dense_instance():
    """300 outcome x 160 diversion units, every pair an edge, and a design
    of 80 clusters: a block's product is large enough, and its aggregates
    hold enough bytes, for three spans once the work cut-off is lifted."""
    rng = np.random.default_rng(11)
    n, m = 300, 160
    g = BipartiteGraph.from_csr(sp.csr_matrix(rng.random((n, m)) + 0.1),
                                tuple(f"o{i}" for i in range(n)),
                                tuple(f"d{j}" for j in range(m)))
    return g, random_model(rng, n), [
        DesignSpec.bernoulli(0.5),
        DesignSpec.independent_cluster(
            Clustering.from_labels(rng.permutation(np.arange(m) // 2)), 0.3)]


def _seed_calls(monkeypatch):
    """Each derived_rng call of run_simulation, as (start, thread): one per
    span, at the span's first replicate."""
    calls = []

    def recording(base_seed, start):
        calls.append((start, threading.get_ident()))
        return derived_rng(base_seed, start)

    monkeypatch.setattr(simulate, "derived_rng", recording)
    return calls


def _cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)), raising=False)


# The spans' cuts of each replicate count on 2 and 3 CPUs: whole blocks of
# _BLOCK (16) replicates, split as evenly as they go, the last block short.
_SPAN_CUTS = {
    2: {1: [0, 1], 15: [0, 15], 16: [0, 16], 17: [0, 16, 17],
        33: [0, 16, 33], 4100: [0, 2048, 4100]},
    3: {1: [0, 1], 15: [0, 15], 16: [0, 16], 17: [0, 16, 17],
        33: [0, 16, 32, 33], 4100: [0, 1360, 2736, 4100]},
}


def test_spans_give_the_one_span_estimates(monkeypatch):
    g, model, designs = _dense_instance()
    caller = threading.get_ident()
    calls = _seed_calls(monkeypatch)
    # Below the work cut-off, one span on any machine.
    expected = {}
    for i, d in enumerate(designs):
        for replicates in _SPAN_CUTS[2]:
            calls.clear()
            expected[i, replicates] = run_simulation(
                g, d, model, replicates, base_seed=5).estimates
            assert calls == [(0, caller)]
    monkeypatch.setattr(simulate, "_SPAN_PRODUCTS", 0)
    # Three spans on a 2-CPU machine, and threads switched often.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for cpus, cut_table in _SPAN_CUTS.items():
            _cpus(monkeypatch, cpus)
            for i, d in enumerate(designs):
                for replicates, cuts in cut_table.items():
                    calls.clear()
                    got = run_simulation(g, d, model, replicates,
                                         base_seed=5).estimates
                    assert np.array_equal(got, expected[i, replicates])
                    # One call per span, at its start. A pool thread that
                    # is idle takes the next span, so spans are not
                    # counted by thread.
                    assert sorted(start for start, _ in calls) == cuts[:-1]
                    # The caller's thread runs the first span, the pool
                    # the others.
                    assert all((thread == caller) == (start == 0)
                               for start, thread in calls)
                    if len(cuts) > 2:
                        assert len({thread for _, thread in calls}) >= 2
    finally:
        sys.setswitchinterval(interval)


class _SpanFault(Exception):
    pass


@pytest.mark.parametrize("where,exc", [
    ("caller", _SpanFault), ("pool", _SpanFault),
    ("caller", KeyboardInterrupt)], ids=["caller", "pool", "interrupt"])
def test_a_failing_span_ends_the_call(monkeypatch, where, exc):
    g, model, designs = _dense_instance()
    monkeypatch.setattr(simulate, "_SPAN_PRODUCTS", 0)
    _cpus(monkeypatch, 3)
    raised = exc("span failed")
    failed = threading.Event()

    def failing(base_seed, start):
        # The caller's span starts at replicate 0, the pool's later. The
        # spans that do not fail start their first block once one has.
        if (start == 0) == (where == "caller"):
            failed.set()
            raise raised
        assert failed.wait(timeout=30)
        return derived_rng(base_seed, start)

    blocks = []

    def counting(coins, p, out):
        blocks.append(1)
        return coin_signs(coins, p, out)

    monkeypatch.setattr(simulate, "derived_rng", failing)
    monkeypatch.setattr(simulate, "coin_signs", counting)
    before = threading.active_count()
    with pytest.raises(exc) as info:
        run_simulation(g, designs[0], model, 4100, base_seed=5)
    assert info.value is raised
    assert threading.active_count() == before
    # Each span that did not fail ran its first block and stopped at the
    # next, of 85 or 86.
    assert len(blocks) <= (2 if where == "caller" else 1)


def test_span_count_is_capped_by_memory(monkeypatch):
    n, k = 1000, 100
    agg = sp.csr_matrix(np.ones((n, k)))
    # 1e5 entries: 1.2e6 bytes of data and int32 indices, 4004 of indptr.
    # A span holds 8 (2 * 16 k + 16 n + 2 * 16 n) = 409,600 bytes, so two
    # extra spans fit in the aggregates' bytes and three do not.
    _cpus(monkeypatch, 64)
    assert simulate._span_count(agg, blocks=1000) == 3
    assert simulate._span_count(agg, blocks=2) == 2
    _cpus(monkeypatch, 1)
    assert simulate._span_count(agg, blocks=1000) == 1
    # A block's product below the cut-off runs in one span.
    _cpus(monkeypatch, 64)
    monkeypatch.setattr(simulate, "_SPAN_PRODUCTS", n * k * 16 + 1)
    assert simulate._span_count(agg, blocks=1000) == 1
