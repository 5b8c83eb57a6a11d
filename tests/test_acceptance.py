"""Acceptance checks, one test per criterion, run with `pytest -v`.

Each test prints its measured numbers; run with -s to see them on passing
tests (pytest shows them automatically on failures).
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from bipx.cli import main as cli_main
from bipx.cluster_opt import (LocalSearchConfig, local_search, objective,
                              spread_identity_constant, wedge_sample)
from bipx.design import (Clustering, DesignSpec, cluster_aggregated_weights,
                         exposure_moments)
from bipx.estimator import OutcomeModel, mse_zero_slope, true_ate
from bipx.graph_core import BipartiteGraph
from bipx.oracle import (ExactMoments, corr_clust_cs_rewrite,
                         expected_estimate, exposure_spread_enumerated,
                         mse_decomposition, mse_exact, mse_zero_intercept_bound,
                         objective_by_moments, objective_by_omega)
from bipx.simulate import ScenarioSpec, generate_outcome_model, run_simulation
from bipx.synth import (nondegenerate_clustering, paired_pool_instance,
                        partitions_equal, perf_instance, planted_four_block,
                        random_clustering, random_instance, random_model,
                        wedge_test_graph)

import scipy.sparse as sp

P_GRID = (0.3, 0.5, 0.7)


def _instances(count, seed=0):
    """Deterministic stream of (graph, clustering, design, p) tuples."""
    rng = np.random.default_rng(np.random.SeedSequence([seed]))
    made = 0
    while made < count:
        p = P_GRID[made % len(P_GRID)]
        g = random_instance(rng)
        c = nondegenerate_clustering(g, rng, p)
        d = DesignSpec.independent_cluster(c, p)
        yield g, c, d, p, rng
        made += 1


def test_criterion_01_unbiasedness():
    start = time.perf_counter()
    worst = 0.0
    for g, c, d, p, rng in _instances(200, seed=101):
        model = random_model(rng, g.n_outcome)
        tau = true_ate(model)
        est = expected_estimate(g, d, model)
        rel = abs(est - tau) / max(abs(tau), 1e-12)
        worst = max(worst, rel)
        assert est == pytest.approx(tau, rel=1e-9, abs=1e-9)
    elapsed = time.perf_counter() - start
    print(f"criterion 1: 200 instances, worst relative error {worst:.3e}, "
          f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_02_analytic_moments_vs_oracle():
    start = time.perf_counter()
    worst = 0.0
    for g, c, d, p, rng in _instances(100, seed=202):
        mom = exposure_moments(g, d)
        exact = ExactMoments(g, d)
        worst = max(worst,
                    float(np.max(np.abs(mom.mean - exact.mean()))),
                    float(np.max(np.abs(mom.variance
                                        - np.diag(exact.covariance())))))
        np.testing.assert_allclose(mom.mean, exact.mean(), atol=1e-12)
        cov = exact.covariance()
        np.testing.assert_allclose(mom.variance, np.diag(cov), atol=1e-12)
        caw = cluster_aggregated_weights(g, c)
        analytic = d.coin_variance * (caw.agg @ caw.agg.T).toarray()
        for i in range(g.n_outcome):
            for j in range(i + 1, g.n_outcome):
                assert analytic[i, j] == pytest.approx(cov[i, j], abs=1e-12)
    elapsed = time.perf_counter() - start
    print(f"criterion 2: 100 instances, worst abs error {worst:.3e}, "
          f"{elapsed:.2f}s")
    assert elapsed < 10.0


def test_criterion_03_zero_slope_exactness():
    for g, c, d, p, rng in _instances(100, seed=303):
        model = OutcomeModel(slopes=np.zeros(g.n_outcome),
                             intercepts=rng.normal(0.0, 1.0, g.n_outcome))
        assert mse_zero_slope(g, d, model) == pytest.approx(
            mse_exact(g, d, model), rel=1e-9, abs=1e-12)
    print("criterion 3: 100 zero-slope instances within 1e-9")


def test_criterion_04_zero_intercept_bound():
    checked = 0
    rng = np.random.default_rng(np.random.SeedSequence([404]))
    while checked < 100:
        g = random_instance(rng)
        c = nondegenerate_clustering(g, rng, 0.5)
        d = DesignSpec.independent_cluster(c, 0.5)
        model = OutcomeModel(slopes=rng.normal(0.0, 1.0, g.n_outcome),
                             intercepts=np.zeros(g.n_outcome))
        assert mse_zero_intercept_bound(g, d, model) >= \
            mse_exact(g, d, model) - 1e-12
        checked += 1
    # SUTVA case: identity W makes both sides exactly zero.
    n = 4
    g = BipartiteGraph.from_csr(sp.identity(n, format="csr"),
                                tuple(f"o{i}" for i in range(n)),
                                tuple(f"d{i}" for i in range(n)))
    d = DesignSpec.independent_cluster(Clustering.singletons(n), 0.5)
    model = OutcomeModel(slopes=rng.normal(0.0, 1.0, n),
                         intercepts=np.zeros(n))
    mse = mse_exact(g, d, model)
    bound = mse_zero_intercept_bound(g, d, model)
    assert mse == pytest.approx(0.0, abs=1e-12)
    assert bound == pytest.approx(0.0, abs=1e-12)
    print("criterion 4: bound held on 100 instances; SUTVA equality at 0")


def test_criterion_05_mse_decomposition():
    for g, c, d, p, rng in _instances(100, seed=505):
        model = random_model(rng, g.n_outcome)
        assert mse_decomposition(g, d, model) == pytest.approx(
            mse_exact(g, d, model), rel=1e-9, abs=1e-12)
    print("criterion 5: 100 instances, decomposition within 1e-9")


def test_criterion_06_objective_triple_route():
    rng = np.random.default_rng(np.random.SeedSequence([606]))
    for _ in range(100):
        g = random_instance(rng)
        c = random_clustering(rng, g.n_diversion)
        phi = float(rng.choice([0.0, 0.25, 1.0, 2.0]))
        p = float(rng.choice(P_GRID))
        a = objective(g, c, phi, p)
        b = objective_by_moments(g, c, phi, p)
        d = objective_by_omega(g, c, phi, p)
        assert a.total == pytest.approx(b.total, rel=1e-9, abs=1e-9)
        assert a.total == pytest.approx(d.total, rel=1e-9, abs=1e-9)
        assert a.variance_sum == pytest.approx(b.variance_sum, rel=1e-9,
                                               abs=1e-9)
        assert a.covariance_sum == pytest.approx(b.covariance_sum, rel=1e-9,
                                                 abs=1e-9)
    # Worked 2x2 example reproduces exactly in floats.
    W = sp.csr_matrix(np.array([[0.5, 0.5], [1.0, 0.0]]))
    g2 = BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v"))
    assert objective(g2, Clustering.singletons(2), 1.0).total == 0.5
    assert objective(g2, Clustering.one_cluster(2), 1.0).total == 0.0
    print("criterion 6: 100 pairs within 1e-9; 2x2 worked values exact")


def test_criterion_07_spread_affine_identity():
    rng = np.random.default_rng(np.random.SeedSequence([707]))
    for _ in range(100):
        g = random_instance(rng)
        c = random_clustering(rng, g.n_diversion)
        p = float(rng.choice(P_GRID))
        n = g.n_outcome
        if n < 2:
            continue
        phi = 1.0 / (n - 1)
        spread = exposure_spread_enumerated(g, c, p)
        affine = ((n - 1) / n) * objective(g, c, phi, p).total \
            + spread_identity_constant(g, c, p)
        assert spread == pytest.approx(affine, rel=1e-9, abs=1e-9)
        assert spread_identity_constant(g, c, 0.5) == 0.0
    print("criterion 7: affine identity within 1e-9; constant 0 at p=1/2")


def test_criterion_08_corr_clust_cs_identity():
    rng = np.random.default_rng(np.random.SeedSequence([808]))
    for _ in range(100):
        g = random_instance(rng)
        c = random_clustering(rng, g.n_diversion)
        phi = float(rng.choice([0.0, 0.5, 1.0, 3.0]))
        cs = corr_clust_cs_rewrite(g, phi, c)
        assert cs.corr_clust_total - cs.constant == pytest.approx(
            cs.cs_total, rel=1e-10, abs=1e-10)
        assert cs.in_weight >= 0 and cs.out_weight >= 0
    print("criterion 8: rewrite identity within 1e-10 on 100 instances")


def test_criterion_09_wedge_sampling_marginal():
    g = wedge_test_graph()
    assert (g.n_outcome, g.n_diversion) == (20, 30)
    gram = (g.cols.T @ g.cols).toarray()
    s = g.col_sums
    i = int(np.argmax(s))  # best-connected column: widest support
    exact = gram[i] / s[i]
    assert exact.sum() == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(np.random.SeedSequence([909]))
    draws = np.array([wedge_sample(g, i, rng) for _ in range(100_000)])
    freq = np.bincount(draws, minlength=g.n_diversion) / draws.size
    tv = 0.5 * float(np.abs(freq - exact).sum())
    print(f"criterion 9: TV(empirical, exact) = {tv:.4f} over 1e5 draws")
    assert tv <= 0.01


def test_criterion_10_local_search_sanity():
    # Trace monotone and k_max respected across seeds and phi values.
    rng = np.random.default_rng(np.random.SeedSequence([1010]))
    g = random_instance(rng, n_max=10, m_max=24)
    for seed in range(4):
        for phi, k_max in ((1.0, None), (0.5, 3), (0.1, 2)):
            cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=15,
                                    convergence=False, seed=seed)
            result = local_search(g, cfg)
            totals = [row.objective_total for row in result.trace]
            assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))
            if k_max is not None:
                assert np.bincount(result.clustering.assignment).max() \
                    <= k_max

    # Planted 4-block recovery in >= 9 of 10 seeds.
    g4, planted = planted_four_block()
    hits = 0
    for seed in range(10):
        cfg = LocalSearchConfig(phi=1.0, convergence=False, max_passes=30,
                                seed=seed)
        if partitions_equal(local_search(g4, cfg).clustering, planted):
            hits += 1
    print(f"criterion 10: planted blocks recovered in {hits}/10 seeds")
    assert hits >= 9

    # Scale run: m = 1e5, nnz = 1e6, five passes under five minutes.
    big = perf_instance()
    start = time.perf_counter()
    cfg = LocalSearchConfig(phi=0.01, k_max=50, max_passes=5,
                            convergence=False, seed=0)
    result = local_search(big, cfg)
    elapsed = time.perf_counter() - start
    totals = [row.objective_total for row in result.trace]
    assert all(b >= a - 1e-9 for a, b in zip(totals, totals[1:]))
    assert np.bincount(result.clustering.assignment).max() <= 50
    print(f"criterion 10: 5 passes on m=1e5/nnz=1e6 in {elapsed:.1f}s")
    assert elapsed < 300.0


def _mse_at_half(g, d, model):
    """Exact ERL MSE at p = 1/2 in closed form, without enumeration.

    With A the cluster aggregates, V_i = sum_C A_iC^2, G = A A^T,
    H = (A o A)(A o A)^T, u = m / V and v = b / V:

        MSE = (4/n^2) [ u^T (2 G o G - 2 H) u + ||A^T v||^2 ].

    The first term is sum_ij u_i u_j Cov(x_i^2, x_j^2) for +/-1 coins; the
    slope-intercept cross terms are odd moments and vanish since E[x] = 0.
    """
    assert d.p == 0.5
    a = cluster_aggregated_weights(
        g, d.effective_clustering(g.n_diversion)).agg
    a2 = a.multiply(a).tocsr()
    v = np.asarray(a2.sum(axis=1)).ravel()
    gram = (a @ a.T).toarray()
    quart = (a2 @ a2.T).toarray()
    u = model.slopes / v
    w = model.intercepts / v
    slope_part = float(u @ (2.0 * gram ** 2 - 2.0 * quart) @ u)
    intercept_part = float(np.sum(np.asarray(a.T @ w) ** 2))
    return (4.0 / model.n ** 2) * (slope_part + intercept_part)


def test_criterion_11_end_to_end_ordering():
    # The closed form must agree with the enumeration oracle before use.
    checked = 0
    for g, c, d, p, rng in _instances(90, seed=1111):
        if p != 0.5:
            continue
        model = random_model(rng, g.n_outcome)
        assert _mse_at_half(g, d, model) == pytest.approx(
            mse_exact(g, d, model), rel=1e-9, abs=1e-12)
        checked += 1
    assert checked == 30

    g, owner = paired_pool_instance()
    n = g.n_outcome
    assert (n, g.n_diversion) == (200, 2000)
    scenario = ScenarioSpec.positive_te(model_seed=11)
    model = generate_outcome_model(g, scenario)
    tau = true_ate(model)
    replicates = 5000

    designs = {}
    for name, phi in (("ed_phi1", 1.0), ("ed_phi_small", 1.0 / (n - 1))):
        cfg = LocalSearchConfig(phi=phi, k_max=5, convergence=False,
                                max_passes=20, seed=3)
        result = local_search(g, cfg)
        designs[name] = DesignSpec.independent_cluster(result.clustering,
                                                       0.5)
    designs["bernoulli"] = DesignSpec.bernoulli(0.5)

    # The design the instance documents: each owner's spokes share one
    # coin, pool units stay singletons.
    labels = np.where(owner >= 0, owner, n + np.arange(owner.size))
    documented = DesignSpec.independent_cluster(
        Clustering.from_labels(labels), 0.5)

    reports = {name: run_simulation(g, d, model, replicates, base_seed=100,
                                    design_name=name,
                                    scenario_name=scenario.kind)
               for name, d in designs.items()}
    exact = {name: _mse_at_half(g, d, model) for name, d in designs.items()}
    exact_documented = _mse_at_half(g, documented, model)

    for name, report in reports.items():
        sq_err = (report.estimate_array() - tau) ** 2
        mc_se = float(np.std(sq_err, ddof=1) / np.sqrt(replicates))
        print(f"criterion 11: {name:12s} exact mse {exact[name]:.6e}, "
              f"mc mse {report.mse:.6e} "
              f"({(report.mse - exact[name]) / mc_se:+.2f} se), "
              f"{exact[name] / exact['ed_phi1']:.2f}x phi=1")
        assert abs(report.mse - exact[name]) <= 4.0 * mc_se, (
            f"{name}: Monte Carlo MSE beyond 4 se of the exact MSE")
        se = report.standard_error()
        print(f"criterion 11: bias({name}) = {report.bias:+.5f} "
              f"(se {se:.5f})")
        assert abs(report.bias) <= 3.0 * se, f"{name} bias beyond 3 se"
    print(f"criterion 11: documented design exact mse "
          f"{exact_documented:.6e}")

    assert exact["ed_phi1"] <= exact_documented * (1.0 + 1e-9), (
        "phi=1 design worse than the documented spokes-grouped design")
    assert exact["ed_phi1"] < exact["ed_phi_small"] < exact["bernoulli"]
    assert exact["bernoulli"] >= 10.0 * exact["ed_phi1"], (
        f"bernoulli/ed_phi1 exact MSE ratio "
        f"{exact['bernoulli'] / exact['ed_phi1']:.2f} < 10")
    assert (reports["ed_phi1"].mse < reports["ed_phi_small"].mse
            < reports["bernoulli"].mse), "Monte Carlo MSE ordering"


def test_criterion_12_manifest_reproducibility(tmp_path):
    runner = CliRunner()
    edges = tmp_path / "edges.txt"
    lines = []
    rng = np.random.default_rng(np.random.SeedSequence([1212]))
    for i in range(8):
        for j in sorted(rng.choice(12, size=3, replace=False)):
            lines.append(f"o{i} d{j} {float(rng.integers(1, 9))!r}")
    edges.write_text("\n".join(lines) + "\n")
    scenario = tmp_path / "scenario.txt"
    scenario.write_text("kind = PositiveTE\nmodel_seed = 5\n")

    graph = tmp_path / "graph.bin"
    clustering = tmp_path / "clustering.tsv"
    moments = tmp_path / "moments.csv"
    simdir = tmp_path / "sim"
    sweep = tmp_path / "sweep.csv"

    steps = [
        ["ingest", str(edges), str(graph)],
        ["design", str(graph), str(clustering), "--method",
         "exposure-design", "--phi", "1.0", "--max-passes", "10"],
        ["moments", str(graph), str(clustering), str(moments)],
        ["simulate", str(graph), str(scenario), str(simdir),
         "--clustering", str(clustering), "--replicates", "40"],
        ["sweep", str(graph), str(scenario), str(sweep),
         "--phis", "0.5,1.0", "--replicates", "25", "--max-passes", "6"],
    ]
    for argv in steps:
        result = runner.invoke(cli_main, argv)
        assert result.exit_code == 0, f"{argv}: {result.output}"

    manifests = [
        graph.with_name("graph.bin.manifest.json"),
        clustering.with_name("clustering.tsv.manifest.json"),
        moments.with_name("moments.csv.manifest.json"),
        simdir / "manifest.json",
        sweep.with_name("sweep.csv.manifest.json"),
    ]
    for manifest in manifests:
        assert manifest.exists(), manifest
        record = json.loads(manifest.read_text())
        assert record["outputs"], manifest
        result = runner.invoke(cli_main, ["rerun", str(manifest), "--check"])
        assert result.exit_code == 0, f"{manifest}: {result.output}"
        assert "byte-identical" in result.output
    print(f"criterion 12: {len(manifests)} manifests replayed byte-identical")
