import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

import bipx
from bipx import simulate
from bipx.cli import main
from bipx.design import read_clustering
from bipx.graph_core import (BipartiteGraph, load_edge_list,
                             load_snapshot, save_snapshot)

EDGES = """\
# three outcome units, four diversion units
a u 1.0
a v 1.0
b v 2.0
b w 1.0
c w 1.0
c x 3.0
"""

SCENARIO = "kind = PositiveTE\nmodel_seed = 3\n"


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def workspace(tmp_path, runner):
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(EDGES)
    graph_path = tmp_path / "graph.bin"
    result = runner.invoke(main, ["ingest", str(edge_path), str(graph_path)])
    assert result.exit_code == 0, result.output
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(SCENARIO)
    return tmp_path, graph_path, scenario_path


def test_version(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "bipx" in result.output


def test_ingest_outputs(workspace):
    tmp_path, graph_path, _ = workspace
    assert graph_path.exists()
    outcome_map = tmp_path / "graph.bin.outcome_ids.tsv"
    diversion_map = tmp_path / "graph.bin.diversion_ids.tsv"
    manifest_path = tmp_path / "graph.bin.manifest.json"
    assert outcome_map.read_text() == "0\ta\n1\tb\n2\tc\n"
    assert diversion_map.read_text() == "0\tu\n1\tv\n2\tw\n3\tx\n"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "ingest"
    assert manifest["argv"][0] == "ingest"
    assert manifest["version"]
    assert len(manifest["outputs"]) == 3
    g = load_snapshot(graph_path)
    assert (g.n_outcome, g.n_diversion) == (3, 4)
    np.testing.assert_allclose(np.asarray(g.rows.sum(axis=1)).ravel(), 1.0)


def test_ingest_rejects_malformed_line(tmp_path, runner):
    bad = tmp_path / "bad.txt"
    bad.write_text("a u 1.0\na v not_a_number\n")
    result = runner.invoke(main, ["ingest", str(bad),
                                  str(tmp_path / "g.bin")])
    assert result.exit_code != 0
    assert ":2:" in result.output


def test_ingest_min_degree(tmp_path, runner):
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(EDGES)
    graph_path = tmp_path / "g.bin"
    result = runner.invoke(main, ["ingest", str(edge_path), str(graph_path),
                                  "--min-degree", "2"])
    assert result.exit_code == 0, result.output
    g = load_snapshot(graph_path)
    assert g.n_outcome == 3  # every outcome unit here has two edges


def test_export_round_trip(workspace, runner):
    tmp_path, graph_path, _ = workspace
    out = tmp_path / "exported.txt"
    result = runner.invoke(main, ["export", str(graph_path), str(out)])
    assert result.exit_code == 0, result.output
    g = load_snapshot(graph_path)
    g2 = load_edge_list(out)
    assert g2.outcome_ids == g.outcome_ids
    assert g2.diversion_ids == g.diversion_ids
    np.testing.assert_allclose(g2.rows.toarray(), g.rows.toarray(),
                               atol=1e-12)


@pytest.mark.parametrize("method,expected_k", [
    ("singleton", 4), ("one-cluster", 1), ("balanced:2", 2),
])
def test_design_fixed_methods(workspace, runner, method, expected_k):
    tmp_path, graph_path, _ = workspace
    out = tmp_path / f"c_{method.replace(':', '_')}.tsv"
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", method])
    assert result.exit_code == 0, result.output
    g = load_snapshot(graph_path)
    c = read_clustering(g, out)
    assert c.k == expected_k
    assert (tmp_path / (out.name + ".manifest.json")).exists()


def test_design_exposure_design_with_trace(workspace, runner):
    tmp_path, graph_path, _ = workspace
    out = tmp_path / "c.tsv"
    trace = tmp_path / "trace.csv"
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "exposure-design",
                                  "--phi", "1.0", "--max-passes", "10",
                                  "--trace", str(trace)])
    assert result.exit_code == 0, result.output
    assert trace.exists()
    manifest = json.loads((tmp_path / "c.tsv.manifest.json").read_text())
    assert str(trace.resolve()) in manifest["volatile_outputs"]
    g = load_snapshot(graph_path)
    assert read_clustering(g, out).m == 4


def test_design_with_edgeless_diversion_unit(tmp_path, runner):
    # Diversion unit w has no edges; the search leaves it a singleton.
    W = sp.csr_matrix(np.array([[0.5, 0.5, 0.0], [1.0, 0.0, 0.0]]))
    graph_path = tmp_path / "graph.bin"
    save_snapshot(BipartiteGraph.from_csr(W, ("a", "b"), ("u", "v", "w")),
                  graph_path)
    out = tmp_path / "c.tsv"
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "exposure-design",
                                  "--phi", "0", "--max-passes", "5"])
    assert result.exit_code == 0, result.output
    assert result.exception is None
    labels = read_clustering(load_snapshot(graph_path), out).assignment
    assert np.sum(labels == labels[2]) == 1


def test_design_rejects_bad_method(workspace, runner):
    tmp_path, graph_path, _ = workspace
    out = tmp_path / "c.tsv"
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "zigzag"])
    assert result.exit_code == 2
    assert "unknown method" in result.output
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "balanced:99"])
    assert result.exit_code == 1
    assert "exceeds" in result.output
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "balanced:zero"])
    assert result.exit_code == 2


def test_design_trace_requires_search(workspace, runner):
    tmp_path, graph_path, _ = workspace
    result = runner.invoke(main, ["design", str(graph_path),
                                  str(tmp_path / "c.tsv"),
                                  "--method", "singleton",
                                  "--trace", str(tmp_path / "t.csv")])
    assert result.exit_code == 2
    assert "--trace" in result.output


def test_moments_golden(workspace, runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    result = runner.invoke(main, ["design", str(graph_path), str(cpath),
                                  "--method", "one-cluster"])
    assert result.exit_code == 0, result.output
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["moments", str(graph_path), str(cpath),
                                  str(out)])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert lines[0] == "outcome_id,mean,variance"
    # Normalized rows in a single cluster: every exposure is +/-1 exactly.
    assert lines[1:] == ["a,0.0,1.0", "b,0.0,1.0", "c,0.0,1.0"]


def test_moments_degenerate_exit(workspace, runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])
    result = runner.invoke(main, ["moments", str(graph_path), str(cpath),
                                  str(tmp_path / "m.csv"), "--p", "1e-12"])
    assert result.exit_code == 1
    assert "degenerate" in result.output
    assert "a" in result.output


def test_simulate_requires_exactly_one_design(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    base = ["simulate", str(graph_path), str(scenario_path),
            str(tmp_path / "sim")]
    result = runner.invoke(main, base)
    assert result.exit_code == 2
    result = runner.invoke(main, base + ["--clustering", str(cpath),
                                         "--bernoulli"])
    assert result.exit_code == 2


def test_simulate_outputs_and_determinism(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    out1 = tmp_path / "sim1"
    out2 = tmp_path / "sim2"
    args = ["simulate", str(graph_path), str(scenario_path),
            "--clustering", str(cpath), "--replicates", "50", "--seed", "9"]
    r1 = runner.invoke(main, args[:3] + [str(out1)] + args[3:])
    r2 = runner.invoke(main, args[:3] + [str(out2)] + args[3:])
    assert r1.exit_code == 0, r1.output
    assert r2.exit_code == 0, r2.output
    for name in ("report.json", "estimates.csv", "histogram.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    report = json.loads((out1 / "report.json").read_text())
    assert report["n_replicates"] == 50
    assert (out1 / "manifest.json").exists()


def test_simulate_bernoulli(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    out = tmp_path / "sim_b"
    result = runner.invoke(main, ["simulate", str(graph_path),
                                  str(scenario_path), str(out),
                                  "--bernoulli", "--replicates", "20"])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["design_name"] == "bernoulli"


def test_sweep_rows_and_manifest(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    out = tmp_path / "sweep.csv"
    result = runner.invoke(main, ["sweep", str(graph_path),
                                  str(scenario_path), str(out),
                                  "--phis", "0.5,1.0",
                                  "--replicates", "20",
                                  "--max-passes", "5"])
    assert result.exit_code == 0, result.output
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert (tmp_path / "sweep.csv.manifest.json").exists()


def test_sweep_rejects_empty_phis(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    result = runner.invoke(main, ["sweep", str(graph_path),
                                  str(scenario_path),
                                  str(tmp_path / "s.csv"), "--phis", " , "])
    assert result.exit_code == 2
    assert "--phis" in result.output


@pytest.mark.parametrize("args,code", [
    (["moments", "{g}", "{c}", "{d}/m.csv", "--p", "1.5"], 2),
    (["simulate", "{g}", "{s}", "{d}/sim", "--clustering", "{c}",
      "--replicates", "0"], 2),
    (["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli", "--p", "1.5"], 2),
    (["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli", "--bins", "0"], 2),
    (["sweep", "{g}", "{s}", "{d}/s.csv", "--phis=-1"], 2),
    (["design", "{g}", "{d}/c2.tsv", "--method", "singleton", "--p", "1"],
     2),
    (["moments", "{g}", "{partial}", "{d}/m.csv"], 1),
    (["simulate", "{g}", "{s}", "{d}/sim", "--clustering", "{partial}"], 1),
    (["moments", "{g}", "{bad_id}", "{d}/m.csv"], 1),
], ids=["moments-p", "simulate-replicates", "simulate-p", "simulate-bins",
        "sweep-phis", "design-p", "moments-clustering", "simulate-clustering",
        "moments-cluster-id"])
def test_bad_input_exits_without_traceback(workspace, runner, args, code):
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    partial = tmp_path / "partial.tsv"
    partial.write_text("u\t0\nv\t1\n")
    bad_id = tmp_path / "bad_id.tsv"
    bad_id.write_text("u\t0\nv\tone\nw\t2\nx\t3\n")
    args = [a.format(g=graph_path, c=cpath, s=scenario_path, d=tmp_path,
                     partial=partial, bad_id=bad_id) for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if code == 1:
        assert "cannot load clustering" in result.output


@pytest.mark.parametrize("command", [
    ["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli"],
    ["sweep", "{g}", "{s}", "{d}/s.csv", "--phis", "1.0"]],
    ids=["simulate", "sweep"])
def test_large_graph_dependent_exits_without_traceback(
        workspace, runner, monkeypatch, command):
    tmp_path, graph_path, _ = workspace
    monkeypatch.setattr(simulate, "MAX_LINKAGE_UNITS", 2)
    scenario = tmp_path / "dep.txt"
    scenario.write_text("kind = GraphDependent\nn_outcome_clusters = 2\n")
    args = [a.format(g=graph_path, s=scenario, d=tmp_path) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "3 outcome units" in result.output
    assert "Traceback" not in result.output


def test_cli_import_leaves_out_linkage_modules():
    # The linkage and normal-draw modules load only when used, and no
    # production module imports the oracles.
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bipx.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('scipy.cluster', 'scipy.spatial', "
         "'scipy.special', 'bipx.oracle'))))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_export_rejects_corrupt_snapshot(workspace):
    tmp_path, graph_path, _ = workspace
    buf = bytearray(graph_path.read_bytes())
    n = int.from_bytes(buf[12:20], "little")
    # First column index: after the 36-byte header and n + 1 row pointers.
    at = 36 + 8 * (n + 1)
    buf[at:at + 8] = (10**6).to_bytes(8, "little")
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(buf))
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bipx.cli", "export", str(bad),
         str(tmp_path / "out.txt")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "column index outside" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_rerun_check_round_trip(workspace, runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])
    out = tmp_path / "moments.csv"
    result = runner.invoke(main, ["moments", str(graph_path), str(cpath),
                                  str(out)])
    assert result.exit_code == 0, result.output
    manifest = tmp_path / "moments.csv.manifest.json"
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 0, result.output
    assert "byte-identical" in result.output

    out.write_text("tampered\n")
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 0, result.output  # replay regenerates it
    assert "byte-identical" in result.output
    assert out.read_text().startswith("outcome_id")


def test_rerun_check_detects_changed_inputs(workspace, runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])
    out = tmp_path / "moments.csv"
    runner.invoke(main, ["moments", str(graph_path), str(cpath), str(out),
                         "--p", "0.5"])
    manifest_path = tmp_path / "moments.csv.manifest.json"
    # Change the recorded flag so the replay computes different numbers.
    record = json.loads(manifest_path.read_text())
    record["argv"] = [arg if arg != "0.5" else "0.4"
                      for arg in record["argv"]]
    manifest_path.write_text(json.dumps(record))
    result = runner.invoke(main, ["rerun", str(manifest_path), "--check"])
    assert result.exit_code == 1
    assert "MISMATCH" in result.output


def test_rerun_replays_in_recorded_directory(workspace, runner, monkeypatch):
    tmp_path, _, _ = workspace
    monkeypatch.chdir(tmp_path)
    runner.invoke(main, ["design", "graph.bin", "one.tsv",
                         "--method", "one-cluster"])
    result = runner.invoke(main, ["moments", "graph.bin", "one.tsv", "m.csv"])
    assert result.exit_code == 0, result.output
    # Another directory holds a different graph and clustering under the
    # same relative names, which a replay from there would read.
    other = tmp_path / "other"
    other.mkdir()
    (other / "edges.txt").write_text(EDGES.replace("3.0", "5.0"))
    monkeypatch.chdir(other)
    runner.invoke(main, ["ingest", "edges.txt", "graph.bin"])
    runner.invoke(main, ["design", "graph.bin", "one.tsv",
                         "--method", "singleton"])
    result = runner.invoke(main, ["rerun", str(tmp_path / "m.csv.manifest.json"),
                                  "--check"])
    assert result.exit_code == 0, result.output
    assert "all checked outputs byte-identical" in result.output
    assert not (other / "m.csv").exists()
    assert Path.cwd() == other


def test_rerun_refuses_changed_inputs(workspace, runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])
    out = tmp_path / "moments.csv"
    runner.invoke(main, ["moments", str(graph_path), str(cpath), str(out)])
    manifest = tmp_path / "moments.csv.manifest.json"
    before = out.read_bytes()
    # A valid clustering file with other clusters: a replay would run.
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 1
    assert "inputs differ from manifest" in result.output
    assert f"{cpath}: changed" in result.output
    assert out.read_bytes() == before  # nothing was replayed
    cpath.unlink()
    result = runner.invoke(main, ["rerun", str(manifest)])
    assert result.exit_code == 1
    assert f"{cpath}: missing" in result.output
