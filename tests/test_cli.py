import json
import os
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest
import scipy.sparse as sp
from click.testing import CliRunner

import bipx
from bipx import cli, design, simulate
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


def test_ingest_warns_in_one_line_each(tmp_path):
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(EDGES + "z u 0.0\n")
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bipx.cli", "ingest", str(edge_path),
         str(tmp_path / "g.bin")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ("warning: dropping 1 outcome unit(s) with no "
                           "positive-weight edge: ['z']\n")
    assert "graph_core.py" not in proc.stderr


def test_ingest_min_degree(tmp_path, runner):
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(EDGES)
    graph_path = tmp_path / "g.bin"
    result = runner.invoke(main, ["ingest", str(edge_path), str(graph_path),
                                  "--min-degree", "2"])
    assert result.exit_code == 0, result.output
    g = load_snapshot(graph_path)
    assert g.n_outcome == 3  # every outcome unit here has two edges


# A duplicate edge, comments, an outcome unit (c) with only a zero-weight
# edge, an isolated diversion unit (y), and row sums that do not divide
# evenly; d and its only diversion unit t fall to --min-degree 2.
GOLDEN_EDGES = """\
# golden ingest input
a u 0.5
a v 0.25
a u 0.125  # duplicate of a-u
b v 3
b w 1e-3
b x 7
c y 0.0
d t 2
d t 1
b u 0.1
"""

INGEST_GOLDEN = {
    (): ("65811cb81c260014ce0f9c047357916f2db27f6a6eb673135a2e91c80e8ba0e1",
         "bc25b79dba71cf7a84277eeb208bbd1773ee97256d07477c83223b25c0d0155a",
         "1b96a5ba7e82577b031251a37a7d8c5b42f086bb8b53b7dda0052891f9f5a485"),
    ("--min-degree", "2"): (
        "830c0dd8f64a8c3d81d7b011161f2dc6b8ec97dc7f42d10d3029d17a45ae6968",
        "a2b804b1740ccd2fc6e05d726ef2753cc62bc024e643716f632d0d01a2736de6",
        "ca26d471372a2bd8f4a543dccf119a9784d079f504af50ba3f37b2cf7c57351f"),
}


@pytest.mark.parametrize("flags", list(INGEST_GOLDEN), ids=["plain",
                                                            "min-degree"])
def test_ingest_golden_bytes(tmp_path, runner, flags):
    edge_path = tmp_path / "edges.txt"
    edge_path.write_text(GOLDEN_EDGES)
    graph_path = tmp_path / "g.bin"
    result = runner.invoke(main, ["ingest", str(edge_path), str(graph_path),
                                  *flags])
    assert result.exit_code == 0, result.output
    digests = tuple(cli._sha256(p) for p in (
        graph_path, f"{graph_path}.outcome_ids.tsv",
        f"{graph_path}.diversion_ids.tsv"))
    assert digests == INGEST_GOLDEN[flags]


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
    ("singleton", 4), ("one-cluster", 1),
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
    # balanced:k was removed; old command lines get the usage error.
    for method in ("zigzag", "balanced:2"):
        result = runner.invoke(main, ["design", str(graph_path), str(out),
                                      "--method", method])
        assert result.exit_code == 2
        assert "exposure-design" in result.output
        assert not out.exists()


def test_rerun_refuses_removed_method(workspace, runner):
    # A manifest written when balanced:k was a method replays to one
    # error line, not a traceback.
    tmp_path, graph_path, _ = workspace
    out = tmp_path / "c.tsv"
    result = runner.invoke(main, ["design", str(graph_path), str(out),
                                  "--method", "singleton"])
    assert result.exit_code == 0, result.output
    manifest = tmp_path / "c.tsv.manifest.json"
    record = json.loads(manifest.read_text())
    record["argv"] = ["design", str(graph_path), str(out),
                      "--method", "balanced:2", "--seed", "0"]
    manifest.write_text(json.dumps(record))
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    replaying, error = result.output.splitlines()
    assert replaying.startswith("replaying in ")
    assert error.startswith(f"Error: {manifest}: recorded argv is not a "
                            "valid bipx command: ")
    assert "--method" in error
    assert "exposure-design" in error


def test_rerun_refuses_removed_normalize_option(workspace, runner):
    # Manifests of ingest runs made while --normalize/--no-normalize was an
    # option record it; a replay ends in one error line.
    tmp_path, graph_path, _ = workspace
    manifest = tmp_path / "graph.bin.manifest.json"
    record = json.loads(manifest.read_text())
    record["argv"] = record["argv"] + ["--normalize"]
    manifest.write_text(json.dumps(record))
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 1, result.output
    assert result.output.splitlines()[1] == (
        f"Error: {manifest}: recorded argv is not a valid bipx command: "
        "No such option '--normalize'.")


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
    assert ("degenerate design: zero exposure variance for outcome units "
            "a, b, c") in result.output


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


# sha256 of report.json, estimates.csv and histogram.csv of `bipx simulate`
# on the workspace graph: they pin the replicates' coins bit for bit, the
# one PCG64 stream seeded by --seed, replicate r's coins at its position
# r * 2^64.
SIMULATE_GOLDEN = {
    ("--clustering", "{c}"): (
        "d2913e13416ec68986f01d4e7bcebb7cef618ac1fbe0aae0680ddbbbc2f1779c",
        "3064d2c787bc52b9e4e0a06b3b409fb59f74167b6a8e32f1005e56101939e691",
        "b59e141956b8b37c7096a8d55394fa67b5738be8d8d9399839ab6840a1ab7abd"),
    ("--bernoulli", "--p", "0.3"): (
        "0b22a6b03fab43cb9b1ca661027510cac4515936f164e781c85148ddc7380506",
        "9f79d850e2a5f2f2da082272758d49bf24739a4a11df741b1fd1aa4052c08114",
        "43e96c482016fc7a56efc424fa8013268a1469a4b4355437fb09495a260bc86a"),
}


@pytest.mark.parametrize("flags", list(SIMULATE_GOLDEN),
                         ids=["clustering", "bernoulli-p0.3"])
def test_simulate_golden_bytes(workspace, runner, flags):
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    cpath.write_text("u\t0\nv\t0\nw\t1\nx\t1\n")
    out = tmp_path / "sim"
    result = runner.invoke(main, [
        "simulate", str(graph_path), str(scenario_path), str(out),
        "--replicates", "70", "--seed", "11", "--bins", "7",
        *(flag.format(c=cpath) for flag in flags)])
    assert result.exit_code == 0, result.output
    digests = tuple(cli._sha256(out / name) for name in (
        "report.json", "estimates.csv", "histogram.csv"))
    assert digests == SIMULATE_GOLDEN[flags]


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


# The error of a snapshot whose rows do not sum to 1, as `raw` below.
RAW = "raw.bin: outcome unit(s) whose weights do not sum to 1: ['a', 'b', 'c']"


def doubled_weights(snapshot):
    """A snapshot's bytes with every weight doubled."""
    buf = bytearray(snapshot)
    n, _, nnz = np.frombuffer(buf, np.uint64, 3, 12).tolist()
    # The weights follow the 36-byte header, n + 1 row pointers and nnz
    # column indices.
    at = 36 + 8 * (n + 1 + nnz)
    buf[at:at + 8 * nnz] = (2 * np.frombuffer(buf, np.float64, nnz,
                                              at)).tobytes()
    return bytes(buf)


@pytest.mark.parametrize("args,code,message", [
    (["moments", "{g}", "{c}", "{d}/m.csv", "--p", "1.5"], 2, None),
    (["simulate", "{g}", "{s}", "{d}/sim", "--clustering", "{c}",
      "--replicates", "0"], 2, None),
    (["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli", "--p", "1.5"], 2,
     None),
    (["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli", "--bins", "0"], 2,
     None),
    (["sweep", "{g}", "{s}", "{d}/s.csv", "--phis=-1"], 2, None),
    (["design", "{g}", "{d}/c2.tsv", "--method", "singleton", "--p", "1"],
     2, None),
    (["moments", "{g}", "{partial}", "{d}/m.csv"], 1,
     "partial.tsv: missing diversion unit(s)"),
    (["simulate", "{g}", "{s}", "{d}/sim", "--clustering", "{partial}"], 1,
     "partial.tsv: missing diversion unit(s)"),
    (["moments", "{g}", "{bad_id}", "{d}/m.csv"], 1,
     "bad_id.tsv:2: cluster id 'one'"),
    (["design", "{g}", "{d}/c2.tsv", "--phi", "nan"], 2, "phi"),
    (["design", "{g}", "{d}/c2.tsv", "--phi", "inf"], 2, "phi"),
    (["sweep", "{g}", "{s}", "{d}/s.csv", "--phis", "nan,1"], 2, "phi"),
    (["design", "{g}", "{d}/c2.tsv", "--time-budget", "-1"], 2,
     "time_budget"),
    (["design", "{raw}", "{d}/c2.tsv", "--method", "singleton"], 1, RAW),
    (["design", "{raw}", "{d}/c2.tsv"], 1, RAW),
    (["moments", "{raw}", "{c}", "{d}/m.csv"], 1, RAW),
    (["simulate", "{raw}", "{s}", "{d}/sim", "--bernoulli"], 1, RAW),
    (["sweep", "{raw}", "{s}", "{d}/s.csv", "--phis", "1"], 1, RAW),
    (["export", "{raw}", "{d}/e.txt"], 1, RAW),
    (["ingest", "{d}/edges.txt", "{d}/g2.bin", "--min-degree", "99"], 1,
     "no outcome unit has degree >= 99"),
    (["ingest", "{empty}", "{d}/g2.bin"], 1,
     "empty.txt: no positive-weight edges"),
    (["rerun", "{not_json}"], 1, "not_json.json: not a bipx manifest"),
    (["rerun", "{list_inputs}"], 1,
     "inputs is not an object of string to string"),
    (["rerun", "{bad_argv}"], 1, "argv is not a non-empty list of strings"),
    (["rerun", "{self_rerun}"], 1, "argv replays rerun itself"),
    (["rerun", "{no_outputs}", "--check"], 1,
     "no_outputs.json: records no output to check"),
    (["rerun", "{all_volatile}", "--check"], 1,
     "all_volatile.json: records no output to check"),
    (["ingest", "{d}/latin.txt", "{d}/g2.bin"], 1, "latin.txt:2: not UTF-8"),
    (["ingest", "{d}/overflow.txt", "{d}/g2.bin"], 1,
     "overflow.txt: duplicate edges sum past the largest double: "
     "[('a', 'u')]"),
    (["ingest", "{d}/edges.txt", "{d}/g2.bin", "--no-normalize"], 2,
     "No such option '--no-normalize'"),
    (["ingest", "{d}/row_overflow.txt", "{d}/g2.bin"], 1,
     "row_overflow.txt: outcome unit(s) whose total weight overflows: "
     "['a']"),
    (["moments", "{g}", "{d}/latin.tsv", "{d}/m.csv"], 1,
     "latin.tsv:3: not UTF-8"),
    (["simulate", "{g}", "{d}/latin.scn", "{d}/sim", "--bernoulli"], 1,
     "latin.scn:2: not UTF-8"),
    (["simulate", "{g}", "{d}/nan_var.scn", "{d}/sim", "--bernoulli"], 1,
     "nan_var.scn: slope_var must be finite"),
    (["simulate", "{g}", "{d}/inf_mean.scn", "{d}/sim", "--bernoulli"], 1,
     "inf_mean.scn: slope_mean must be finite"),
    (["simulate", "{g}", "{d}/bad_seed.scn", "{d}/sim", "--bernoulli"], 1,
     "bad_seed.scn:2: cannot read model_seed = 'x' as int"),
    (["ingest", "{d}/edges.txt", "{d}/g2.bin", "--min-degree", "-3"], 2,
     "--min-degree"),
    (["design", "{g}", "{d}/c2.tsv", "--seed", "-1"], 2, "--seed"),
    (["simulate", "{g}", "{s}", "{d}/sim", "--bernoulli", "--seed", "-1"], 2,
     "--seed"),
    (["sweep", "{g}", "{s}", "{d}/s.csv", "--phis", "1",
      "--search-seed", "-1"], 2, "--search-seed"),
], ids=["moments-p", "simulate-replicates", "simulate-p", "simulate-bins",
        "sweep-phis", "design-p", "moments-clustering", "simulate-clustering",
        "moments-cluster-id", "design-phi-nan", "design-phi-inf",
        "sweep-phis-nan", "design-time-budget", "design-raw-singleton",
        "design-raw-search", "moments-raw", "simulate-raw", "sweep-raw",
        "export-raw", "ingest-min-degree", "ingest-empty", "rerun-not-json",
        "rerun-list-inputs", "rerun-bad-argv", "rerun-self",
        "rerun-no-outputs", "rerun-all-volatile", "ingest-latin",
        "ingest-overflow", "ingest-no-normalize", "ingest-row-overflow",
        "moments-latin", "simulate-latin", "simulate-nan-var",
        "simulate-inf-mean", "simulate-bad-seed", "ingest-negative-degree",
        "design-negative-seed", "simulate-negative-seed",
        "sweep-negative-search-seed"])
def test_bad_input_exits_without_traceback(workspace, runner, args, code,
                                           message):
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    raw = tmp_path / "raw.bin"
    raw.write_bytes(doubled_weights(graph_path.read_bytes()))
    partial = tmp_path / "partial.tsv"
    partial.write_text("u\t0\nv\t1\n")
    bad_id = tmp_path / "bad_id.tsv"
    bad_id.write_text("u\t0\nv\tone\nw\t2\nx\t3\n")
    empty = tmp_path / "empty.txt"
    empty.write_text("a u 0\n")
    manifests = {"not_json": "not json",
                 "list_inputs": '{"argv": ["moments"], "inputs": ["x"]}',
                 "bad_argv": '{"argv": ["moments", 1]}',
                 "self_rerun": '{"argv": ["rerun", "m.json"]}',
                 "no_outputs": '{"argv": ["--version"], "inputs": {}, '
                               '"outputs": {}}',
                 "all_volatile": '{"argv": ["--version"], '
                                 '"outputs": {"t.csv": "0"}, '
                                 '"volatile_outputs": ["t.csv"]}'}
    for name, text in manifests.items():
        (tmp_path / f"{name}.json").write_text(text)
    inputs = {"latin.txt": b"a u 1.0\n\xe9 v 1.0\n",
              "latin.tsv": b"# clusters\nu\t0\nv\t0 # caf\xe9\n",
              "latin.scn": b"kind = PositiveTE\n# caf\xe9\n",
              "nan_var.scn": b"kind = PositiveTE\nslope_var = nan\n",
              "inf_mean.scn": b"kind = PositiveTE\nslope_mean = inf\n",
              "bad_seed.scn": b"kind = PositiveTE\nmodel_seed = x\n",
              "overflow.txt": b"a u 1e308\na u 1e308\na v 1\nb v 1\n",
              "row_overflow.txt": b"a u 1e308\na v 1e308\nb v 1\n"}
    for name, blob in inputs.items():
        (tmp_path / name).write_bytes(blob)
    args = [a.format(g=graph_path, c=cpath, s=scenario_path, d=tmp_path,
                     partial=partial, bad_id=bad_id, raw=raw, empty=empty,
                     **{k: tmp_path / f"{k}.json" for k in manifests})
            for a in args]
    result = runner.invoke(main, args)
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    if code == 1:
        assert len(result.output.splitlines()) == 1, result.output
    if message is not None:
        assert message in result.output
    if args[0] == "ingest":
        assert not (tmp_path / "g2.bin").exists()


def test_fault_inside_bipx_keeps_its_exception(workspace, runner,
                                               monkeypatch):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])

    def broken(g, d):
        raise RuntimeError("fault inside bipx")

    monkeypatch.setattr(design, "exposure_moments", broken)
    result = runner.invoke(main, ["moments", str(graph_path), str(cpath),
                                  str(tmp_path / "m.csv")])
    assert isinstance(result.exception, RuntimeError)
    assert str(result.exception) == "fault inside bipx"


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


@pytest.mark.parametrize("bins, code, error", [
    (2**62, 2, "Error: Invalid value for '--bins': 4611686018427387904 bins: "
               "array is too big;"),
    (2**63 - 1, 2, "Error: Invalid value for '--bins': 9223372036854775807 "
                   "bins: Maximum allowed dimension exceeded"),
    (10**20, 2, "Error: Invalid value for '--bins': 100000000000000000000 "
                "bins: Maximum allowed dimension exceeded"),
    (10**11, 1, "Error: out of memory: Unable to allocate 745. GiB for an "
                "array with shape (100000000001,) and data type float64")])
def test_simulate_refuses_bins_before_any_replicate(
        workspace, runner, monkeypatch, bins, code, error):
    # These ended in np.linspace's traceback, or for 10**11 in one line,
    # after every replicate had run.
    tmp_path, graph_path, scenario_path = workspace

    def ran(*args, **kwargs):
        raise AssertionError("run_simulation ran")

    monkeypatch.setattr(simulate, "run_simulation", ran)
    result = runner.invoke(main, ["simulate", str(graph_path),
                                  str(scenario_path), str(tmp_path / "sim"),
                                  "--bernoulli", "--replicates", "4",
                                  "--bins", str(bins)])
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error")]
    assert len(errors) == 1 and errors[0].startswith(error), result.output
    assert "Traceback" not in result.output
    assert not (tmp_path / "sim").exists()


@pytest.mark.parametrize("target", ["run_simulation", "export_histogram"])
def test_memory_error_ends_in_one_error_line(workspace, runner, monkeypatch,
                                              target):
    # As `--replicates 100000000000000` fails in run_simulation's np.empty,
    # without allocating that size here; export_histogram stands for a
    # step after the replicates.
    tmp_path, graph_path, scenario_path = workspace

    def refused(*args, **kwargs):
        raise MemoryError("Unable to allocate 745. GiB for an array with "
                          "shape (100000000000,) and data type float64")

    monkeypatch.setattr(simulate, target, refused)
    result = runner.invoke(main, ["simulate", str(graph_path),
                                  str(scenario_path), str(tmp_path / "sim"),
                                  "--bernoulli", "--replicates", "4"])
    assert result.exit_code == 1, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == ("Error: out of memory: Unable to allocate 745. "
                             "GiB for an array with shape (100000000000,) "
                             "and data type float64\n")


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    # Multithreaded BLAS splits a dot product of more than about 2e4
    # doubles into partial sums, which changes its last bits; m = 5e4
    # diversion units make every sum over clusters or units that long.
    n, m = 10_000, 50_000
    rng = np.random.default_rng(0)
    rows = np.r_[np.arange(m) % n, rng.integers(0, n, m)]
    cols = np.r_[np.arange(m), rng.integers(0, m, m)]
    W = sp.coo_matrix((rng.uniform(0.1, 1.1, 2 * m), (rows, cols)),
                      shape=(n, m))
    save_snapshot(BipartiteGraph.from_csr(W, map(str, range(n)),
                                          map(str, range(m))),
                  tmp_path / "g.bin")
    (tmp_path / "scenario.txt").write_text(SCENARIO)
    search = ["--k-max", "50", "--max-passes", "1"]
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(bipx.__file__).parents[1]))
        stdout = []
        for argv in (["design", "../g.bin", "c.tsv", "--phi", "0.01",
                      "--trace", "trace.csv", *search],
                     ["sweep", "../g.bin", "../scenario.txt", "sweep.csv",
                      "--phis", "0.01", "--replicates", "2", *search]):
            proc = subprocess.run([sys.executable, "-m", "bipx.cli", *argv],
                                  capture_output=True, text=True, env=env,
                                  cwd=out, timeout=300)
            assert proc.returncode == 0, proc.stderr
            stdout.append(proc.stdout)
        # The trace without its wall-clock elapsed column.
        trace = [line.split(",")[:5] + line.split(",")[6:]
                 for line in (out / "trace.csv").read_text().splitlines()]
        runs[threads] = (stdout, trace, (out / "c.tsv").read_bytes(),
                         (out / "sweep.csv").read_bytes())
    assert runs["1"] == runs["2"]


def test_cli_import_leaves_out_linkage_modules():
    # scipy, and with it the linkage, normal-draw and sparse modules, loads
    # only when used, and no production module imports the oracles.
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bipx.cli; "
         "print(sorted(m for m in sys.modules "
         "if m.startswith(('scipy', 'bipx.oracle'))))"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# Runs bipx commands in one process, then prints the modules loaded.
_MODULES_PROBE = """
import sys
from bipx.cli import main
for argv in sys.argv[1:]:
    main(argv.split(), standalone_mode=False)
print(*sorted(sys.modules))
"""


def _loaded(cwd, *commands):
    """The modules that one fresh process has loaded once it has run each
    bipx command, a string of arguments, in cwd."""
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", _MODULES_PROBE, *commands],
                          capture_output=True, text=True, env=env, cwd=cwd,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()


def _package_modules(modules):
    return sorted(m for m in modules if m.startswith("bipx."))


def test_commands_reach_every_module_but_the_oracles(tmp_path):
    # The package holds the loop: every module of it but bipx.oracle, the
    # tests' reference, is reached from the CLI.
    (tmp_path / "edges.txt").write_text(EDGES)
    (tmp_path / "scenario.txt").write_text(SCENARIO)
    package = Path(bipx.__file__).parent
    assert _package_modules(_loaded(
        tmp_path, "ingest edges.txt g.bin",
        "design g.bin c.tsv --k-max 2",
        "moments g.bin c.tsv m.csv",
        "simulate g.bin scenario.txt sim --clustering c.tsv --replicates 5",
        "sweep g.bin scenario.txt s.csv --phis 1.0 --replicates 5",
        "export g.bin out.txt",
        "rerun g.bin.manifest.json --check")) == sorted(
        f"bipx.{path.stem}" for path in package.glob("*.py")
        if path.stem not in ("__init__", "oracle"))


def test_each_command_loads_only_the_modules_it_runs(tmp_path, runner):
    (tmp_path / "edges.txt").write_text(EDGES)
    assert _package_modules(_loaded(tmp_path, "--version")) == [
        "bipx.cli", "bipx.graph_core"]
    ingest = _loaded(tmp_path, "ingest edges.txt g.bin")
    assert not {"bipx.design", "bipx.cluster_opt", "bipx.estimator",
                "bipx.simulate"} & set(ingest)
    result = runner.invoke(main, ["design", str(tmp_path / "g.bin"),
                                  str(tmp_path / "c.tsv"),
                                  "--method", "one-cluster"])
    assert result.exit_code == 0, result.output
    moments = _loaded(tmp_path, "moments g.bin c.tsv m.csv")
    assert "bipx.design" in moments
    assert not {"bipx.cluster_opt", "bipx.simulate"} & set(moments)


def test_only_sparse_products_load_scipy(tmp_path):
    (tmp_path / "edges.txt").write_text(EDGES)
    (tmp_path / "scenario.txt").write_text(SCENARIO)

    def scipy_modules(*commands):
        return [m for m in _loaded(tmp_path, *commands)
                if m.startswith("scipy")]

    assert scipy_modules("ingest edges.txt g.bin --min-degree 1",
                         "design g.bin c.tsv --k-max 2",
                         "moments g.bin c.tsv m.csv",
                         "export g.bin out.txt",
                         "rerun g.bin.manifest.json --check") == []
    assert "scipy.sparse" in scipy_modules(
        "simulate g.bin scenario.txt sim --clustering c.tsv --replicates 5")


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


def _simulate_run(workspace, runner):
    """A simulate run's output directory and the bytes of every file in
    it, its manifest included."""
    _, graph_path, scenario_path = workspace
    out = workspace[0] / "sim"
    result = runner.invoke(main, ["simulate", str(graph_path),
                                  str(scenario_path), str(out),
                                  "--bernoulli", "--replicates", "20"])
    assert result.exit_code == 0, result.output
    return out, {path.name: path.read_bytes() for path in out.iterdir()}


def test_rerun_check_finds_an_output_the_replay_did_not_write(
        workspace, runner, monkeypatch):
    out, recorded = _simulate_run(workspace, runner)
    monkeypatch.setattr(simulate, "export_histogram",
                        lambda report, bins, path: path)
    result = runner.invoke(main, ["rerun", str(out / "manifest.json"),
                                  "--check"])
    # The replay's own manifest cannot digest the histogram it never wrote.
    assert result.exit_code == 1, result.output
    assert f"{out / 'histogram.csv'}" in result.output
    # The recorded files are back, and no renamed copy is left.
    assert {path.name: path.read_bytes()
            for path in out.iterdir()} == recorded


def _raising_export(report, bins, path):
    Path(path).write_text("partial\n")
    raise RuntimeError("disk on fire")


@pytest.mark.parametrize("how", ["raises", "refused"])
def test_rerun_check_keeps_the_outputs_of_a_failed_replay(
        workspace, runner, monkeypatch, how):
    out, recorded = _simulate_run(workspace, runner)
    manifest = out / "manifest.json"
    if how == "raises":
        monkeypatch.setattr(simulate, "export_histogram", _raising_export)
    else:
        record = json.loads(manifest.read_text())
        record["argv"] += ["--bins", "0"]
        manifest.write_text(json.dumps(record))
        recorded["manifest.json"] = manifest.read_bytes()
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 1, result.output
    if how == "raises":
        assert isinstance(result.exception, RuntimeError)
    else:
        assert "recorded argv is not a valid bipx command" in result.output
    assert {path.name: path.read_bytes()
            for path in out.iterdir()} == recorded


def test_rerun_check_reports_outputs_the_replay_does_not_write(workspace,
                                                               runner):
    tmp_path, graph_path, _ = workspace
    cpath = tmp_path / "one.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "one-cluster"])
    out = tmp_path / "moments.csv"
    runner.invoke(main, ["moments", str(graph_path), str(cpath), str(out)])
    extra = tmp_path / "extra.csv"
    extra.write_text("not written by moments\n")
    manifest = tmp_path / "moments.csv.manifest.json"
    record = json.loads(manifest.read_text())
    # A hand-made manifest lists an output that moments does not write,
    # and the clustering, an input, as an output too: moving that aside
    # would take the replay's input away.
    record["outputs"][str(extra)] = cli._sha256(extra)
    record["outputs"][str(cpath)] = record["inputs"][str(cpath)]
    manifest.write_text(json.dumps(record))
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 1, result.output
    assert f"{extra}: missing" in result.output
    assert f"ok  {cpath}" in result.output
    assert f"ok  {out}" in result.output
    assert extra.read_text() == "not written by moments\n"
    assert sorted(path.name for path in tmp_path.iterdir()
                  if ".rerun" in path.name) == []


def test_manifest_records_every_parameter(workspace, runner):
    tmp_path, graph_path, scenario_path = workspace
    g, s, d = str(graph_path), str(scenario_path), tmp_path
    c, trace = str(d / "c.tsv"), str(d / "trace.csv")
    sim = {"p": 0.5, "replicates": 20, "seed": 0, "bins": 50}
    runs = [
        (["ingest", str(d / "edges.txt"), str(d / "g2.bin"),
          "--min-degree", "2"], d / "g2.bin.manifest.json",
         {"min_degree": 2}),
        (["design", g, c, "--phi", "0.30000000000000004", "--k-max", "2",
          "--restarts", "2", "--time-budget", "600", "--trace", trace],
         d / "c.tsv.manifest.json",
         {"method": "exposure-design", "phi": 0.30000000000000004,
          "k_max": 2, "p": 0.5, "seed": 0, "restarts": 2, "max_passes": None,
          "time_budget": 600.0, "trace": trace}),
        (["moments", g, c, str(d / "m.csv"), "--p", "0.25"],
         d / "m.csv.manifest.json", {"p": 0.25}),
        (["simulate", g, s, str(d / "sb"), "--bernoulli",
          "--replicates", "20"], d / "sb" / "manifest.json",
         dict(sim, clustering=None, bernoulli=True)),
        (["simulate", g, s, str(d / "sc"), "--clustering", c,
          "--replicates", "20"], d / "sc" / "manifest.json",
         dict(sim, clustering=c, bernoulli=False)),
        (["sweep", g, s, str(d / "sw.csv"), "--phis", "0.5, 1", "--k-max",
          "2", "--replicates", "20", "--max-passes", "3"],
         d / "sw.csv.manifest.json",
         {"phis": "0.5, 1", "k_max": 2, "p": 0.5, "replicates": 20,
          "seed": 0, "search_seed": 0, "max_passes": 3}),
        (["export", g, str(d / "back.txt")], d / "back.txt.manifest.json",
         {}),
    ]
    for argv, manifest, flags in runs:
        result = runner.invoke(main, argv)
        assert result.exit_code == 0, result.output
        record = json.loads(manifest.read_text())
        assert record["command"] == argv[0]
        assert record["flags"] == flags
        command = main.commands[argv[0]]
        assert (command.make_context(argv[0], record["argv"][1:]).params
                == command.make_context(argv[0], argv[1:]).params)
        result = runner.invoke(main, ["rerun", str(manifest), "--check"])
        assert result.exit_code == 0, result.output
        assert "all checked outputs byte-identical" in result.output


def test_rerun_replays_options_in_any_order(workspace, runner):
    # Older manifests list the options in another order than the
    # parameters are declared in.
    tmp_path, graph_path, scenario_path = workspace
    cpath = tmp_path / "c.tsv"
    runner.invoke(main, ["design", str(graph_path), str(cpath),
                         "--method", "singleton"])
    out = tmp_path / "sim"
    result = runner.invoke(main, ["simulate", str(graph_path),
                                  str(scenario_path), str(out),
                                  "--clustering", str(cpath),
                                  "--replicates", "20"])
    assert result.exit_code == 0, result.output
    manifest = out / "manifest.json"
    record = json.loads(manifest.read_text())
    record["argv"] = ["simulate", str(graph_path), str(scenario_path),
                      str(out), "--p", "0.5", "--replicates", "20",
                      "--seed", "0", "--bins", "50", "--clustering",
                      str(cpath)]
    manifest.write_text(json.dumps(record))
    result = runner.invoke(main, ["rerun", str(manifest), "--check"])
    assert result.exit_code == 0, result.output
    assert "all checked outputs byte-identical" in result.output


def test_every_parameter_can_be_recorded_as_argv():
    # Manifests write each parameter back as argv, one value per option;
    # a parameter of another kind would silently drop out of replays.
    scalar = (click.types.StringParamType, click.types.IntParamType,
              click.types.FloatParamType, click.types.BoolParamType,
              click.Path, click.Choice)
    for name, command in main.commands.items():
        for param in command.params:
            where = f"{name} {param.name}"
            assert param.nargs == 1 and not param.multiple, where
            assert isinstance(param.type, scalar), where
            if isinstance(param, click.Option):
                assert not param.count, where
                assert not param.is_flag or param.is_bool_flag, where
