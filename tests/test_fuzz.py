"""Mutated bytes of every file bipx reads end in exit 0 or a one-line
error with exit 1: never a traceback, and never a native crash.

The snapshot cases run in one child process (this file run as a script),
so that a crash in native code fails the test instead of killing pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

import bipx
from bipx.cli import main

EDGES = """\
# outcome diversion weight
a u 1.0
a v 0.5   # a comment
b v 2.0
b w 1e-3
c w 1.0
c x 3
"""

CLUSTERING = "# diversion<TAB>cluster\nu\t0\nv\t-1\nw\t-1\nx\t7\n"

SCENARIO = """\
kind = GraphDependent   # or PositiveTE, ZeroTE
slope_mean = 1.5
slope_var = 0.25
intercept_var = 0.125
n_outcome_clusters = 2
model_seed = 3
"""

# Replace up to four bytes, each at an offset taken modulo the file size.
EDITS = st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)),
                 min_size=1, max_size=4)


def _workspace(runner):
    """Valid inputs of every kind in the current directory; the manifest
    is the one `moments` writes, without `cwd`, so that it replays here."""
    Path("edges.txt").write_text(EDGES)
    Path("c.tsv").write_text(CLUSTERING)
    Path("scenario.txt").write_text(SCENARIO)
    for args in (["ingest", "edges.txt", "g.bin"],
                 ["moments", "g.bin", "c.tsv", "m.csv"]):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
    manifest = Path("m.csv.manifest.json").read_text().splitlines()
    Path("manifest.json").write_text(
        "\n".join(line for line in manifest if '"cwd":' not in line))


def _fuzz(d, name, commands, max_examples):
    """In directory d, run each command on byte mutations of the valid
    input `name`, written to the file `bad`."""
    runner = CliRunner()

    @settings(max_examples=max_examples, deadline=None, database=None)
    @given(edits=EDITS)
    def check(edits):
        blob = bytearray(good)
        for at, byte in edits:
            blob[at % len(blob)] = byte
        Path("bad").write_bytes(bytes(blob))
        for args in commands:
            result = runner.invoke(main, args)
            if result.exit_code == 0:
                continue
            assert isinstance(result.exception, SystemExit), \
                (args, bytes(blob), result.exception)
            lines = result.output.splitlines()
            if args[0] == "rerun":  # it prints what it replays first
                lines = [line for line in lines if line.startswith("Error:")]
            assert result.exit_code == 1 and len(lines) == 1 \
                and lines[0].startswith("Error:"), \
                (args, bytes(blob), result.output)

    here = os.getcwd()
    os.chdir(d)
    try:
        _workspace(runner)
        good = Path(name).read_bytes()
        # Unmutated, every command succeeds.
        Path("bad").write_bytes(good)
        for args in commands:
            result = runner.invoke(main, args)
            assert result.exit_code == 0, (args, result.output)
        check()
    finally:
        os.chdir(here)


def _fuzz_snapshot(d):
    _fuzz(d, "g.bin", [["export", "bad", "out.txt"],
                       ["moments", "bad", "c.tsv", "m2.csv"],
                       ["design", "bad", "c2.tsv", "--max-passes", "2"]],
          max_examples=150)


def test_fuzz_edge_list(tmp_path):
    _fuzz(tmp_path, "edges.txt", [["ingest", "bad", "g2.bin"]],
          max_examples=150)


def test_fuzz_clustering(tmp_path):
    _fuzz(tmp_path, "c.tsv", [["moments", "g.bin", "bad", "m2.csv"]],
          max_examples=150)


def test_fuzz_scenario(tmp_path):
    _fuzz(tmp_path, "scenario.txt",
          [["simulate", "g.bin", "bad", "sim", "--bernoulli",
            "--replicates", "5"]], max_examples=150)


def test_fuzz_manifest(tmp_path):
    _fuzz(tmp_path, "manifest.json", [["rerun", "bad", "--check"]],
          max_examples=100)


def test_fuzz_snapshot(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    _fuzz_snapshot(Path(sys.argv[1]))
