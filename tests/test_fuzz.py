"""Mutated bytes of every file bipx reads end in exit 0 or a one-line
error with exit 1: never a traceback, and never a native crash.

The snapshot cases run in one child process (this file run as a script),
so that a crash in native code fails the test instead of killing pytest.
"""

import os
import subprocess
import sys
from pathlib import Path

import click
import pytest
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


# Each numeric flag of each command takes each of these values.
FLAG_VALUES = ["0", "-1", str(2**63), str(10**20), "nan", "inf"]

# Values above these that a command takes run for as long as they say:
# restarts multiply the search time, and passes and seconds bound it. The
# tiny graph converges in a few passes, but the test caps them anyway.
TIME_CAPS = {"--restarts": 2, "--max-passes": 5, "--time-budget": 5.0}

# A valid run of each command on the workspace's tiny graph; the flag
# under test is appended, and so replaces a value given here.
FLAG_RUNS = {
    "ingest": ["ingest", "edges.txt", "g2.bin"],
    "design": ["design", "g.bin", "c2.tsv", "--max-passes", "2"],
    "moments": ["moments", "g.bin", "c.tsv", "m2.csv"],
    "simulate": ["simulate", "g.bin", "scenario.txt", "sim", "--clustering",
                 "c.tsv", "--replicates", "5"],
    "sweep": ["sweep", "g.bin", "scenario.txt", "sweep.csv", "--phis", "0.5",
              "--replicates", "5", "--max-passes", "2"],
}


def _numeric_flags(command):
    """The options of a command that take a number, or numbers (--phis)."""
    return [param.opts[0] for param in command.params
            if isinstance(param, click.Option) and not param.is_flag
            and (isinstance(param.type, (click.types.IntParamType,
                                         click.types.FloatParamType))
                 or param.name == "phis")]


def _capped(flag, value):
    cap = TIME_CAPS.get(flag)
    if cap is not None and value not in ("nan", "inf") and float(value) > cap:
        return str(cap)
    return value


def _invoke_flag(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code in (0, 1, 2), (args, result.output)
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), (args, result.exception)
    assert "Traceback" not in result.output, (args, result.output)
    return result


def test_fuzz_flags(tmp_path, monkeypatch):
    """Every numeric flag of every command, at each of FLAG_VALUES, ends in
    exit 0, 1 or 2 and never in a traceback. In-process: no process or
    thread is started."""
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    _workspace(runner)
    driven = set()
    for name, command in main.commands.items():
        flags = _numeric_flags(command)
        assert not flags or name in FLAG_RUNS, f"no base run for {name}"
        for flag in flags:
            for value in FLAG_VALUES:
                _invoke_flag(runner, FLAG_RUNS[name]
                             + [flag, _capped(flag, value)])
            driven.add((name, flag))
    assert {("design", "--max-passes"), ("simulate", "--replicates"),
            ("sweep", "--phis"), ("ingest", "--min-degree")} <= driven


@pytest.mark.parametrize("command, flag, value", [
    ("design", "--max-passes", 2**63), ("sweep", "--max-passes", 2**63),
    ("design", "--max-passes", 10**20), ("simulate", "--replicates", 2**63),
    ("simulate", "--replicates", 10**20), ("sweep", "--replicates", 2**63),
    ("sweep", "--replicates", 10**20)])
def test_flag_values_past_a_machine_size_are_usage_errors(
        tmp_path, monkeypatch, command, flag, value):
    # These ended in islice()'s or numpy's ValueError traceback, exit 1.
    monkeypatch.chdir(tmp_path)
    runner = CliRunner()
    _workspace(runner)
    result = _invoke_flag(runner, FLAG_RUNS[command] + [flag, str(value)])
    errors = [line for line in result.output.splitlines()
              if line.startswith("Error")]
    # The error names the flag, or the config field it sets.
    assert result.exit_code == 2 and len(errors) == 1 and (
        flag in errors[0] or flag[2:].replace("-", "_") in errors[0]), \
        result.output
    assert not any(Path(out).exists()
                   for out in ("c2.tsv", "sim", "sweep.csv"))


def test_fuzz_snapshot(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bipx.__file__).parents[1]))
    proc = subprocess.run([sys.executable, __file__, str(tmp_path)],
                          capture_output=True, text=True, env=env,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    _fuzz_snapshot(Path(sys.argv[1]))
