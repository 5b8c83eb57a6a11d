"""Command-line interface: ingest, export, design, moments, simulate, sweep,
rerun.

Every command writes a JSON manifest next to its outputs recording the
replayable argument vector and every parameter value (both read from
click's parsed parameters), all seeds, input and output digests, and the
tool version. `bipx rerun MANIFEST` validates the manifest, checks that
every recorded input still has its recorded digest, then replays the run
in the directory it was made in; with --check it also verifies that the
regenerated outputs digest-match the original ones, and an output the
replay does not write counts as missing, not as the first run's file.
Outputs whose bytes legitimately vary between runs (wall-clock trace
columns, the manifest itself) are listed under volatile_outputs and
excluded from the byte-identity contract; --check refuses a manifest that
records no other output, since it would pass without comparing anything.
A bipx error exits 1 with one line, a bad flag value exits 2, and any
other exception is a fault that keeps its traceback.

Every command loads a graph, so graph_core loads with this module; each
command imports the other modules it runs when it runs, so that a process
loads, and compiles where no bytecode is cached, only what its command
needs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import warnings
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone

import click
import numpy as np

from bipx import __version__
from bipx.graph_core import (BipxError, filter_min_outcome_degree,
                             load_edge_list, load_snapshot, save_snapshot,
                             write_edge_list, write_id_maps)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _replay_argv(ctx):
    """ctx's command and parameters as replayable argv: arguments as given,
    options unless None, a flag when set, and floats by repr so that a
    replay parses the same values."""
    argv = [ctx.info_name]
    for param in ctx.command.params:
        value = ctx.params[param.name]
        text = repr(value) if isinstance(value, float) else str(value)
        if isinstance(param, click.Argument):
            argv.append(text)
        elif param.is_flag:
            argv += [param.opts[0]] if value else []
        elif value is not None:
            argv += [param.opts[0], text]
    return argv


def _write_manifest(path, inputs, outputs, seeds=None, volatile=()):
    """Record the current command's run as click parsed it."""
    ctx = click.get_current_context()
    manifest = {
        "command": ctx.info_name,
        "argv": _replay_argv(ctx),
        "cwd": os.getcwd(),
        "flags": {param.name: ctx.params[param.name]
                  for param in ctx.command.params
                  if isinstance(param, click.Option)},
        "seeds": seeds or {},
        "inputs": {os.path.abspath(p): _sha256(p) for p in inputs},
        "outputs": {os.path.abspath(p): _sha256(p) for p in outputs},
        "volatile_outputs": [os.path.abspath(p) for p in volatile],
        "version": __version__,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - ctx.meta["bipx.started"],
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def _allocatable(count, what, option):
    """Allocate `count` doubles, as the run will, before any work: a count
    numpy refuses as too large for an array exits 2 with one usage error
    on `option`, which starts with `what`, and one it cannot allocate
    exits 1 as out of memory."""
    try:
        np.empty(count)
    except ValueError as exc:
        raise click.BadParameter(f"{what}: {exc}",
                                 param_hint=f"'{option}'") from None


@contextmanager
def _usage_errors():
    """A spec object's ValueError names a bad flag value: exit 2."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))


class _Main(click.Group):
    """A bipx error, a file that cannot be read or written, or an input
    too large for memory ends in one line and exit 1; any other exception
    is a fault and propagates."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (BipxError, OSError) as exc:
            raise click.ClickException(str(exc)) from exc
        except MemoryError as exc:
            # numpy's names the allocation it refused; a bare one is empty.
            raise click.ClickException(
                "out of memory" + (f": {exc}" if str(exc) else "")) from exc


@click.group(cls=_Main)
@click.version_option(version=__version__, prog_name="bipx")
@click.pass_context
def main(ctx):
    """Bipartite experiment design and estimation toolkit."""
    ctx.meta["bipx.started"] = time.perf_counter()


@main.command("ingest")
@click.argument("edge_list", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_graph", type=click.Path(dir_okay=False))
@click.option("--min-degree", type=click.IntRange(min=0), default=0,
              show_default=True,
              help="Drop outcome units with fewer incident edges.")
def cmd_ingest(edge_list, out_graph, min_degree):
    """Parse an edge list into a row-normalized binary graph snapshot plus
    id maps."""
    # Each warning (units the parser drops) is one line, without the line
    # of bipx source that warnings.showwarning would print after it.
    with warnings.catch_warnings(record=True) as caught:
        g = load_edge_list(edge_list)
    for warning in caught:
        click.echo(f"warning: {warning.message}", err=True)
    if min_degree > 0:
        g = filter_min_outcome_degree(g, min_degree)
    save_snapshot(g, out_graph)
    outcome_map = out_graph + ".outcome_ids.tsv"
    diversion_map = out_graph + ".diversion_ids.tsv"
    write_id_maps(g, outcome_map, diversion_map)
    _write_manifest(out_graph + ".manifest.json", [edge_list],
                    [out_graph, outcome_map, diversion_map])
    click.echo(f"ingested {g.n_outcome} outcome x {g.n_diversion} diversion "
               f"units, {g.nnz} edges -> {out_graph}")


@main.command("export")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_edge_list", type=click.Path(dir_okay=False))
def cmd_export(graph, out_edge_list):
    """Write a graph snapshot back out as a plain edge list."""
    g = load_snapshot(graph)
    write_edge_list(g, out_edge_list)
    _write_manifest(out_edge_list + ".manifest.json", [graph],
                    [out_edge_list])
    click.echo(f"wrote {g.nnz} edges -> {out_edge_list}")


@main.command("design")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_clustering", type=click.Path(dir_okay=False))
@click.option("--method", type=click.Choice(["singleton", "one-cluster",
                                            "exposure-design"]),
              default="exposure-design", show_default=True,
              help="exposure-design runs the local search; singleton and "
                   "one-cluster are fixed baselines.")
@click.option("--phi", type=float, default=1.0, show_default=True)
@click.option("--k-max", type=int, default=None,
              help="Maximum cluster size for the local search.")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True)
@click.option("--restarts", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--max-passes", type=int, default=None)
@click.option("--time-budget", type=float, default=None,
              help="Search time budget in seconds, for each restart: "
                   "--restarts 4 --time-budget 10 may run for about 40 s.")
@click.option("--trace", type=click.Path(dir_okay=False), default=None,
              help="Write the per-pass search trace CSV here.")
def cmd_design(graph, out_clustering, method, phi, k_max, p, seed, restarts,
               max_passes, time_budget, trace):
    """Produce a diversion-unit clustering by the chosen method."""
    from bipx.cluster_opt import (LocalSearchConfig, local_search_restarts,
                                  objective, write_trace_csv)
    from bipx.design import Clustering, write_clustering

    with _usage_errors():
        cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=max_passes,
                                time_budget=time_budget, convergence=True,
                                seed=seed, p=p)
    if trace is not None and method != "exposure-design":
        raise click.UsageError(
            "--trace only applies to --method exposure-design")
    g = load_snapshot(graph)
    m = g.n_diversion
    result = None
    if method == "singleton":
        c = Clustering.singletons(m)
    elif method == "one-cluster":
        c = Clustering.one_cluster(m)
    else:
        result = local_search_restarts(g, cfg, restarts)
        c = result.clustering
    obj = objective(g, c, phi, p) if result is None else result.objective
    write_clustering(c, g, out_clustering)
    outputs = [out_clustering]
    if trace is not None:
        write_trace_csv(result.trace, trace)
        outputs.append(trace)
    # The trace's elapsed column is wall-clock.
    _write_manifest(out_clustering + ".manifest.json", [graph], outputs,
                    seeds={"seed": seed}, volatile=outputs[1:])
    click.echo(f"{c.k} clusters, objective {obj.total!r} -> {out_clustering}")


@main.command("moments")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("clustering", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_csv", type=click.Path(dir_okay=False))
@click.option("--p", type=float, default=0.5, show_default=True)
def cmd_moments(graph, clustering, out_csv, p):
    """Exposure means and variances for a clustering, as CSV."""
    from bipx.design import (DesignSpec, exposure_moments, read_clustering,
                             write_moments_csv)

    g = load_snapshot(graph)
    c = read_clustering(g, clustering)
    with _usage_errors():
        d = DesignSpec.independent_cluster(c, p)
    write_moments_csv(exposure_moments(g, d), g, out_csv)
    _write_manifest(out_csv + ".manifest.json", [graph, clustering],
                    [out_csv])
    click.echo(f"wrote moments for {g.n_outcome} outcome units -> {out_csv}")


@main.command("simulate")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--clustering", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Clustering file for the cluster design.")
@click.option("--bernoulli", is_flag=True,
              help="Use the unit-level Bernoulli design instead.")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--replicates", type=click.IntRange(min=1), default=5000,
              show_default=True)
@click.option("--seed", type=click.IntRange(0), default=0, show_default=True)
@click.option("--bins", type=click.IntRange(min=1), default=50,
              show_default=True)
def cmd_simulate(graph, scenario, out_dir, clustering, bernoulli, p,
                 replicates, seed, bins):
    """Monte Carlo estimate distribution for one design and scenario."""
    from bipx.design import DesignSpec, read_clustering
    from bipx.simulate import (export_estimates_csv, export_histogram,
                               generate_outcome_model, read_scenario_file,
                               report_to_json, run_simulation)

    if (clustering is None) == (not bernoulli):
        raise click.UsageError(
            "exactly one of --clustering PATH or --bernoulli is required")
    # The estimates and the histogram's edges.
    _allocatable(replicates, f"{replicates} replicates", "--replicates")
    _allocatable(bins + 1, f"{bins} bins", "--bins")
    g = load_snapshot(graph)
    spec = read_scenario_file(scenario)
    if bernoulli:
        with _usage_errors():
            d = DesignSpec.bernoulli(p)
        design_name = "bernoulli"
    else:
        c = read_clustering(g, clustering)
        with _usage_errors():
            d = DesignSpec.independent_cluster(c, p)
        design_name = f"independent-cluster[k={c.k}]"
    model = generate_outcome_model(g, spec)
    report = run_simulation(g, d, model, replicates, seed,
                            design_name=design_name, scenario_name=spec.kind)
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    estimates_path = os.path.join(out_dir, "estimates.csv")
    histogram_path = os.path.join(out_dir, "histogram.csv")
    report_to_json(report, report_path)
    export_estimates_csv(report, estimates_path)
    export_histogram(report, bins, histogram_path)
    inputs = [graph, scenario] + ([] if bernoulli else [clustering])
    _write_manifest(os.path.join(out_dir, "manifest.json"), inputs,
                    [report_path, estimates_path, histogram_path],
                    seeds={"seed": seed, "model_seed": spec.model_seed})
    click.echo(f"{design_name} on {spec.kind}: true_ate={report.true_ate!r} "
               f"bias={report.bias!r} mse={report.mse!r} -> {out_dir}")


@main.command("sweep")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("scenario", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_csv", type=click.Path(dir_okay=False))
@click.option("--phis", required=True,
              help="Comma-separated trade-off values, e.g. 0.01,0.25,1.0")
@click.option("--k-max", type=int, default=None)
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--replicates", type=click.IntRange(min=1), default=5000,
              show_default=True)
@click.option("--seed", type=click.IntRange(0), default=0,
              show_default=True,
              help="Base seed for the simulation replicates.")
@click.option("--search-seed", type=click.IntRange(0), default=0,
              show_default=True)
@click.option("--max-passes", type=int, default=None)
def cmd_sweep(graph, scenario, out_csv, phis, k_max, p, replicates, seed,
              search_seed, max_passes):
    """Optimize a design per phi value and tabulate its Monte Carlo and
    exact MSE."""
    from bipx.cluster_opt import LocalSearchConfig
    from bipx.simulate import phi_sweep, read_scenario_file

    phi_values = [tok for tok in (t.strip() for t in phis.split(",")) if tok]
    if not phi_values:
        raise click.UsageError("--phis must list at least one value")
    try:
        phi_values = [float(tok) for tok in phi_values]
    except ValueError as exc:
        raise click.UsageError(f"bad --phis value: {exc}")
    with _usage_errors():
        cfg = LocalSearchConfig(phi=1.0, k_max=k_max, max_passes=max_passes,
                                convergence=True, seed=search_seed, p=p)
        # Each search's config validates its phi.
        for phi in phi_values:
            replace(cfg, phi=phi)
    _allocatable(replicates, f"{replicates} replicates", "--replicates")
    g = load_snapshot(graph)
    spec = read_scenario_file(scenario)
    rows = phi_sweep(g, spec, phi_values, cfg, replicates, seed, path=out_csv)
    _write_manifest(out_csv + ".manifest.json", [graph, scenario], [out_csv],
                    seeds={"seed": seed, "search_seed": search_seed,
                           "model_seed": spec.model_seed})
    for row in rows:
        click.echo(f"phi={row.phi!r} k={row.n_clusters} mse={row.mse!r} "
                   f"exact_mse={row.exact_mse!r}")
    click.echo(f"wrote {len(rows)} rows -> {out_csv}")


def _read_manifest(path):
    """A manifest's record, checked for the fields rerun reads."""
    def bad(why):
        return click.ClickException(f"{path}: not a bipx manifest: {why}")

    def strings(x):
        return isinstance(x, list) and all(isinstance(s, str) for s in x)

    try:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise bad(exc)
    if not isinstance(record, dict):
        raise bad("not a JSON object")
    if not (strings(record.get("argv")) and record["argv"]):
        raise bad("argv is not a non-empty list of strings")
    if record["argv"][0] == "rerun":
        raise bad("argv replays rerun itself")
    for key in ("inputs", "outputs"):
        table = record.get(key, {})  # JSON object keys are strings
        if not (isinstance(table, dict) and strings(list(table.values()))):
            raise bad(f"{key} is not an object of string to string")
    if not strings(record.get("volatile_outputs", [])):
        raise bad("volatile_outputs is not a list of strings")
    if not isinstance(record.get("cwd", ""), str):
        raise bad("cwd is not a string")
    return record


@main.command("rerun")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--check", is_flag=True,
              help="Verify regenerated outputs digest-match the manifest.")
def cmd_rerun(manifest, check):
    """Replay a recorded run from its manifest."""
    import uuid

    record = _read_manifest(manifest)
    volatile = set(record.get("volatile_outputs", []))
    checked = {path: digest
               for path, digest in record.get("outputs", {}).items()
               if path not in volatile}
    if check and not checked:
        raise click.ClickException(f"{manifest}: records no output to check")
    changed = []
    for path, digest in record.get("inputs", {}).items():
        if not os.path.isfile(path):
            changed.append(f"{path}: missing")
        elif _sha256(path) != digest:
            changed.append(f"{path}: changed since the recorded run")
    if changed:
        raise click.ClickException(
            "inputs differ from manifest:\n" + "\n".join(changed))
    # argv holds paths relative to the directory the run was made in.
    cwd = record.get("cwd", os.getcwd())
    click.echo(f"replaying in {cwd}: bipx " + " ".join(record["argv"]))
    here = os.getcwd()
    try:
        os.chdir(cwd)
    except OSError as exc:
        raise click.ClickException(f"cannot replay in {cwd}: {exc}")
    # A checked output that the replay does not write must not pass as the
    # recorded run's file, so each is renamed aside in its own directory
    # until the replay has run, and put back if it does not complete. A
    # path that is also an input stays where the replay reads it.
    aside, replayed = {}, False
    try:
        if check:
            for path in checked.keys() - record.get("inputs", {}).keys():
                path = os.path.join(here, path)
                if os.path.isfile(path):
                    moved = f"{path}.{uuid.uuid4().hex}.rerun"
                    os.replace(path, moved)
                    aside[path] = moved
        main.main(args=record["argv"], standalone_mode=False)
        replayed = True
    except click.UsageError as exc:
        raise click.ClickException(f"{manifest}: recorded argv is not a "
                                   f"valid bipx command: "
                                   f"{exc.format_message()}")
    finally:
        os.chdir(here)
        if not replayed:
            for path, moved in aside.items():
                os.replace(moved, path)
    if check:
        failures = []
        for path, digest in checked.items():
            if not os.path.exists(path):
                moved = aside.pop(os.path.join(here, path), None)
                if moved is not None:
                    os.replace(moved, path)
                failures.append(f"{path}: missing")
                continue
            fresh = _sha256(path)
            status = "ok" if fresh == digest else "MISMATCH"
            click.echo(f"{status}  {path}")
            if fresh != digest:
                failures.append(f"{path}: {digest} -> {fresh}")
        # The replay wrote the others anew.
        for moved in aside.values():
            os.remove(moved)
        if failures:
            raise click.ClickException(
                "outputs differ from manifest:\n" + "\n".join(failures))
        click.echo("all checked outputs byte-identical")


if __name__ == "__main__":
    main()
