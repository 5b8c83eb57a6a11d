"""Command-line interface: ingest, design, moments, simulate, sweep, rerun.

Every command writes a JSON manifest next to its outputs recording the
replayable argument vector, all seeds, input and output digests, and the
tool version. `bipx rerun MANIFEST` first checks that every recorded
input still has its recorded digest, then replays the run in the directory
it was made in; with --check it also verifies that the regenerated outputs
digest-match the original ones. Outputs whose bytes legitimately vary
between runs (wall-clock trace columns, the manifest itself) are listed
under volatile_outputs and excluded from the byte-identity contract.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from dataclasses import replace
from datetime import datetime, timezone

import click

from bipx import __version__
from bipx.cluster_opt import (LocalSearchConfig, balanced_partition_baseline,
                              local_search_restarts, objective,
                              write_trace_csv)
from bipx.design import (Clustering, DegenerateDesignError, DesignSpec,
                         exposure_moments, read_clustering,
                         write_clustering, write_moments_csv)
from bipx.graph_core import (EdgeListParseError, GraphError,
                             filter_min_outcome_degree, load_edge_list,
                             load_snapshot, normalize_rows, save_snapshot,
                             write_edge_list, write_id_maps)
from bipx.simulate import (ScenarioError, export_estimates_csv,
                           export_histogram, generate_outcome_model,
                           phi_sweep, read_scenario_file, report_to_json,
                           run_simulation)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(path, command, argv, seeds, inputs, outputs,
                    volatile_outputs, started, flags):
    manifest = {
        "command": command,
        "argv": list(argv),
        "cwd": os.getcwd(),
        "flags": flags,
        "seeds": seeds,
        "inputs": {os.path.abspath(p): _sha256(p) for p in inputs},
        "outputs": {os.path.abspath(p): _sha256(p) for p in outputs},
        "volatile_outputs": [os.path.abspath(p) for p in volatile_outputs],
        "version": __version__,
        "wall_clock_utc": datetime.now(timezone.utc).isoformat(),
        "elapsed_seconds": time.perf_counter() - started,
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return path


def _load_graph(path):
    try:
        return load_snapshot(path)
    except (GraphError, OSError, ValueError) as exc:
        raise click.ClickException(f"cannot load graph {path}: {exc}")


def _load_clustering(g, path):
    try:
        return read_clustering(g, path)
    except ValueError as exc:
        raise click.ClickException(f"cannot load clustering {path}: {exc}")


def _degenerate(g, exc):
    """A DegenerateDesignError as a message naming outcome ids."""
    ids = ", ".join(g.outcome_ids[i] for i in exc.units[:20])
    more = "" if len(exc.units) <= 20 else f" (+{len(exc.units) - 20} more)"
    return click.ClickException(
        f"degenerate design: zero exposure variance for outcome units "
        f"{ids}{more}")


@contextmanager
def _usage_errors():
    """A spec object's ValueError names a bad flag value: exit 2."""
    try:
        yield
    except ValueError as exc:
        raise click.UsageError(str(exc))


@click.group()
@click.version_option(version=__version__, prog_name="bipx")
def main():
    """Bipartite experiment design and estimation toolkit."""


@main.command("ingest")
@click.argument("edge_list", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_graph", type=click.Path(dir_okay=False))
@click.option("--min-degree", type=int, default=0, show_default=True,
              help="Drop outcome units with fewer incident edges.")
@click.option("--normalize/--no-normalize", default=True, show_default=True,
              help="Rescale each outcome row to sum to 1.")
def cmd_ingest(edge_list, out_graph, min_degree, normalize):
    """Parse an edge list into a binary graph snapshot plus id maps."""
    started = time.perf_counter()
    try:
        g = load_edge_list(edge_list)
    except EdgeListParseError as exc:
        raise click.ClickException(str(exc))
    except GraphError as exc:
        raise click.ClickException(f"{edge_list}: {exc}")
    if min_degree > 0:
        g = filter_min_outcome_degree(g, min_degree)
    if normalize:
        g = normalize_rows(g)
    save_snapshot(g, out_graph)
    outcome_map = out_graph + ".outcome_ids.tsv"
    diversion_map = out_graph + ".diversion_ids.tsv"
    write_id_maps(g, outcome_map, diversion_map)
    argv = ["ingest", edge_list, out_graph,
            "--min-degree", str(min_degree),
            "--normalize" if normalize else "--no-normalize"]
    _write_manifest(out_graph + ".manifest.json", "ingest", argv,
                    seeds={}, inputs=[edge_list],
                    outputs=[out_graph, outcome_map, diversion_map],
                    volatile_outputs=[], started=started,
                    flags={"min_degree": min_degree, "normalize": normalize})
    click.echo(f"ingested {g.n_outcome} outcome x {g.n_diversion} diversion "
               f"units, {g.nnz} edges -> {out_graph}")


@main.command("export")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_edge_list", type=click.Path(dir_okay=False))
def cmd_export(graph, out_edge_list):
    """Write a graph snapshot back out as a plain edge list."""
    g = _load_graph(graph)
    write_edge_list(g, out_edge_list)
    click.echo(f"wrote {g.nnz} edges -> {out_edge_list}")


def _parse_method(method):
    if method in ("singleton", "one-cluster", "exposure-design"):
        return method, None
    if method.startswith("balanced:"):
        try:
            k = int(method.split(":", 1)[1])
        except ValueError:
            raise click.UsageError(f"bad balanced cluster count in {method!r}")
        if k < 1:
            raise click.UsageError("balanced:k requires k >= 1")
        return "balanced", k
    raise click.UsageError(
        f"unknown method {method!r}; expected singleton, one-cluster, "
        "balanced:k, or exposure-design")


@main.command("design")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_clustering", type=click.Path(dir_okay=False))
@click.option("--method", default="exposure-design", show_default=True,
              help="singleton | one-cluster | balanced:k | exposure-design")
@click.option("--phi", type=float, default=1.0, show_default=True)
@click.option("--k-max", type=int, default=None,
              help="Maximum cluster size for the local search.")
@click.option("--p", type=float, default=0.5, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--restarts", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--max-passes", type=int, default=None)
@click.option("--time-budget", type=float, default=None,
              help="Search time budget in seconds.")
@click.option("--trace", type=click.Path(dir_okay=False), default=None,
              help="Write the per-pass search trace CSV here.")
def cmd_design(graph, out_clustering, method, phi, k_max, p, seed, restarts,
               max_passes, time_budget, trace):
    """Produce a diversion-unit clustering by the chosen method."""
    started = time.perf_counter()
    with _usage_errors():
        cfg = LocalSearchConfig(phi=phi, k_max=k_max, max_passes=max_passes,
                                time_budget=time_budget, convergence=True,
                                seed=seed, p=p)
    g = _load_graph(graph)
    kind, balanced_k = _parse_method(method)
    m = g.n_diversion
    result = None
    if kind == "singleton":
        c = Clustering.singletons(m)
    elif kind == "one-cluster":
        c = Clustering.one_cluster(m)
    elif kind == "balanced":
        if balanced_k > m:
            raise click.ClickException(
                f"balanced:{balanced_k} exceeds the {m} diversion units")
        c = balanced_partition_baseline(g, balanced_k, seed=seed)
    else:
        result = local_search_restarts(g, cfg, restarts)
        c = result.clustering
    write_clustering(c, g, out_clustering)
    outputs = [out_clustering]
    volatile = []
    if trace is not None:
        if result is None:
            raise click.UsageError(
                "--trace only applies to --method exposure-design")
        write_trace_csv(result.trace, trace)
        outputs.append(trace)
        volatile.append(trace)  # elapsed column is wall-clock
    obj = objective(g, c, phi, p)
    argv = ["design", graph, out_clustering, "--method", method,
            "--phi", repr(phi), "--p", repr(p), "--seed", str(seed),
            "--restarts", str(restarts)]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    if max_passes is not None:
        argv += ["--max-passes", str(max_passes)]
    if time_budget is not None:
        argv += ["--time-budget", repr(time_budget)]
    if trace is not None:
        argv += ["--trace", trace]
    _write_manifest(out_clustering + ".manifest.json", "design", argv,
                    seeds={"seed": seed}, inputs=[graph], outputs=outputs,
                    volatile_outputs=volatile, started=started,
                    flags={"method": method, "phi": phi, "k_max": k_max,
                           "p": p, "restarts": restarts,
                           "max_passes": max_passes,
                           "time_budget": time_budget})
    click.echo(f"{c.k} clusters, objective {obj.total!r} -> {out_clustering}")


@main.command("moments")
@click.argument("graph", type=click.Path(exists=True, dir_okay=False))
@click.argument("clustering", type=click.Path(exists=True, dir_okay=False))
@click.argument("out_csv", type=click.Path(dir_okay=False))
@click.option("--p", type=float, default=0.5, show_default=True)
def cmd_moments(graph, clustering, out_csv, p):
    """Exposure means and variances for a clustering, as CSV."""
    started = time.perf_counter()
    g = _load_graph(graph)
    c = _load_clustering(g, clustering)
    with _usage_errors():
        d = DesignSpec.independent_cluster(c, p)
    try:
        mom = exposure_moments(g, d)
    except DegenerateDesignError as exc:
        raise _degenerate(g, exc)
    write_moments_csv(mom, g, out_csv)
    argv = ["moments", graph, clustering, out_csv, "--p", repr(p)]
    _write_manifest(out_csv + ".manifest.json", "moments", argv,
                    seeds={}, inputs=[graph, clustering], outputs=[out_csv],
                    volatile_outputs=[], started=started, flags={"p": p})
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
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--bins", type=click.IntRange(min=1), default=50,
              show_default=True)
def cmd_simulate(graph, scenario, out_dir, clustering, bernoulli, p,
                 replicates, seed, bins):
    """Monte Carlo estimate distribution for one design and scenario."""
    started = time.perf_counter()
    if (clustering is None) == (not bernoulli):
        raise click.UsageError(
            "exactly one of --clustering PATH or --bernoulli is required")
    g = _load_graph(graph)
    try:
        spec = read_scenario_file(scenario)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))
    if bernoulli:
        with _usage_errors():
            d = DesignSpec.bernoulli(p)
        design_name = "bernoulli"
    else:
        c = _load_clustering(g, clustering)
        with _usage_errors():
            d = DesignSpec.independent_cluster(c, p)
        design_name = f"independent-cluster[k={c.k}]"
    try:
        model = generate_outcome_model(g, spec)
        report = run_simulation(g, d, model, replicates, seed,
                                design_name=design_name,
                                scenario_name=spec.kind, bins=bins)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))
    except DegenerateDesignError as exc:
        raise _degenerate(g, exc)
    os.makedirs(out_dir, exist_ok=True)
    report_path = os.path.join(out_dir, "report.json")
    estimates_path = os.path.join(out_dir, "estimates.csv")
    histogram_path = os.path.join(out_dir, "histogram.csv")
    report_to_json(report, report_path)
    export_estimates_csv(report, estimates_path)
    export_histogram(report, bins, histogram_path)
    argv = ["simulate", graph, scenario, out_dir,
            "--p", repr(p), "--replicates", str(replicates),
            "--seed", str(seed), "--bins", str(bins)]
    argv += ["--bernoulli"] if bernoulli else ["--clustering", clustering]
    inputs = [graph, scenario] + ([] if bernoulli else [clustering])
    _write_manifest(os.path.join(out_dir, "manifest.json"), "simulate",
                    argv, seeds={"seed": seed,
                                 "model_seed": spec.model_seed},
                    inputs=inputs,
                    outputs=[report_path, estimates_path, histogram_path],
                    volatile_outputs=[], started=started,
                    flags={"p": p, "replicates": replicates, "bins": bins,
                           "bernoulli": bernoulli})
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
@click.option("--seed", type=int, default=0, show_default=True,
              help="Base seed for the simulation replicates.")
@click.option("--search-seed", type=int, default=0, show_default=True)
@click.option("--max-passes", type=int, default=None)
def cmd_sweep(graph, scenario, out_csv, phis, k_max, p, replicates, seed,
              search_seed, max_passes):
    """Optimize a design per phi value and tabulate Monte Carlo MSE."""
    started = time.perf_counter()
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
    g = _load_graph(graph)
    try:
        spec = read_scenario_file(scenario)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))
    try:
        rows = phi_sweep(g, spec, phi_values, cfg, replicates, seed,
                         path=out_csv)
    except ScenarioError as exc:
        raise click.ClickException(str(exc))
    except DegenerateDesignError as exc:
        raise _degenerate(g, exc)
    argv = ["sweep", graph, scenario, out_csv, "--phis", phis,
            "--p", repr(p), "--replicates", str(replicates),
            "--seed", str(seed), "--search-seed", str(search_seed)]
    if k_max is not None:
        argv += ["--k-max", str(k_max)]
    if max_passes is not None:
        argv += ["--max-passes", str(max_passes)]
    _write_manifest(out_csv + ".manifest.json", "sweep", argv,
                    seeds={"seed": seed, "search_seed": search_seed,
                           "model_seed": spec.model_seed},
                    inputs=[graph, scenario], outputs=[out_csv],
                    volatile_outputs=[], started=started,
                    flags={"phis": phi_values, "k_max": k_max, "p": p,
                           "replicates": replicates,
                           "max_passes": max_passes})
    for row in rows:
        click.echo(f"phi={row.phi!r} k={row.n_clusters} mse={row.mse!r}")
    click.echo(f"wrote {len(rows)} rows -> {out_csv}")


@main.command("rerun")
@click.argument("manifest", type=click.Path(exists=True, dir_okay=False))
@click.option("--check", is_flag=True,
              help="Verify regenerated outputs digest-match the manifest.")
def cmd_rerun(manifest, check):
    """Replay a recorded run from its manifest."""
    with open(manifest, encoding="utf-8") as fh:
        record = json.load(fh)
    argv = record.get("argv")
    if not argv:
        raise click.ClickException(f"{manifest}: no argv recorded")
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
    click.echo(f"replaying in {cwd}: bipx " + " ".join(argv))
    here = os.getcwd()
    try:
        os.chdir(cwd)
    except OSError as exc:
        raise click.ClickException(f"cannot replay in {cwd}: {exc}")
    try:
        main.main(args=argv, standalone_mode=False)
    except click.ClickException:
        raise
    except Exception as exc:  # pragma: no cover - defensive
        raise click.ClickException(f"replay failed: {exc}")
    finally:
        os.chdir(here)
    if check:
        volatile = set(record.get("volatile_outputs", []))
        failures = []
        for path, digest in record.get("outputs", {}).items():
            if path in volatile:
                continue
            if not os.path.exists(path):
                failures.append(f"{path}: missing")
                continue
            fresh = _sha256(path)
            status = "ok" if fresh == digest else "MISMATCH"
            click.echo(f"{status}  {path}")
            if fresh != digest:
                failures.append(f"{path}: {digest} -> {fresh}")
        if failures:
            raise click.ClickException(
                "outputs differ from manifest:\n" + "\n".join(failures))
        click.echo("all checked outputs byte-identical")


if __name__ == "__main__":
    main()
