"""Command-line front end: centrality, weights, fit, simulate, recover, compare.

Exit codes: 0 success, 2 input error, 3 domain error, 4 non-convergence.
Every command is deterministic given --seed.
"""

from __future__ import annotations

import json
import sys

import click

from . import __version__
from .centrality import analyze, read_edge_list
from .dataset import build_design, crash_counts, load_dataset, save_dataset, summarize
from .errors import (
    ConvergenceError,
    DomainError,
    McmcDivergenceError,
    TazcarError,
    ValidationError,
)
from .evaluate import compare_dic, render_comparison
from .mcmc import McmcConfig, PosteriorReport, fit
from .model import ModelSpec
from .recovery import run_recovery
from .synth import SimulationTruth, default_truth, generate_lattice, simulate_dataset
from .weights import (
    MODES,
    build_weights,
    read_topology,
    read_weight_matrix,
    write_topology,
    write_weight_matrix,
)

EXIT_INPUT = 2
EXIT_DOMAIN = 3
EXIT_NOT_CONVERGED = 4


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    """Run fn mapping toolkit errors onto the exit-code contract."""
    try:
        return fn(*args, **kwargs)
    except (FileNotFoundError, IsADirectoryError) as exc:
        _fail(EXIT_INPUT, str(exc))
    except ValidationError as exc:
        _fail(EXIT_INPUT, str(exc))
    except (DomainError, ConvergenceError, McmcDivergenceError) as exc:
        _fail(EXIT_DOMAIN, str(exc))
    except TazcarError as exc:
        _fail(EXIT_DOMAIN, str(exc))


@click.group()
@click.version_option(version=__version__, prog_name="tazcar")
def main():
    """Zone-level crash frequency modeling toolkit."""


@main.command()
@click.option("--graph", "graph_path", required=True, type=click.Path(), help="Edge-list file.")
@click.option("--metric", type=click.Choice(["hop_count", "edge_length"]),
              default="hop_count", show_default=True)
@click.option("--eq2-variant", "variant",
              type=click.Choice(["unnormalized", "paper-literal"]),
              default="unnormalized", show_default=True,
              help="Centralization numerator: raw scores (star scores 1) or normalized scores.")
@click.option("--format", "fmt", type=click.Choice(["json", "table"]),
              default="table", show_default=True)
def centrality(graph_path, metric, variant, fmt):
    """Node betweenness, centralization, and the pattern class of a network."""
    graph = _guard(read_edge_list, graph_path)
    result = _guard(analyze, graph, metric, variant.replace("-", "_"))
    if fmt == "json":
        payload = {
            "node_scores": [float(v) for v in result.node_scores],
            "centralization": float(result.graph_centralization),
            "pattern": result.pattern.value,
            "connected": result.connected,
            "metric": metric,
            "variant": variant,
            "warnings": result.warnings,
        }
        click.echo(json.dumps(payload, indent=2))
    else:
        click.echo(f"nodes: {graph.node_count}   edges: {graph.edge_count}"
                   f"   connected: {'yes' if result.connected else 'no'}")
        click.echo(f"centralization: {result.graph_centralization:.6f}   "
                   f"pattern: {result.pattern.value}")
        click.echo(f"{'node':>6}  {'betweenness':>12}")
        for i, v in enumerate(result.node_scores):
            click.echo(f"{i:>6}  {v:>12.6f}")
        for note in result.warnings:
            click.echo(f"note: {note}")


@main.command()
@click.option("--topology", "topology_path", required=True, type=click.Path(),
              help="Zone-topology file ('zones N' header, then 'i j boundary_km lanes').")
@click.option("--mode", type=click.Choice(list(MODES)), default="adjacency",
              show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the weight matrix ('i j w' upper triangle) here.")
@click.option("--dense", is_flag=True, help="Print the dense matrix.")
def weights(topology_path, mode, out_path, dense):
    """Build a zone proximity matrix from a topology file."""
    topology = _guard(read_topology, topology_path)
    matrix = _guard(build_weights, topology, mode)
    click.echo(f"zones: {matrix.zone_count}   mode: {matrix.mode}   "
               f"nonzero pairs: {len(matrix.triples)}")
    click.echo(f"components: {matrix.component_count}   islands: {len(matrix.islands)}")
    if dense:
        for row in matrix.to_dense():
            click.echo(" ".join(f"{v:g}" for v in row))
    if out_path:
        write_weight_matrix(matrix, out_path)
        click.echo(f"wrote {out_path}")


@main.command(name="fit")
@click.option("--data", "data_path", required=True, type=click.Path(), help="Dataset CSV.")
@click.option("--weights", "weights_path", required=True, type=click.Path(),
              help="Weight-matrix file or zone-topology file.")
@click.option("--spec", "spec_path", type=click.Path(), default=None,
              help="Model spec JSON; defaults to the standard covariate set.")
@click.option("--chains", type=int, default=2, show_default=True)
@click.option("--burnin", type=int, default=20000, show_default=True)
@click.option("--iters", type=int, default=50000, show_default=True)
@click.option("--thin", type=int, default=1, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--threads", type=int, default=None,
              help="Accepted for compatibility; chains share one batched sampler.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the posterior report JSON here.")
def fit_cmd(data_path, weights_path, spec_path, chains, burnin, iters, thin,
            seed, threads, out_path):
    """Fit the Poisson-lognormal CAR model to a dataset."""
    loaded = _guard(load_dataset, data_path)
    if loaded.errors:
        for err in loaded.errors:
            click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_INPUT)
    spec = _guard(ModelSpec.from_json, spec_path) if spec_path else ModelSpec()

    def read_weights():
        # Accept either a prebuilt matrix or a raw topology.
        try:
            return read_weight_matrix(weights_path)
        except ValidationError:
            return build_weights(read_topology(weights_path), spec.proximity_mode)

    W = _guard(read_weights) if spec.include_phi else None
    design = _guard(build_design, loaded.records, spec)
    y = crash_counts(loaded.records)
    config = _guard(McmcConfig, chains=chains, burn_in=burnin, iters=iters,
                    thin=thin, seed=seed)
    report = _guard(fit, y, design, W, spec, config, threads=threads)
    click.echo(report.render_table())
    if out_path:
        report.to_json(out_path)
        click.echo(f"wrote {out_path}")
    if not report.converged:
        click.echo("error: chains did not converge (Rhat above threshold)", err=True)
        sys.exit(EXIT_NOT_CONVERGED)


@main.command()
@click.option("--lattice", "lattice_m", type=int, default=13, show_default=True,
              help="Zone lattice side length M (M*M zones).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--truth", "truth_path", type=click.Path(), default=None,
              help="Truth JSON; defaults to the reference recovery truth.")
@click.option("--phi-mode", type=click.Choice(["icar", "none"]), default=None,
              help="Override the spatial-effect mode of the truth.")
@click.option("--out", "out_path", required=True, type=click.Path(),
              help="Dataset CSV output path.")
@click.option("--truth-out", "truth_out", type=click.Path(), default=None,
              help="Sidecar truth JSON output path.")
@click.option("--topology-out", "topology_out", type=click.Path(), default=None,
              help="Also write the lattice topology file.")
def simulate(lattice_m, seed, truth_path, phi_mode, out_path, truth_out, topology_out):
    """Simulate a zone dataset from known parameters."""
    truth = _guard(SimulationTruth.from_json, truth_path) if truth_path else default_truth()
    if phi_mode is not None:
        truth.phi_mode = phi_mode
    topology = _guard(generate_lattice, lattice_m)
    records, realized = _guard(simulate_dataset, topology, truth, seed=seed)
    save_dataset(records, out_path)
    click.echo(f"wrote {out_path} ({len(records)} zones)")
    if truth_out:
        realized.to_json(truth_out)
        click.echo(f"wrote {truth_out}")
    if topology_out:
        write_topology(topology, topology_out)
        click.echo(f"wrote {topology_out}")


@main.command()
@click.option("--truth", "truth_path", type=click.Path(), default=None,
              help="Truth JSON; defaults to the reference recovery truth.")
@click.option("--reps", type=int, default=20, show_default=True)
@click.option("--lattice", "lattice_m", type=int, default=13, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--burnin", type=int, default=5000, show_default=True)
@click.option("--iters", type=int, default=10000, show_default=True)
@click.option("--chains", type=int, default=2, show_default=True)
@click.option("--threads", type=int, default=None,
              help="Accepted for compatibility; chains share one batched sampler.")
@click.option("--out", "out_path", type=click.Path(), default=None,
              help="Write the coverage summary JSON here.")
def recover(truth_path, reps, lattice_m, seed, burnin, iters, chains, threads, out_path):
    """Replicate simulate-and-refit runs and report coverage of the truth."""
    truth = _guard(SimulationTruth.from_json, truth_path) if truth_path else default_truth()
    result = _guard(run_recovery, truth, reps=reps, lattice=lattice_m, seed=seed,
                    chains=chains, burn_in=burnin, iters=iters, threads=threads)
    click.echo(result.render_table())
    if out_path:
        result.to_json(out_path)
        click.echo(f"wrote {out_path}")


@main.command()
@click.argument("reports", nargs=-1, required=True, type=click.Path())
def compare(reports):
    """Compare posterior reports by DIC (with R-squared and alpha shown)."""
    if len(reports) < 2:
        _fail(EXIT_INPUT, "need at least 2 report files to compare")
    runs = {}
    detail = {}
    for path in reports:
        rep = _guard(PosteriorReport.from_json, path)
        label = path
        runs[label] = rep.dic
        detail[label] = {"d_bar": rep.d_bar, "p_d": rep.p_d,
                         "r_squared": rep.r_squared,
                         "alpha": rep.alpha.get("mean")}
    comparison = _guard(compare_dic, runs)
    click.echo(render_comparison(comparison, detail))


@main.command(name="summary")
@click.option("--data", "data_path", required=True, type=click.Path())
def summary_cmd(data_path):
    """Descriptive statistics of the dataset covariates."""
    loaded = _guard(load_dataset, data_path)
    if loaded.errors:
        for err in loaded.errors:
            click.echo(f"error: {err}", err=True)
        sys.exit(EXIT_INPUT)
    stats = _guard(summarize, loaded.records)
    click.echo(f"{'covariate':<22}{'mean':>10}{'min':>10}{'max':>10}{'sd':>10}")
    for name, row in stats.items():
        click.echo(f"{name:<22}{row['mean']:>10.3f}{row['min']:>10.3f}"
                   f"{row['max']:>10.3f}{row['sd']:>10.3f}")


if __name__ == "__main__":
    main()
