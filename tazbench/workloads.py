"""The benchmark's three workloads.

Each workload makes its inputs from the run's seed in ``setup`` and then
runs closed-loop rounds, one after the other in one thread.  A round makes
only public calls into the package; those calls are timed, the output
checks after them are not.  ``round`` returns the round's
reference-normalised seconds and the list of checks that failed.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

from tazcar import centrality, dataset, evaluate, mcmc, synth, weights
from tazcar.centrality import Pattern, RoadGraph
from tazcar.errors import ValidationError
from tazcar.model import ModelSpec

from harness import check, check_deviance


def fit_seed(run_seed: int, round_index: int, slot: int = 0) -> int:
    """Every round, and every fit in it, samples from its own stream."""
    return run_seed * 100_000 + round_index * 10 + slot


def cli_fit_inputs(csv_path, weights_path):
    """The calls `tazcar fit --data CSV --weights FILE` makes before fitting."""
    loaded = dataset.load_dataset(csv_path)
    if loaded.errors:
        raise ValidationError("; ".join(loaded.errors))
    spec = ModelSpec()
    try:
        W = weights.read_weight_matrix(weights_path)
    except ValidationError:
        W = weights.build_weights(weights.read_topology(weights_path), spec.proximity_mode)
    design = dataset.build_design(loaded.records, spec)
    return loaded.records, spec, W, design, dataset.crash_counts(loaded.records)


def check_determinism(h, failures, y, design, W, spec, seed) -> None:
    """Two short fits from one seed must give byte-identical reports."""
    config = mcmc.McmcConfig(chains=2, burn_in=20, iters=20, seed=seed)
    first = mcmc.fit(y, design, W, spec, config).to_json()
    second = mcmc.fit(y, design, W, spec, config).to_json()
    h.capture.draws = []
    check(failures, first == second, "a repeated fit with the same seed changed its report")


def check_topology(failures, report, islands, components, name) -> None:
    check(failures, (report.island_count, report.component_count) == (islands, components),
          f"{name}: reported {report.island_count} islands and {report.component_count} "
          f"components, built {islands} and {components}")


class ReferenceFit:
    """ROADMAP's reference fit: `tazcar simulate --lattice 13 --seed 1`,
    then `tazcar fit` with 2 chains of 500 burn-in and 1000 kept sweeps.
    The data stay fixed; the seed picks each round's sampler stream, so
    the figures do not hang on one random stream."""

    LATTICE = 13
    DATA_SEED = 1
    CHAINS, BURN_IN, ITERS = 2, 500, 1000
    # The 95% intervals must cover at least this share of the 16 true
    # coefficients; on the reference data 14 to 16 are covered.
    MIN_COVERAGE = 0.75

    def __init__(self, h):
        self.h = h
        self.csv = os.path.join(h.out_dir, "zones.csv")
        self.topology = os.path.join(h.out_dir, "zones.topology")
        self.report_path = os.path.join(h.out_dir, "report.json")

    def setup(self):
        topology = synth.generate_lattice(self.LATTICE)
        records, self.truth = synth.simulate_dataset(topology, synth.default_truth(),
                                                     seed=self.DATA_SEED)
        dataset.save_dataset(records, self.csv)
        weights.write_topology(topology, self.topology)
        cli_fit_inputs(self.csv, self.topology)

    def round(self, r):
        h = self.h
        seed = fit_seed(h.seed, r)

        def work():
            records, spec, W, design, y = cli_fit_inputs(self.csv, self.topology)
            config = mcmc.McmcConfig(chains=self.CHAINS, burn_in=self.BURN_IN,
                                     iters=self.ITERS, seed=seed)
            report = h.fit("reference", "full", y, design, W, spec, config)
            report.render_table()
            report.to_json(self.report_path)
            return report, spec, W, design, y

        (report, spec, W, design, y), seconds = h.clock.timed(work)
        failures = []
        check_deviance(failures, report, y, "reference fit")
        covered = sum(report.parameters[k]["q025"] <= v <= report.parameters[k]["q975"]
                      for k, v in self.truth.beta.items())
        check(failures, covered >= self.MIN_COVERAGE * len(self.truth.beta),
              f"95% intervals cover {covered} of {len(self.truth.beta)} true coefficients")
        check_topology(failures, report, 0, 1, "reference fit")
        check_determinism(h, failures, y, design, W, spec, seed)
        h.report_bytes = os.path.getsize(self.report_path)
        h.probe_fixed_cost(y, design, W, spec, seed)
        return seconds, failures


def uneven_lattice(m, rng, block=(3, 4)):
    """M x M rook lattice with boundary lengths and lane counts drawn per
    pair.  Under lane-count weights one interior zone is an island and a
    corner block of zones is cut off: three components, one island."""
    rows, cols = block
    in_block = {r * m + c for r in range(rows) for c in range(m - cols, m)}
    island = int(rng.integers(rows + 1, m - 1)) * m + int(rng.integers(1, m - cols - 1))
    pairs = []
    for r in range(m):
        for c in range(m):
            i = r * m + c
            for j in ([i + 1] if c + 1 < m else []) + ([i + m] if r + 1 < m else []):
                lanes = int(rng.integers(1, 7))
                if island in (i, j) or (i in in_block) != (j in in_block):
                    lanes = 0
                pairs.append((i, j, 0.25 * int(rng.integers(1, 13)), lanes))
    return weights.ZoneTopology(zone_count=m * m, neighbor_pairs=tuple(pairs))


def spatial_truth():
    """The strongly spatial truth of the DIC acceptance criterion: low
    counts, a spatial field of sd 1.2 and almost no heterogeneity."""
    beta = dict(synth.DEFAULT_TRUTH_BETA, intercept=-1.0)
    return synth.default_truth(beta=beta, phi_target_sd=1.2, theta_target_sd=0.05)


class ModelComparison:
    """The paper's analysis on one simulated replicate: the CAR model under
    all three weighting modes and a theta-only model, ranked by DIC from
    their written reports, as `tazcar compare` does.

    The replicate is fixed; the seed draws the lattice's boundary lengths,
    lane counts and island, and the sampler streams.  The DIC gap between
    the theta-only and the CAR model differs between replicates (from 0 to
    45 on this truth), but for one replicate it moves by only a few units
    between sampler streams: on this one it stays near 40.  Set-up
    simulates the replicate and saves and loads it as a CSV; each round
    simulates it again and checks that it equals the loaded one."""

    LATTICE = 13
    DATA_SEED = 1
    CHAINS, BURN_IN, ITERS = 2, 200, 400
    LANE_ISLANDS, LANE_COMPONENTS = 1, 3
    MODELS = (("adjacency", "full"), ("boundary_length", "full"),
              ("lane_count", "disconnected"), ("theta_only", "theta_only"))

    def __init__(self, h):
        self.h = h
        self.topology_path = os.path.join(h.out_dir, "lattice.topology")
        self.csv = os.path.join(h.out_dir, "replicate.csv")

    def setup(self):
        rng = np.random.default_rng(self.h.seed)
        weights.write_topology(uneven_lattice(self.LATTICE, rng), self.topology_path)
        self.topology = weights.read_topology(self.topology_path)
        records, _ = synth.simulate_dataset(self.topology, spatial_truth(), seed=self.DATA_SEED)
        dataset.save_dataset(records, self.csv)
        self.saved = dataset.load_dataset(self.csv).records

    def round(self, r):
        h = self.h

        def simulate():
            records, _ = synth.simulate_dataset(self.topology, spatial_truth(),
                                                seed=self.DATA_SEED)
            return records

        records, seconds = h.clock.timed(simulate)
        reports, paths = {}, {}
        for k, (mode, kind) in enumerate(self.MODELS):
            def work():
                spec = (ModelSpec(include_phi=False) if kind == "theta_only"
                        else ModelSpec(proximity_mode=mode))
                W = None if kind == "theta_only" else weights.build_weights(self.topology, mode)
                design = dataset.build_design(records, spec)
                y = dataset.crash_counts(records)
                config = mcmc.McmcConfig(chains=self.CHAINS, burn_in=self.BURN_IN,
                                         iters=self.ITERS, seed=fit_seed(h.seed, r, k))
                report = h.fit(mode, kind, y, design, W, spec, config)
                path = os.path.join(h.out_dir, f"report_{mode}.json")
                report.to_json(path)
                return report, path, y

            (reports[mode], paths[mode], y), fit_seconds = h.clock.timed(work)
            seconds += fit_seconds

        def compare():
            runs = {mode: mcmc.PosteriorReport.from_json(path).dic for mode, path in paths.items()}
            return evaluate.compare_dic(runs)

        comparison, compare_seconds = h.clock.timed(compare)
        seconds += compare_seconds

        failures = []
        check(failures, records == self.saved,
              "the round's replicate differs from the one simulated, saved and loaded in set-up")
        for mode, report in reports.items():
            check_deviance(failures, report, y, mode)
        check_topology(failures, reports["adjacency"], 0, 1, "adjacency")
        check_topology(failures, reports["boundary_length"], 0, 1, "boundary_length")
        check_topology(failures, reports["lane_count"], self.LANE_ISLANDS,
                       self.LANE_COMPONENTS, "lane_count")
        gap = reports["theta_only"].dic - reports["adjacency"].dic
        check(failures, gap > evaluate.DIC_DECISIVE,
              f"theta-only DIC exceeds the adjacency CAR DIC by {gap:.1f}, not decisively")
        ranked = [e["label"] for e in comparison["ranking"]]
        check(failures, ranked == sorted(reports, key=lambda m: reports[m].dic),
              f"compare_dic ranking {ranked} is not by ascending DIC")
        h.report_bytes = os.path.getsize(paths["adjacency"])
        return seconds, failures


# Network sizes of the 173 zones: mostly small, with a tail to 144 nodes.
ZONE_NETWORK_SIZES = {36: 120, 49: 30, 64: 12, 81: 6, 100: 3, 121: 1, 144: 1}
ZONE_COLUMNS = 14
METRICS = (centrality.HOP_COUNT, centrality.EDGE_LENGTH)


def zone_topology(n, columns, rng):
    """First n cells of a rook lattice `columns` wide, with drawn boundary
    lengths and lane counts."""
    pairs = []
    for i in range(n):
        for j in ([i + 1] if (i + 1) % columns else []) + [i + columns]:
            if j < n:
                pairs.append((i, j, 0.25 * int(rng.integers(1, 13)), int(rng.integers(1, 7))))
    return weights.ZoneTopology(zone_count=n, neighbor_pairs=tuple(pairs))


class ZoneNetworks:
    """The zone pipeline: classify each of 173 zones' road networks by
    betweenness centralization under both path metrics, fill the pattern
    column from them, and fit the CAR model once.

    The zones' attributes and crash counts are one fixed simulated data
    set; the seed draws the road networks (sizes, shapes, edge lengths)
    and the sampler streams.  A run holds only 3 to 5 rounds, so the short
    fit runs many short chains: pooled over a run, 2 x 1500 sweeps per
    fit gave an ESS that moved by 30% between seeds, 8 x 400 by 11% and
    16 x 250 by 4.5%."""

    ZONES = 173
    DATA_SEED = 1
    CHAINS, BURN_IN, ITERS = 16, 100, 150

    def __init__(self, h):
        self.h = h
        self.csv = os.path.join(h.out_dir, "zones.csv")
        self.topology_path = os.path.join(h.out_dir, "zones.topology")
        self.report_path = os.path.join(h.out_dir, "report.json")
        self.oracle = None

    def setup(self):
        topology = zone_topology(self.ZONES, ZONE_COLUMNS, np.random.default_rng(self.DATA_SEED))
        records, _ = synth.simulate_dataset(topology, synth.default_truth(), seed=self.DATA_SEED)
        rng = np.random.default_rng(self.h.seed)
        sizes = rng.permutation([s for s, k in ZONE_NETWORK_SIZES.items() for _ in range(k)])
        self.edge_paths = []
        for rec, size in zip(records, sizes):
            plain = synth.generate_pattern_network(rec.pattern, int(size),
                                                   seed=int(rng.integers(2**31)))
            graph = RoadGraph(plain.node_count, tuple(
                (u, v, 0.25 * int(rng.integers(1, 9))) for u, v, _ in plain.edges))
            path = os.path.join(self.h.out_dir, f"zone{rec.zone_id:03d}.edges")
            centrality.write_edge_list(graph, path)
            self.edge_paths.append(path)
        unclassified = [dataclasses.replace(rec, pattern=Pattern.UNCLASSIFIABLE)
                        for rec in records]
        dataset.save_dataset(unclassified, self.csv)
        weights.write_topology(topology, self.topology_path)
        self.records = dataset.load_dataset(self.csv).records
        self.topology = weights.read_topology(self.topology_path)

    def _classify(self):
        out = []
        for rec, path in zip(self.records, self.edge_paths):
            graph = centrality.read_edge_list(path)
            results = []
            for metric in METRICS:
                mark = self.h.span_mark()
                results.append(centrality.analyze(graph, metric))
                if mark >= 0:
                    n = graph.node_count
                    self.h.pair_spans.append((mark, n * (n - 1)))
            out.append((graph, results, dataset.resolve_pattern(rec, graph)))
        return out

    def round(self, r):
        h = self.h
        classified, seconds = h.clock.timed(self._classify)

        def work():
            records = [dataclasses.replace(rec, pattern=pattern)
                       for rec, (_, _, pattern) in zip(self.records, classified)]
            spec = ModelSpec()
            W = weights.build_weights(self.topology, spec.proximity_mode)
            design = dataset.build_design(records, spec)
            y = dataset.crash_counts(records)
            config = mcmc.McmcConfig(chains=self.CHAINS, burn_in=self.BURN_IN,
                                     iters=self.ITERS, seed=fit_seed(h.seed, r))
            report = h.fit("zones", "full", y, design, W, spec, config)
            report.to_json(self.report_path)
            return report, y

        (report, y), fit_seconds = h.clock.timed(work)
        seconds += fit_seconds

        failures = []
        self._check_centrality(failures, classified, r)
        check_deviance(failures, report, y, "zone fit")
        check_topology(failures, report, 0, 1, "zone fit")
        h.report_bytes = os.path.getsize(self.report_path)
        return seconds, failures

    def _check_centrality(self, failures, classified, r):
        if self.oracle is None:
            self.oracle = [networkx_oracle(graph) for graph, _, _ in classified]
        for zone, ((graph, results, pattern), want) in enumerate(zip(classified, self.oracle)):
            for metric, result in zip(METRICS, results):
                scores, central = want[metric]
                check(failures, np.allclose(result.node_scores, scores, rtol=1e-9, atol=1e-12),
                      f"zone {zone}: {metric} betweenness differs from networkx")
                check(failures, abs(result.graph_centralization - central) < 1e-9,
                      f"zone {zone}: {metric} centralization differs from networkx")
            central = want[centrality.HOP_COUNT][1]
            near_bound = any(abs(central - lo) < 1e-9 for lo, _, _ in centrality.PATTERN_BOUNDS)
            check(failures, near_bound or pattern == centrality.classify_pattern(central),
                  f"zone {zone}: resolved pattern {pattern.value} disagrees with networkx")
        # Anchors of the centralization scale, on graphs that change with the round.
        n = 5 + (self.h.seed + r) % 40
        star = RoadGraph(n, tuple((0, i, 0.25) for i in range(1, n)))
        ring = RoadGraph(n, tuple((i, (i + 1) % n, 0.25) for i in range(n)))
        for metric in METRICS:
            check(failures, centrality.graph_centralization(star, metric) == 1.0,
                  f"{metric}: centralization of a {n}-node star is not exactly 1")
            check(failures, centrality.graph_centralization(ring, metric) == 0.0,
                  f"{metric}: centralization of a {n}-node cycle is not exactly 0")


def networkx_oracle(graph):
    """Normalised ordered-pair betweenness and centralization per metric,
    computed by networkx."""
    import networkx as nx

    n = graph.node_count
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_weighted_edges_from(graph.edges, weight="length")
    out = {}
    for metric, weight in zip(METRICS, (None, "length")):
        bc = nx.betweenness_centrality(G, weight=weight, normalized=True)
        scores = np.array([bc[i] for i in range(n)])
        raw = scores * (n - 1) * (n - 2)
        out[metric] = (scores, float((raw.max() - raw).sum() / ((n - 1) ** 2 * (n - 2))))
    return out


WORKLOADS = {
    "reference_fit": ReferenceFit,
    "model_comparison": ModelComparison,
    "zone_networks": ZoneNetworks,
}
