"""Synthetic zone lattices, canonical road-network patterns, and crash
datasets generated from known parameters for oracle and recovery testing."""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq
from scipy.stats import truncnorm

from .centrality import RoadGraph, Pattern
from .dataset import (
    LAND_USE_LEVELS,
    LandUse,
    ZoneRecord,
    build_design,
)
from .errors import DomainError, ValidationError, dump_json, load_json
from .model import ModelSpec, PSI_CLAMP, _finite
from .weights import ADJACENCY, ProximityMatrix, ZoneTopology, build_weights

# Target moments for the default covariate generator: mean, sd, min, max.
COVARIATE_TARGETS = {
    "area_km2": (3.26, 2.4, 0.75, 13.42),
    "ln_production": (9.89, 0.88, 7.13, 12.1),
    "ln_attraction": (9.84, 0.96, 6.82, 12.02),
    "arterial_length_km": (3.13, 2.05, 0.34, 7.51),
    "access_density": (2.08, 1.31, 0.47, 7.73),
    "signal_density": (1.74, 0.75, 0.54, 4.05),
    "road_density": (3.11, 2.13, 0.29, 12.63),
}

# Observed class shares used to assign patterns and land uses to zones.
PATTERN_SHARES = ((Pattern.GRID, 0.17), (Pattern.IRREGULAR_GRID, 0.53),
                  (Pattern.MIXED, 0.20), (Pattern.LOLLIPOPS, 0.10))
LAND_USE_SHARES = ((LandUse.INDUSTRIAL, 0.183), (LandUse.COMMERCIAL, 0.223),
                   (LandUse.EDUCATIONAL, 0.074), (LandUse.TECHNICAL, 0.084),
                   (LandUse.RESIDENTIAL, 0.208), (LandUse.GREENSPACE, 0.084),
                   (LandUse.AGRICULTURAL, 0.144))

# Default ground-truth coefficients for recovery experiments, keyed by
# design-column label.
DEFAULT_TRUTH_BETA = {
    "intercept": 2.361,
    "ln_production": 0.073,
    "ln_attraction": -0.086,
    "arterial_length_km": 0.177,
    "access_density": 0.107,
    "signal_density": 0.314,
    "road_density": -0.027,
    "pattern[IrregularGrid]": 0.443,
    "pattern[Mixed]": 0.537,
    "pattern[Lollipops]": 0.692,
    "land_use[Commercial]": 0.15,
    "land_use[Educational]": 0.024,
    "land_use[Technical]": -0.115,
    "land_use[Residential]": 0.198,
    "land_use[Greenspace]": -0.082,
    "land_use[Agricultural]": 0.019,
}

_ICAR_GIBBS_SWEEPS = 200


@dataclass
class SimulationTruth:
    """Hidden generating parameters plus the realized random-effect scales."""

    beta: dict
    sigma_theta2: float = 0.04
    tau_c: float = 1.0
    phi_mode: str = "icar"           # "icar" or "none"
    theta_target_sd: float = None    # rescale realized theta to this sd
    phi_target_sd: float = None      # rescale realized phi to this sd
    seed: int = None
    theta_sd_realized: float = None
    phi_sd_realized: float = None
    alpha_true: float = None

    def __post_init__(self):
        if not (isinstance(self.beta, dict) and all(map(_finite, self.beta.values()))):
            raise ValidationError("beta must map coefficient labels to finite numbers")
        for name in ("sigma_theta2", "tau_c"):
            value = getattr(self, name)
            if not (_finite(value) and value > 0):
                raise ValidationError(f"{name} must be finite and > 0, got {value!r}")
        for name in ("theta_target_sd", "phi_target_sd"):
            value = getattr(self, name)
            if value is not None and not (_finite(value) and value >= 0):
                raise ValidationError(f"{name} must be null or finite and >= 0, got {value!r}")
        if self.phi_mode not in ("icar", "none"):
            raise ValidationError(f"unknown phi_mode {self.phi_mode!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self, path=None) -> str:
        return dump_json(self.to_dict(), path)

    @classmethod
    def from_dict(cls, d: dict) -> "SimulationTruth":
        if "beta" not in d:
            raise ValidationError("truth is missing the 'beta' field")
        return cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})

    @classmethod
    def from_json(cls, path) -> "SimulationTruth":
        return load_json(path, cls.from_dict)


def default_truth(**overrides) -> SimulationTruth:
    """The standard recovery truth: reference coefficients with a spatially
    dominated random-effect mix."""
    kwargs = {"beta": dict(DEFAULT_TRUTH_BETA), "sigma_theta2": 0.04, "tau_c": 4.0,
              "phi_mode": "icar", "theta_target_sd": 0.1, "phi_target_sd": 0.4}
    kwargs.update(overrides)
    return SimulationTruth(**kwargs)


def generate_lattice(m: int) -> ZoneTopology:
    """M x M rook-adjacency zone lattice; every pair shares a 1 km boundary
    crossed by 2 lanes."""
    if m < 2:
        raise DomainError("lattice size must be at least 2")
    return ZoneTopology(zone_count=m * m,
                        neighbor_pairs=tuple((i, j, 1.0, 2) for i, j in _lattice_edges(m, m)))


def _lattice_edges(rows: int, cols: int) -> list:
    edges = []
    for r in range(rows):
        for c in range(cols):
            i = r * cols + c
            if c + 1 < cols:
                edges.append((i, i + 1))
            if r + 1 < rows:
                edges.append((i, i + cols))
    return edges


def _grid_shape(size: int) -> tuple:
    """(rows, cols) of the full rows of `_grid_graph(size)`."""
    rows = max(2, round(np.sqrt(size)))
    return rows, size // rows


def _grid_graph(size: int) -> RoadGraph:
    """Near-square lattice with exactly `size` nodes; a short final row is
    attached like any other lattice row."""
    rows, cols = _grid_shape(size)
    spare = size - rows * cols
    edges = _lattice_edges(rows, cols)
    # Spare nodes extend an extra partial row under the first `spare` columns.
    for k in range(spare):
        node = rows * cols + k
        edges.append((node, (rows - 1) * cols + k))
        if k > 0:
            edges.append((node, node - 1))
    return RoadGraph(node_count=size, edges=tuple(edges))


def _irregular_grid_graph(size: int, irregularity: float, rng) -> RoadGraph:
    """Lattice with a fraction of the parallel collector links removed.

    Row 0 plays the arterial and keeps all its links; removal candidates
    are the horizontal (collector-parallel) links of the other rows.
    """
    grid = _grid_graph(size)
    cols = _grid_shape(size)[1]
    horizontal = [idx for idx, (u, v, _) in enumerate(grid.edges) if v == u + 1 and u >= cols]
    n_remove = int(round(irregularity * len(horizontal)))
    if n_remove == 0:
        return grid
    for _ in range(100):
        removed = {horizontal[i] for i in rng.choice(len(horizontal), size=n_remove, replace=False)}
        graph = RoadGraph(node_count=size, edges=tuple(
            e for idx, e in enumerate(grid.edges) if idx not in removed))
        if graph.is_connected():
            return graph
    raise DomainError("could not remove collector links without disconnecting the graph")


def _lollipop_graph(size: int, rng) -> RoadGraph:
    """Short arterial trunk with dead-end local branches hanging off it."""
    trunk_len = max(3, size // 6)
    edges = [(i, i + 1) for i in range(trunk_len - 1)]
    _grow_branches(edges, trunk_len, size, range(trunk_len), rng)
    return RoadGraph(node_count=size, edges=tuple(edges))


def _grow_branches(edges, next_node, size, anchors, rng) -> None:
    """Append dead-end branches of one or two new nodes, numbered from
    next_node, each hung from a randomly drawn anchor, until there are size
    nodes."""
    while next_node < size:
        prev = anchors[int(rng.integers(0, len(anchors)))]
        for _ in range(int(rng.integers(1, 3))):
            if next_node >= size:
                break
            edges.append((prev, next_node))
            prev = next_node
            next_node += 1


def _mixed_graph(size: int, rng) -> RoadGraph:
    """Lattice grafted to a tree: a compact grid core with lollipop-style
    branches spreading from one edge of the core.  The core fraction is
    tuned so the class sits between the irregular grids and the lollipops."""
    core = max(4, int(size * 0.65))
    rows = max(2, round(np.sqrt(core)))
    cols = max(2, core // rows)
    core = rows * cols
    if core > size - 1:
        cols = max(2, cols - 1)
        core = rows * cols
    edges = _lattice_edges(rows, cols)
    _grow_branches(edges, core, size, [r * cols + (cols - 1) for r in range(rows)], rng)
    return RoadGraph(node_count=size, edges=tuple(edges))


def generate_pattern_network(pattern, size: int = 25, irregularity: float = 0.35,
                             seed: int = 0) -> RoadGraph:
    """Generate an idealized road network of one morphology class.

    Grid: near-square lattice.  IrregularGrid: lattice with a fraction of
    collector-parallel links deleted (connectivity preserved by redrawing).
    Mixed: grid core grafted to tree branches.  Lollipops: trunk path with
    dead-end branches.  All generators return exactly `size` nodes.
    """
    if isinstance(pattern, str):
        pattern = Pattern(pattern)
    if size < 9:
        raise DomainError("pattern networks need at least 9 nodes")
    rng = np.random.default_rng(seed)
    if pattern == Pattern.GRID:
        return _grid_graph(size)
    if pattern == Pattern.IRREGULAR_GRID:
        return _irregular_grid_graph(size, irregularity, rng)
    if pattern == Pattern.MIXED:
        return _mixed_graph(size, rng)
    if pattern == Pattern.LOLLIPOPS:
        return _lollipop_graph(size, rng)
    raise ValidationError(f"no generator for pattern {pattern!r}")


@lru_cache(maxsize=None)
def _calibrated_truncnorm(mean, sd, lo, hi):
    """Truncated normal whose truncated mean equals the target mean; a root
    search per call, so the few targets' results are kept."""
    def shifted_mean(loc):
        a, b = (lo - loc) / sd, (hi - loc) / sd
        return truncnorm.mean(a, b, loc=loc, scale=sd) - mean

    loc = brentq(shifted_mean, mean - 4 * sd, mean + 4 * sd, xtol=1e-10)
    a, b = (lo - loc) / sd, (hi - loc) / sd
    return a, b, loc, sd


def draw_covariates(n: int, rng) -> dict:
    """Draw the continuous covariate columns to the target moments."""
    out = {}
    for name, (mean, sd, lo, hi) in COVARIATE_TARGETS.items():
        a, b, loc, scale = _calibrated_truncnorm(mean, sd, lo, hi)
        out[name] = truncnorm.rvs(a, b, loc=loc, scale=scale, size=n, random_state=rng)
    return out


def sample_icar(W: ProximityMatrix, tau_c: float, rng,
                sweeps: int = _ICAR_GIBBS_SWEEPS) -> np.ndarray:
    """Approximate draw from the intrinsic CAR prior by Gibbs passes over
    the single-site conditionals, centered per component afterwards.

    The passes run on Python floats, and one call draws a pass's normals:
    the numbers one call per zone would draw, so the draw is the same bit
    for bit as a zone-by-zone loop over numpy scalars."""
    n = W.zone_count
    wplus = W.row_sums
    bounds, ids, weights = W.csr.indptr.tolist(), W.csr.indices.tolist(), W.csr.data.tolist()
    phi = rng.standard_normal(n) * 0.5
    phi[wplus == 0] = 0.0
    # Per zone with neighbours: its (neighbour, weight) list, w_i+,
    # sqrt(tau_c w_i+) and its id.
    sites = [(list(zip(ids[bounds[i]:bounds[i + 1]], weights[bounds[i]:bounds[i + 1]])),
              float(wplus[i]), float(np.sqrt(tau_c * wplus[i])), i)
             for i in range(n) if wplus[i] != 0]
    values = phi.tolist()
    for _ in range(sweeps):
        for (nbrs, wsum, root, i), z in zip(sites, rng.standard_normal(len(sites)).tolist()):
            m = 0.0
            for j, w in nbrs:
                m += w * values[j]
            values[i] = m / wsum + z / root
    phi = np.array(values)
    for members in W.components:
        phi[members] -= phi[members].mean()
    return phi


def _rescale(vec: np.ndarray, target_sd: float) -> np.ndarray:
    sd = vec.std(ddof=1) if vec.size > 1 else 0.0
    if target_sd is None or sd == 0:
        return vec
    return vec * (target_sd / sd)


def simulate_dataset(topology: ZoneTopology, truth: SimulationTruth = None, seed: int = 0):
    """Simulate one zone dataset from known parameters.

    Returns (records, truth) where the returned truth carries the realized
    random-effect standard deviations and the implied spatial share.
    """
    truth = truth if truth is not None else default_truth()
    rng = np.random.default_rng(seed)
    n = topology.zone_count

    cov = draw_covariates(n, rng)
    patterns = rng.choice([p.value for p, _ in PATTERN_SHARES], size=n,
                          p=[s for _, s in PATTERN_SHARES])
    land_uses = rng.choice([l.value for l, _ in LAND_USE_SHARES], size=n,
                           p=[s for _, s in LAND_USE_SHARES])

    theta = rng.standard_normal(n) * np.sqrt(truth.sigma_theta2)
    theta = _rescale(theta, truth.theta_target_sd)
    if truth.phi_mode == "icar":
        W = build_weights(topology, ADJACENCY)
        phi = sample_icar(W, truth.tau_c, rng)
        phi = _rescale(phi, truth.phi_target_sd)
    else:
        phi = np.zeros(n)

    # Design assembled through the same code path the fit uses.
    base_records = [
        ZoneRecord(zone_id=i, area_km2=float(cov["area_km2"][i]),
                   ln_production=float(cov["ln_production"][i]),
                   ln_attraction=float(cov["ln_attraction"][i]),
                   arterial_length_km=float(cov["arterial_length_km"][i]),
                   access_density=float(cov["access_density"][i]),
                   signal_density=float(cov["signal_density"][i]),
                   road_density=float(cov["road_density"][i]),
                   pattern=Pattern(patterns[i]), land_use=LandUse(land_uses[i]),
                   crash_count=0)
        for i in range(n)
    ]
    design = build_design(base_records, ModelSpec())
    missing = [lbl for lbl in design.labels if lbl not in truth.beta]
    if missing:
        raise ValidationError(f"truth beta is missing coefficients {missing}")
    beta = np.array([truth.beta[lbl] for lbl in design.labels])

    psi = design.matrix @ beta + theta + phi
    if not np.all(np.abs(psi) <= PSI_CLAMP):
        raise ValidationError(
            f"truth rejected: |psi| reaches {np.abs(psi).max():.2f}, "
            f"exp would overflow the count scale")
    y = rng.poisson(np.exp(psi))

    records = [replace(r, crash_count=int(y[i])) for i, r in enumerate(base_records)]

    sd_t = float(theta.std(ddof=1)) if n > 1 else 0.0
    sd_p = float(phi.std(ddof=1)) if n > 1 else 0.0
    realized = replace(truth, beta=dict(truth.beta), seed=seed, theta_sd_realized=sd_t,
                       phi_sd_realized=sd_p,
                       alpha_true=(sd_p / (sd_t + sd_p)) if sd_t + sd_p > 0 else None)
    return records, realized
