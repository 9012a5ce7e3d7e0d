"""Node betweenness, graph-level centralization, and road-network pattern classes.

Betweenness here counts ordered node pairs: the raw score of node i is
``sum over ordered pairs (j, k), j != k != i, of n_jk(i) / n_jk`` where
``n_jk`` is the number of shortest paths from j to k and ``n_jk(i)`` the
number of those passing through i.  The normalized per-node score divides
by ``(N-1)(N-2)``; the graph-level centralization divides the summed gap
to the maximum raw score by ``(N-1)^2 (N-2)``, the value attained by a
star, so a star graph scores exactly 1.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from .errors import (
    ConnectivityWarning,
    DomainError,
    ValidationError,
    entry_count,
    located,
    parse_count,
    scan_lines,
)

HOP_COUNT = "hop_count"
EDGE_LENGTH = "edge_length"
_METRICS = (HOP_COUNT, EDGE_LENGTH)

# Relative tolerance for shortest-path ties under the edge_length metric.
_TIE_RTOL = 1e-12

# Sources per vectorised Brandes block, and the entries of the neighbour table
# (sources x steps x max degree) built at a time: a block holds about
# 8 * _BLOCK * N + 10 * _TABLE numbers, or one step's table if that is larger.
_BLOCK = 64
_TABLE = 1 << 13


class Pattern(str, Enum):
    """Road-network morphology classes keyed to centralization intervals."""

    GRID = "Grid"
    IRREGULAR_GRID = "IrregularGrid"
    MIXED = "Mixed"
    LOLLIPOPS = "Lollipops"
    UNCLASSIFIABLE = "Unclassifiable"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Classification boundaries: contiguous half-open intervals covering [0, 1].
PATTERN_BOUNDS = (
    (0.0, 0.15, Pattern.GRID),
    (0.15, 0.30, Pattern.IRREGULAR_GRID),
    (0.30, 0.40, Pattern.MIXED),
    (0.40, 1.0, Pattern.LOLLIPOPS),
)


def _valid_length(length: float) -> bool:
    return math.isfinite(length) and length > 0


def _check_edge(e, node_count: int, seen: dict) -> tuple:
    """One edge as (u, v, length or None), checked against the node count and
    the undirected edges in seen, to which it is added."""
    if len(e) == 2:
        u, v = e
        length = None
    elif len(e) == 3:
        u, v, length = e
    else:
        raise ValidationError(f"edge {e!r} must be (u, v) or (u, v, length)")
    if u == v:
        raise ValidationError(f"self-loop on node {u} in edge {e!r}")
    for node in (u, v):
        if not (0 <= node < node_count):
            raise ValidationError(f"node id {node} out of range [0, {node_count}) in edge {e!r}")
    if length is not None and not _valid_length(length):
        raise ValidationError(f"length must be finite and positive in edge {e!r}")
    key = (min(u, v), max(u, v))
    if key in seen:
        raise ValidationError(f"duplicate undirected edge {key} in edge {e!r}")
    seen[key] = length
    return int(u), int(v), None if length is None else float(length)


@dataclass(frozen=True)
class RoadGraph:
    """Undirected road network: nodes are junctions, edges are road links.

    Parameters
    ----------
    node_count : int
        Number of nodes; ids are 0-based integers below this.
    edges : list of (u, v) or (u, v, length_km)
        Undirected edges.  Lengths, when given, must be finite and positive.
    """

    node_count: int
    edges: tuple = ()
    # Raw betweenness by metric, filled by _betweenness.
    _raw_cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.node_count < 1:
            raise ValidationError("node_count must be a positive integer")
        seen = {}
        norm = tuple(_check_edge(e, self.node_count, seen) for e in self.edges)
        object.__setattr__(self, "edges", norm)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        if self.node_count <= 1:
            return True
        adj = [[] for _ in range(self.node_count)]
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self.node_count


@dataclass
class CentralityResult:
    """Per-node scores, graph centralization, and the pattern class."""

    node_scores: np.ndarray
    graph_centralization: float
    pattern: Pattern
    connected: bool = True
    warnings: list = field(default_factory=list)


def _check_metric(metric: str) -> None:
    if metric not in _METRICS:
        raise ValidationError(f"unknown metric {metric!r}; expected one of {_METRICS}")


def _dag_table(dist, nbr, weight, deg, steps, forward):
    """(step, source, slot) state ids of each step's DAG predecessors (forward) or successors."""
    rows = np.arange(len(steps))[:, None] * dist.shape[1]
    slots = steps[:, :, None] * nbr.shape[1] + np.arange(deg[steps].max())
    ids = nbr.take(slots) + rows[:, :, None]
    here, there = dist.take(steps + rows)[:, :, None], dist.take(ids)
    near, far = (there, here) if forward else (here, there)
    with np.errstate(invalid="ignore"):  # inf - inf between unreached nodes
        on_dag = (near < far) & (np.abs(near + weight.take(slots) - far)
                                 <= _TIE_RTOL * np.maximum(far, 1.0))
    ids[~on_dag] = dist.size
    return ids.transpose(1, 0, 2)


def _raw_betweenness(graph: RoadGraph, metric: str) -> np.ndarray:
    """Ordered-pair betweenness by Brandes accumulation for a block of sources
    at once (Kepner & Gilbert's linear-algebra form).  Edge u -> v is on the
    shortest-path DAG of s when D[s,u] < D[s,v] and |D[s,u] + w - D[s,v]| <=
    _TIE_RTOL * max(1, D[s,v]); each source's nodes are visited in distance
    order, forward for path counts sigma and backward for dependencies."""
    n = graph.node_count
    raw = np.zeros(n)
    if not graph.edges:
        return raw
    u, v, length = zip(*graph.edges)
    length = np.array([1.0 if metric == HOP_COUNT or w is None else w for w in length] * 2)
    tail, head = np.array(u + v), np.array(v + u)
    dist_graph = csr_matrix((length, (tail, head)), shape=(n, n))
    # Row x of nbr and weight: x's neighbours and edge lengths, padded with NaN lengths.
    deg = np.bincount(head, minlength=n)
    by_head = np.argsort(head, kind="stable")
    at = head[by_head], np.arange(len(head)) - np.repeat(np.cumsum(deg) - deg, deg)
    nbr, weight = np.zeros((n, deg.max()), dtype=int), np.full((n, deg.max()), np.nan)
    nbr[at], weight[at] = tail[by_head], length[by_head]
    chunk = max(1, _TABLE // (min(n, _BLOCK) * deg.max()))
    spans = [slice(lo, lo + chunk) for lo in range(1, n, chunk)]
    for start in range(0, n, _BLOCK):
        sources = np.arange(start, min(start + _BLOCK, n))
        dist = shortest_path(dist_graph, unweighted=metric == HOP_COUNT, indices=sources)
        order = np.argsort(dist, axis=1, kind="stable")
        flat = order + n * np.arange(len(sources))[:, None]
        sigma = np.zeros(dist.size + 1)  # the last entry is the zero slot
        sigma[flat[:, 0]] = 1.0
        for s in spans:
            table = _dag_table(dist, nbr, weight, deg, order[:, s], forward=True)
            for x, pred in zip(flat[:, s].T, table):
                sigma[x] = np.add.reduce(sigma.take(pred), axis=1)
        inv = (1.0 / np.maximum(sigma, 1.0))[flat]  # unreached nodes have sigma 0
        acc, coef = np.zeros_like(sigma), np.zeros_like(sigma)  # delta/sigma, (1+delta)/sigma
        for s in reversed(spans):
            table = _dag_table(dist, nbr, weight, deg, order[:, s], forward=False)
            for x, succ, inv_x in zip(flat[:, s].T[::-1], table[::-1], inv[:, s].T[::-1]):
                acc[x] = a = np.add.reduce(coef.take(succ), axis=1)
                coef[x] = inv_x + a
        raw += (sigma * acc)[:-1].reshape(dist.shape).sum(axis=0)
    return raw


def _betweenness(graph: RoadGraph, metric: str) -> np.ndarray:
    """Raw betweenness of graph under metric, read-only: one Brandes pass per
    graph and metric, however many callers ask."""
    cache = graph._raw_cache
    if metric not in cache:
        raw = _raw_betweenness(graph, metric)
        raw.setflags(write=False)
        cache[metric] = raw
    return cache[metric]


def node_betweenness(graph: RoadGraph, metric: str = HOP_COUNT) -> np.ndarray:
    """Normalized betweenness of every node, counting ordered pairs.

    Pairs in different components contribute zero; a ConnectivityWarning is
    emitted for disconnected graphs.  Graphs with fewer than 3 nodes return
    all zeros.
    """
    _check_metric(metric)
    n = graph.node_count
    if n < 3:
        return np.zeros(n)
    if not graph.is_connected():
        warnings.warn("graph is disconnected; unreachable pairs contribute zero",
                      ConnectivityWarning, stacklevel=2)
    return _betweenness(graph, metric) / ((n - 1) * (n - 2))


def centralization_denominator(n: int) -> int:
    """Maximum of the centralization numerator over graphs with n nodes,
    attained by the star: n^3 - 4n^2 + 5n - 2 = (n-1)^2 (n-2)."""
    return n**3 - 4 * n**2 + 5 * n - 2


def graph_centralization(graph: RoadGraph, metric: str = HOP_COUNT,
                         variant: str = "unnormalized") -> float:
    """Graph-level betweenness centralization in [0, 1].

    The default ``unnormalized`` variant feeds raw ordered-pair scores into
    the numerator so that a star graph attains exactly 1.  The
    ``paper_literal`` variant uses normalized per-node scores instead, which
    caps the star at 1/((N-1)(N-2)); it exists for comparison only.
    """
    _check_metric(metric)
    _check_variant(variant)
    if graph.node_count < 3:
        raise DomainError("centralization undefined for graphs with fewer than 3 nodes")
    return _centralization(_betweenness(graph, metric), variant)


def _check_variant(variant: str) -> None:
    if variant not in ("unnormalized", "paper_literal"):
        raise ValidationError(f"unknown centralization variant {variant!r}")


def _centralization(raw: np.ndarray, variant: str) -> float:
    n = len(raw)
    if variant == "paper_literal":
        raw = raw / ((n - 1) * (n - 2))
    return float((raw.max() - raw).sum() / centralization_denominator(n))


def classify_pattern(centralization: float) -> Pattern:
    """Map a centralization value in [0, 1] to its pattern class."""
    if not 0.0 <= centralization <= 1.0:
        raise DomainError(f"centralization {centralization} outside [0, 1]")
    for lo, hi, pattern in PATTERN_BOUNDS:
        if lo <= centralization < hi:
            return pattern
    return Pattern.LOLLIPOPS  # centralization == 1.0


def adjacency_matrix(graph: RoadGraph) -> np.ndarray:
    """Dense symmetric 0/1 adjacency matrix with a zero diagonal."""
    a = np.zeros((graph.node_count, graph.node_count), dtype=int)
    for u, v, _ in graph.edges:
        a[u, v] = 1
        a[v, u] = 1
    return a


def analyze(graph: RoadGraph, metric: str = HOP_COUNT,
            variant: str = "unnormalized") -> CentralityResult:
    """Node scores, centralization, and pattern class in one pass."""
    n = graph.node_count
    if n < 3:
        raise DomainError("centralization undefined for graphs with fewer than 3 nodes")
    _check_metric(metric)
    _check_variant(variant)
    raw = _betweenness(graph, metric)
    connected = graph.is_connected()
    notes = [] if connected else ["graph is disconnected; unreachable pairs contributed zero"]
    centralization = _centralization(raw, variant)
    if variant == "paper_literal":
        pattern = Pattern.UNCLASSIFIABLE
        notes.append("pattern intervals are defined for the unnormalized variant only")
    else:
        pattern = classify_pattern(centralization)
    return CentralityResult(node_scores=raw / ((n - 1) * (n - 2)),
                            graph_centralization=centralization,
                            pattern=pattern, connected=connected, warnings=notes)


def _parse_edge(words) -> tuple:
    """One edge-list entry line as (u, v) or (u, v, length_km)."""
    if len(words) not in (2, 3):
        raise ValidationError(f"expected 'u v [length_km]', got {' '.join(words)!r}")
    if len(words) == 2:
        return int(words[0]), int(words[1])
    length = float(words[2])
    if not _valid_length(length):
        raise ValidationError(f"length must be a finite positive number, got {words[2]!r}")
    return int(words[0]), int(words[1]), length


def read_edge_list(path) -> RoadGraph:
    """Parse the edge-list text format.

    One edge per line ``u v [length_km]``; ``#`` starts a comment; blank
    lines are skipped.  An optional ``nodes N`` line fixes the node count,
    which otherwise is inferred as ``max id + 1``.
    """
    headers, edges, linenos = scan_lines(
        path, {"nodes": ("node count", parse_count)}, _parse_edge)
    node_count = entry_count(headers.get("nodes"), edges)
    if node_count < 1:
        raise ValidationError(f"{path}: no nodes found")
    try:
        return RoadGraph(node_count=node_count, edges=tuple(edges))
    except ValidationError as exc:
        raise located(path, linenos, edges,
                      lambda e, seen: _check_edge(e, node_count, seen), exc) from None


def write_edge_list(graph: RoadGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes {graph.node_count}\n")
        for u, v, length in graph.edges:
            if length is None:
                fh.write(f"{u} {v}\n")
            else:
                fh.write(f"{u} {v} {length!r}\n")
