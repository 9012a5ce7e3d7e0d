"""Zone proximity matrices for the CAR spatial prior.

Three weighting modes over the same zone topology: 0/1 first-order
adjacency, shared boundary length in km, and total lane count of the
arterials connecting each adjacent pair.  Matrices are stored as sparse
coordinate triples with a dense export, and derive once the graph that the
spatial prior, its sampler and the ICAR simulator read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import ValidationError, entry_count, lines, located, parse_count, scan_lines

ADJACENCY = "adjacency"
BOUNDARY_LENGTH = "boundary_length"
LANE_COUNT = "lane_count"
MODES = (ADJACENCY, BOUNDARY_LENGTH, LANE_COUNT)


@dataclass(frozen=True)
class ZoneTopology:
    """Zone adjacency structure with per-pair boundary lengths and lane counts.

    neighbor_pairs holds (zone_i, zone_j, boundary_length_km, lanes) tuples;
    each unordered pair appears at most once and a listed pair is adjacent,
    so its boundary length must be positive.  Lane counts may be zero.
    """

    zone_count: int
    neighbor_pairs: tuple = ()

    def __post_init__(self):
        if self.zone_count < 1:
            raise ValidationError("zone_count must be a positive integer")
        seen = {}
        norm = tuple(_check_pair(p, self.zone_count, seen) for p in self.neighbor_pairs)
        object.__setattr__(self, "neighbor_pairs", norm)


def _check_pair(pair, zone_count: int, seen: dict) -> tuple:
    """One topology pair as (a, b, boundary_km, lanes) with a < b, checked
    against the zone count and the pairs in seen, to which it is added with
    its attributes."""
    if len(pair) != 4:
        raise ValidationError(f"pair {pair!r} must be (i, j, boundary_km, lanes)")
    i, j, boundary, lanes = pair
    if i == j:
        raise ValidationError(f"zone {i} paired with itself")
    for z in (i, j):
        if not (0 <= z < zone_count):
            raise ValidationError(f"zone id {z} out of range [0, {zone_count}) in pair {pair!r}")
    if not (math.isfinite(boundary) and boundary > 0):
        raise ValidationError(
            f"pair ({i}, {j}) listed as adjacent but boundary length is {boundary}")
    if lanes < 0 or int(lanes) != lanes:
        raise ValidationError(f"pair ({i}, {j}) has invalid lane count {lanes}")
    key = (min(i, j), max(i, j))
    attrs = (float(boundary), int(lanes))
    if key in seen:
        if seen[key] != attrs:
            raise ValidationError(
                f"pair {key} listed twice with conflicting attributes {seen[key]} vs {attrs}")
        raise ValidationError(f"pair {key} listed twice")
    seen[key] = attrs
    return key + attrs


def _check_triple(triple, zone_count: int, seen: dict) -> tuple:
    """One weight entry as (a, b, w) with a < b, checked against the zone
    count and the pairs in seen, to which it is added."""
    i, j, w = triple
    if i == j:
        raise ValidationError(f"diagonal entry ({i}, {i}) not allowed")
    for z in (i, j):
        if not (0 <= z < zone_count):
            raise ValidationError(f"zone id {z} out of range [0, {zone_count}) in pair ({i}, {j})")
    if not (math.isfinite(w) and w >= 0):
        raise ValidationError(f"weight {w} on pair ({i}, {j}) must be finite and >= 0")
    a, b = (i, j) if i < j else (j, i)
    if (a, b) in seen:
        raise ValidationError(f"pair ({a}, {b}) appears twice")
    seen[a, b] = w
    return int(a), int(b), float(w)


@dataclass(frozen=True)
class ProximityMatrix:
    """Symmetric nonnegative zone-by-zone weight matrix and the graph it
    defines.

    Entries are kept as upper-triangle coordinate triples (i, j, w) with
    i < j and w > 0.  Construction derives what the CAR prior and its
    sampler read: the triples as read-only edge arrays (i, j, w), the
    symmetric CSR form, row sums w_i+, the component labels (numbered in
    order of each component's smallest zone; an island is a component of
    its own) and the member zones of each component that has edges.  The
    greedy colouring is built on first use and kept; the matrix is frozen
    so that none of these can go stale.
    """

    zone_count: int
    mode: str
    triples: tuple = ()
    edges: tuple = field(init=False, compare=False, repr=False)
    csr: sp.csr_matrix = field(init=False, compare=False, repr=False)
    row_sums: np.ndarray = field(init=False, compare=False, repr=False)
    component_labels: np.ndarray = field(init=False, compare=False, repr=False)
    component_count: int = field(init=False, compare=False, repr=False)
    components: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"unknown proximity mode {self.mode!r}; expected {MODES}")
        n = self.zone_count
        sums = np.zeros(n)
        seen = {}
        norm = []
        for triple in self.triples:
            a, b, w = _check_triple(triple, n, seen)
            if w > 0:
                norm.append((a, b, w))
                sums[a] += w
                sums[b] += w
        triples = tuple(sorted(norm))
        if triples:
            ei, ej, ew = (np.array(column) for column in zip(*triples))
        else:
            ei, ej, ew = np.zeros(0, dtype=int), np.zeros(0, dtype=int), np.zeros(0)
        csr = sp.csr_matrix(
            (np.concatenate([ew, ew]), (np.concatenate([ei, ej]), np.concatenate([ej, ei]))),
            shape=(n, n)) if len(ew) else sp.csr_matrix((n, n))
        count, labels = csgraph.connected_components(csr, directed=False)
        labels = labels.astype(int)
        # Members of each component, ascending; a component of two or more
        # zones is one with edges.
        order = np.argsort(labels, kind="stable")
        for a in (ei, ej, ew, order):
            a.flags.writeable = False
        groups = np.split(order, np.cumsum(np.bincount(labels))[:-1])
        for name, value in (("triples", triples), ("row_sums", sums), ("edges", (ei, ej, ew)),
                            ("csr", csr), ("component_labels", labels),
                            ("component_count", int(count)),
                            ("components", tuple(g for g in groups if g.size > 1))):
            object.__setattr__(self, name, value)

    @property
    def islands(self) -> list:
        """Zones with zero total weight."""
        return [int(i) for i in np.flatnonzero(self.row_sums == 0)]

    @property
    def has_islands(self) -> bool:
        return bool((self.row_sums == 0).any())

    @cached_property
    def coloring(self) -> list:
        """Greedy colouring of the zones with neighbours: classes in which no
        two members are neighbours, each as (members, neighbour ids, weights)
        with one column per member, padded with weight 0."""
        csr = self.csr
        color = np.full(self.zone_count, -1, dtype=int)
        for u in np.flatnonzero(self.row_sums > 0):
            used = set(color[csr.indices[csr.indptr[u]:csr.indptr[u + 1]]])
            c = 0
            while c in used:
                c += 1
            color[u] = c
        return [(members, *_padded_neighbors(csr, members))
                for members in (np.flatnonzero(color == c) for c in range(color.max() + 1))]

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.zone_count, self.zone_count))
        for i, j, w in self.triples:
            m[i, j] = w
            m[j, i] = w
        return m


def _padded_neighbors(csr, members):
    """Neighbour ids and weights of the members, one column per member,
    padded with weight 0: shapes (max degree, len(members))."""
    rows = csr[members]
    deg = np.diff(rows.indptr)
    nbr = np.zeros((max(int(deg.max()), 1), len(members)), dtype=int)
    weight = np.zeros(nbr.shape)
    owner = np.repeat(np.arange(len(members)), deg)
    slot = np.arange(rows.nnz) - rows.indptr[owner]
    nbr[slot, owner] = rows.indices
    weight[slot, owner] = rows.data
    return nbr, weight


def build_weights(topology: ZoneTopology, mode: str = ADJACENCY) -> ProximityMatrix:
    """Build the proximity matrix for one weighting mode.

    adjacency: 1 on every listed pair.  boundary_length: the shared boundary
    in km.  lane_count: total lanes of the connecting arterials; pairs with
    zero lanes get weight zero and drop out of the neighborhood in that mode.
    """
    if mode not in MODES:
        raise ValidationError(f"unknown proximity mode {mode!r}; expected {MODES}")
    triples = []
    for i, j, boundary, lanes in topology.neighbor_pairs:
        if mode == ADJACENCY:
            w = 1.0
        elif mode == BOUNDARY_LENGTH:
            w = boundary
        else:
            w = float(lanes)
        triples.append((i, j, w))
    return ProximityMatrix(zone_count=topology.zone_count, mode=mode, triples=tuple(triples))


_ZONES = {"zones": ("zone count", parse_count)}


def _parse_pair(words) -> tuple:
    """One topology entry line as (i, j, boundary_km, lanes)."""
    if len(words) != 4:
        raise ValidationError(f"expected 'i j boundary_km lanes', got {' '.join(words)!r}")
    return int(words[0]), int(words[1]), float(words[2]), int(words[3])


def read_topology(path) -> ZoneTopology:
    """Parse the zone-topology text format: a ``zones N`` header line then
    one ``i j boundary_km lanes`` line per adjacent pair."""
    headers, pairs, linenos = scan_lines(path, _ZONES, _parse_pair)
    if "zones" not in headers:
        raise ValidationError(f"{path}: missing 'zones N' header")
    zone_count = headers["zones"]
    try:
        return ZoneTopology(zone_count=zone_count, neighbor_pairs=tuple(pairs))
    except ValidationError as exc:
        raise located(path, linenos, pairs,
                      lambda p, seen: _check_pair(p, zone_count, seen), exc) from None


def write_topology(topology: ZoneTopology, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"zones {topology.zone_count}\n")
        for i, j, boundary, lanes in topology.neighbor_pairs:
            fh.write(f"{i} {j} {boundary!r} {lanes}\n")


_MATRIX_HEADERS = dict(_ZONES, mode=("mode", str))


def _parse_triple(words) -> tuple:
    """One weight-matrix entry line as (i, j, w)."""
    if len(words) != 3:
        raise ValidationError(f"expected 'i j w', got {' '.join(words)!r}")
    return int(words[0]), int(words[1]), float(words[2])


def read_weight_matrix(path) -> ProximityMatrix:
    """Parse the weight-matrix text format: optional ``zones N`` and
    ``mode NAME`` headers, then upper-triangle ``i j w`` lines (symmetric
    completion implied)."""
    headers, triples, linenos = scan_lines(path, _MATRIX_HEADERS, _parse_triple)
    zone_count = entry_count(headers.get("zones"), triples)
    if zone_count < 1:
        raise ValidationError(f"{path}: no zones found")
    try:
        return ProximityMatrix(zone_count=zone_count, mode=headers.get("mode", ADJACENCY),
                               triples=tuple(triples))
    except ValidationError as exc:
        raise located(path, linenos, triples,
                      lambda t, seen: _check_triple(t, zone_count, seen), exc) from None


def _read_weights(path, mode: str) -> ProximityMatrix:
    """A ``fit --weights`` file: a zone topology, weighted in ``mode``, when
    its first entry line has 4 fields; otherwise a weight matrix (3 fields,
    or no entries)."""
    widths = (len(words) for _, words in lines(path) if words[0] not in _MATRIX_HEADERS)
    if next(widths, 3) == 4:
        return build_weights(read_topology(path), mode)
    return read_weight_matrix(path)


def write_weight_matrix(matrix: ProximityMatrix, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"zones {matrix.zone_count}\n")
        fh.write(f"mode {matrix.mode}\n")
        for i, j, w in matrix.triples:
            fh.write(f"{i} {j} {w!r}\n")
