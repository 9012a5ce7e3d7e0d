"""Zone-level analysis dataset and the dummy-coded regression design matrix.

A ZoneRecord holds one zone's covariates, its road-network pattern class,
its dominant land-use class, and the count of crashes on the arterials
within the zone (not the zone-total count).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .centrality import Pattern, RoadGraph, classify_pattern, graph_centralization
from .errors import DataWarning, DomainError, ValidationError

class LandUse(str, Enum):
    INDUSTRIAL = "Industrial"
    COMMERCIAL = "Commercial"
    EDUCATIONAL = "Educational"
    TECHNICAL = "Technical"
    RESIDENTIAL = "Residential"
    GREENSPACE = "Greenspace"
    AGRICULTURAL = "Agricultural"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


# Non-base factor levels in reporting order.
PATTERN_LEVELS = (Pattern.IRREGULAR_GRID, Pattern.MIXED, Pattern.LOLLIPOPS)
LAND_USE_LEVELS = (LandUse.COMMERCIAL, LandUse.EDUCATIONAL, LandUse.TECHNICAL,
                   LandUse.RESIDENTIAL, LandUse.GREENSPACE, LandUse.AGRICULTURAL)

CONTINUOUS_COVARIATES = ("ln_production", "ln_attraction", "arterial_length_km",
                         "access_density", "signal_density", "road_density")

DATASET_COLUMNS = ("zone_id", "area_km2", "ln_production", "ln_attraction",
                   "arterial_length_km", "access_density", "signal_density",
                   "road_density", "pattern", "land_use", "crash_count")

SUMMARY_COVARIATES = ("area_km2",) + CONTINUOUS_COVARIATES

# Counts are held as 64-bit integers.
MAX_CRASH_COUNT = np.iinfo(np.int64).max


@dataclass(frozen=True)
class ZoneRecord:
    zone_id: int
    area_km2: float
    ln_production: float
    ln_attraction: float
    arterial_length_km: float
    access_density: float
    signal_density: float
    road_density: float
    pattern: Pattern
    land_use: LandUse
    crash_count: int

    def __post_init__(self):
        for name in ("area_km2", "arterial_length_km"):
            if not getattr(self, name) > 0:
                raise ValidationError(f"zone {self.zone_id}: {name} must be > 0")
        for name in ("ln_production", "ln_attraction"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"zone {self.zone_id}: {name} must be finite")
        for name in ("access_density", "signal_density", "road_density"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValidationError(f"zone {self.zone_id}: {name} must be >= 0")
        if not (0 <= self.crash_count <= MAX_CRASH_COUNT
                and int(self.crash_count) == self.crash_count):
            raise ValidationError(f"zone {self.zone_id}: crash_count must be an integer "
                                  f"in [0, {MAX_CRASH_COUNT}]")


@dataclass
class DesignMatrix:
    """Intercept-first regression design with labeled columns.

    Base levels never produce a column: pattern Grid and land use Industrial
    map to all-zero dummy blocks.  When ``standardized`` is set the
    continuous columns are z-scored and col_means/col_sds carry the
    back-transform (intercept and dummies keep mean 0 / sd 1 placeholders).
    """

    matrix: np.ndarray
    labels: tuple
    standardized: bool = False
    col_means: np.ndarray = None
    col_sds: np.ndarray = None
    offset: np.ndarray = None

    def __post_init__(self):
        if self.matrix.ndim != 2 or self.matrix.shape[1] != len(self.labels):
            raise ValidationError("design matrix shape does not match labels")
        if self.labels[0] != "intercept" or not np.all(self.matrix[:, 0] == 1.0):
            raise ValidationError("column 0 must be an all-ones intercept")
        if self.col_means is None:
            self.col_means = np.zeros(len(self.labels))
        if self.col_sds is None:
            self.col_sds = np.ones(len(self.labels))

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


@dataclass
class LoadedDataset:
    """Validated records plus the row-level error report."""

    records: list
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors


def _parse_row(row: dict) -> ZoneRecord:
    def num(name, caster=float):
        raw = row[name].strip()
        try:
            return caster(raw)
        except ValueError:
            raise ValidationError(f"non-numeric {name} {raw!r}") from None

    pattern_token = row["pattern"].strip()
    try:
        pattern = Pattern(pattern_token)
    except ValueError:
        raise ValidationError(f"unknown pattern {pattern_token!r}") from None
    land_token = row["land_use"].strip()
    try:
        land_use = LandUse(land_token)
    except ValueError:
        raise ValidationError(f"unknown land_use {land_token!r}") from None
    return ZoneRecord(
        zone_id=num("zone_id", int),
        area_km2=num("area_km2"),
        ln_production=num("ln_production"),
        ln_attraction=num("ln_attraction"),
        arterial_length_km=num("arterial_length_km"),
        access_density=num("access_density"),
        signal_density=num("signal_density"),
        road_density=num("road_density"),
        pattern=pattern,
        land_use=land_use,
        crash_count=num("crash_count", int),
    )


def load_dataset(path) -> LoadedDataset:
    """Load a comma-delimited dataset with the fixed named header.

    Structural problems (missing file, text that is not UTF-8, malformed
    CSV, missing columns) raise; individual bad rows, rows with the wrong
    number of fields among them, are collected into the error report at
    path:line and skipped.  Blank lines are skipped.
    """
    records, errors = [], []
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path}: empty file")
            header = [name.strip() for name in header]
            missing = [c for c in DATASET_COLUMNS if c not in header]
            if missing:
                raise ValidationError(f"{path}: missing columns {missing}")
            for fields in reader:
                if not fields:
                    continue
                try:
                    if len(fields) != len(header):
                        raise ValidationError(f"expected {len(header)} fields, got {len(fields)}")
                    records.append(_parse_row(dict(zip(header, fields))))
                except ValidationError as exc:
                    errors.append(f"{path}:{reader.line_num}: {exc}")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}") from None
    return LoadedDataset(records=records, errors=errors)


def save_dataset(records, path) -> None:
    """Write records in the canonical dataset format.

    Floats are written with repr so that load followed by save reproduces a
    canonical file byte for byte.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(DATASET_COLUMNS)
        for r in records:
            writer.writerow([
                r.zone_id, repr(float(r.area_km2)), repr(float(r.ln_production)),
                repr(float(r.ln_attraction)), repr(float(r.arterial_length_km)),
                repr(float(r.access_density)), repr(float(r.signal_density)),
                repr(float(r.road_density)), r.pattern.value, r.land_use.value,
                int(r.crash_count),
            ])


def resolve_pattern(record: ZoneRecord, graph: RoadGraph = None) -> Pattern:
    """Pattern precedence: an explicit record value wins over a computed one;
    a mismatch against the attached graph emits a warning."""
    if graph is None:
        return record.pattern
    computed = classify_pattern(graph_centralization(graph))
    if record.pattern == Pattern.UNCLASSIFIABLE:
        return computed
    if computed != record.pattern:
        warnings.warn(
            f"zone {record.zone_id}: stated pattern {record.pattern.value} differs "
            f"from computed {computed.value}; keeping the stated value",
            DataWarning, stacklevel=2)
    return record.pattern


def crash_counts(records) -> np.ndarray:
    return np.array([r.crash_count for r in records], dtype=int)


def build_design(records, spec=None) -> DesignMatrix:
    """Assemble the dummy-coded design matrix for a ModelSpec.

    Columns: intercept, then the ModelSpec's continuous covariates in
    order, then 3 pattern dummies and 6 land-use dummies when those
    factors are included.  Continuous covariates enter in raw units
    unless the ModelSpec's standardize flag is set.
    """
    from .model import ModelSpec  # deferred: model imports nothing from here

    if spec is None:
        spec = ModelSpec()
    if not isinstance(spec, ModelSpec):
        raise ValidationError("spec must be a ModelSpec")
    if not records:
        raise ValidationError("no records to build a design from")
    known = {f.name for f in fields(ZoneRecord)}
    for name in spec.covariates:
        if name not in known:
            raise ValidationError(f"unknown covariate {name!r}")
    bad = [r.zone_id for r in records if r.pattern == Pattern.UNCLASSIFIABLE]
    if spec.include_pattern and bad:
        raise ValidationError(f"zones {bad} have Unclassifiable pattern; cannot dummy-code")

    n = len(records)
    columns = [np.ones(n)]
    labels = ["intercept"]
    for name in spec.covariates:
        col = np.array([float(getattr(r, name)) for r in records])
        if n > 1 and np.ptp(col) == 0.0:
            warnings.warn(f"covariate {name} is constant across all zones",
                          DataWarning, stacklevel=2)
        columns.append(col)
        labels.append(name)
    if spec.include_pattern:
        for level in PATTERN_LEVELS:
            columns.append(np.array([1.0 if r.pattern == level else 0.0 for r in records]))
            labels.append(f"pattern[{level.value}]")
    if spec.include_land_use:
        for level in LAND_USE_LEVELS:
            columns.append(np.array([1.0 if r.land_use == level else 0.0 for r in records]))
            labels.append(f"land_use[{level.value}]")

    matrix = np.column_stack(columns)
    p = matrix.shape[1]
    means = np.zeros(p)
    sds = np.ones(p)
    if spec.standardize:
        for j, name in enumerate(labels):
            if name in spec.covariates:
                mu, sd = matrix[:, j].mean(), matrix[:, j].std(ddof=1)
                if sd > 0:
                    matrix[:, j] = (matrix[:, j] - mu) / sd
                    means[j], sds[j] = mu, sd

    offset = None
    if spec.offset_log_arterial_length:
        # Experimental exposure treatment: log arterial length enters with a
        # fixed unit coefficient and leaves the covariate list.
        if "arterial_length_km" in labels:
            j = labels.index("arterial_length_km")
            matrix = np.delete(matrix, j, axis=1)
            labels.pop(j)
            means = np.delete(means, j)
            sds = np.delete(sds, j)
        offset = np.log(np.array([r.arterial_length_km for r in records]))

    return DesignMatrix(matrix=matrix, labels=tuple(labels), standardized=spec.standardize,
                        col_means=means, col_sds=sds, offset=offset)


def summarize(records) -> dict:
    """Per-covariate mean/min/max/sd with the unbiased (n-1) sd."""
    if len(records) < 2:
        raise DomainError("summary sd undefined for fewer than 2 records")
    out = {}
    for name in SUMMARY_COVARIATES:
        col = np.array([float(getattr(r, name)) for r in records])
        out[name] = {
            "mean": float(col.mean()),
            "min": float(col.min()),
            "max": float(col.max()),
            "sd": float(col.std(ddof=1)),
        }
    return out
