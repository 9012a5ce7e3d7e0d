import numpy as np
import pytest

from tazcar import centrality
from tazcar.centrality import Pattern, RoadGraph
from tazcar.dataset import (
    DATASET_COLUMNS,
    LandUse,
    ZoneRecord,
    build_design,
    crash_counts,
    load_dataset,
    resolve_pattern,
    save_dataset,
    summarize,
)
from tazcar.errors import DataWarning, DomainError, ValidationError
from tazcar.model import ModelSpec


def make_record(zone_id=0, pattern=Pattern.GRID, land_use=LandUse.INDUSTRIAL,
                crash_count=5, **overrides):
    kwargs = dict(zone_id=zone_id, area_km2=3.0, ln_production=9.9, ln_attraction=9.8,
                  arterial_length_km=3.1, access_density=2.08, signal_density=1.74,
                  road_density=3.1, pattern=pattern, land_use=land_use,
                  crash_count=crash_count)
    kwargs.update(overrides)
    return ZoneRecord(**kwargs)


HEADER = ",".join(DATASET_COLUMNS)


def write_csv(tmp_path, rows):
    p = tmp_path / "zones.csv"
    p.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
    return p


GOOD_ROW = "0,3.0,9.9,9.8,3.1,2.08,1.74,3.1,Grid,Industrial,5"


class TestRecordValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError, match="crash_count"):
            make_record(crash_count=-1)

    def test_nonpositive_area_rejected(self):
        with pytest.raises(ValidationError, match="area"):
            make_record(area_km2=0.0)

    def test_nonfinite_covariate_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            make_record(ln_production=float("nan"))


class TestLoadDataset:
    def test_well_formed(self, tmp_path):
        rows = [GOOD_ROW,
                "1,2.0,9.5,9.4,2.5,1.5,1.2,2.8,Mixed,Residential,12",
                "2,4.0,10.0,9.9,4.0,3.0,2.0,3.5,Lollipops,Commercial,30"]
        loaded = load_dataset(write_csv(tmp_path, rows))
        assert loaded.ok
        assert len(loaded.records) == 3
        assert loaded.records[1].pattern == Pattern.MIXED

    def test_negative_count_row_rejected(self, tmp_path):
        rows = [GOOD_ROW, GOOD_ROW.replace(",5", ",-1").replace("0,", "1,", 1)]
        loaded = load_dataset(write_csv(tmp_path, rows))
        assert len(loaded.records) == 1
        assert len(loaded.errors) == 1
        assert "crash_count" in loaded.errors[0]

    def test_unknown_land_use_rejected(self, tmp_path):
        rows = [GOOD_ROW.replace("Industrial", "Parkland")]
        loaded = load_dataset(write_csv(tmp_path, rows))
        assert not loaded.records
        assert "land_use" in loaded.errors[0]

    def test_non_numeric_field_rejected(self, tmp_path):
        rows = [GOOD_ROW.replace("2.08", "two")]
        loaded = load_dataset(write_csv(tmp_path, rows))
        assert "non-numeric" in loaded.errors[0]

    def test_bad_rows_are_reported_at_their_line(self, tmp_path):
        rows = [GOOD_ROW, "1,2.0,9.5", GOOD_ROW + ",extra", "",
                GOOD_ROW.replace(",5", ",99999999999999999999")]
        p = write_csv(tmp_path, rows)
        loaded = load_dataset(p)
        assert len(loaded.records) == 1
        assert loaded.errors[0] == f"{p}:3: expected 11 fields, got 3"
        assert loaded.errors[1] == f"{p}:4: expected 11 fields, got 12"
        assert loaded.errors[2].startswith(f"{p}:6: zone 0: crash_count must be an integer")

    def test_non_utf8_rejected(self, tmp_path):
        p = tmp_path / "zones.csv"
        row = GOOD_ROW.replace("Grid", "Gr\xeffd")
        p.write_bytes((HEADER + "\n" + row + "\n").encode("latin-1"))
        with pytest.raises(ValidationError, match=f"^{p}: not UTF-8 text"):
            load_dataset(p)

    def test_missing_column_raises(self, tmp_path):
        p = tmp_path / "zones.csv"
        p.write_text("zone_id,area_km2\n0,3.0\n")
        with pytest.raises(ValidationError, match="missing columns"):
            load_dataset(p)

    def test_round_trip_bit_identical(self, tmp_path):
        records = [make_record(zone_id=i, access_density=2.08 + 0.1 * i,
                               crash_count=i * 3) for i in range(4)]
        p1 = tmp_path / "a.csv"
        save_dataset(records, p1)
        loaded = load_dataset(p1)
        p2 = tmp_path / "b.csv"
        save_dataset(loaded.records, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestBuildDesign:
    def test_base_levels_all_zero(self):
        design = build_design([make_record(), make_record(zone_id=1)])
        row = design.matrix[0]
        # intercept + 6 continuous + 9 dummies
        assert design.p == 16
        assert np.all(row[7:] == 0.0)

    def test_lollipops_dummy_position(self):
        design = build_design([make_record(pattern=Pattern.LOLLIPOPS), make_record(zone_id=1)])
        pattern_block = design.matrix[0][design.labels.index("pattern[IrregularGrid]"):][:3]
        assert pattern_block.tolist() == [0.0, 0.0, 1.0]

    def test_continuous_difference_passes_through(self):
        r1 = make_record(access_density=2.08)
        r2 = make_record(zone_id=1, access_density=3.08)
        design = build_design([r1, r2])
        diff = design.matrix[1] - design.matrix[0]
        j = design.labels.index("access_density")
        assert diff[j] == pytest.approx(1.0)
        assert np.all(np.delete(diff, j) == 0.0)

    def test_intercept_first(self):
        design = build_design([make_record(), make_record(zone_id=1)])
        assert design.labels[0] == "intercept"
        assert np.all(design.matrix[:, 0] == 1.0)

    def test_dummy_block_row_sums(self):
        records = [make_record(zone_id=i, pattern=p, land_use=l)
                   for i, (p, l) in enumerate(
                       [(Pattern.GRID, LandUse.INDUSTRIAL),
                        (Pattern.MIXED, LandUse.RESIDENTIAL),
                        (Pattern.LOLLIPOPS, LandUse.GREENSPACE)])]
        design = build_design(records)
        pat = [j for j, lbl in enumerate(design.labels) if lbl.startswith("pattern[")]
        land = [j for j, lbl in enumerate(design.labels) if lbl.startswith("land_use[")]
        for row in design.matrix:
            assert row[pat].sum() in (0.0, 1.0)
            assert row[land].sum() in (0.0, 1.0)

    def test_constant_column_warns(self):
        records = [make_record(zone_id=i) for i in range(3)]
        with pytest.warns(DataWarning, match="constant"):
            build_design(records)

    def test_unclassifiable_pattern_rejected(self):
        records = [make_record(pattern=Pattern.UNCLASSIFIABLE), make_record(zone_id=1)]
        with pytest.raises(ValidationError, match="Unclassifiable"):
            build_design(records)

    def test_standardize_flag(self):
        records = [make_record(zone_id=i, access_density=1.0 + i) for i in range(5)]
        design = build_design(records, ModelSpec(standardize=True))
        j = design.labels.index("access_density")
        col = design.matrix[:, j]
        assert col.mean() == pytest.approx(0.0, abs=1e-12)
        assert col.std(ddof=1) == pytest.approx(1.0)
        assert design.col_sds[j] == pytest.approx(np.std([1, 2, 3, 4, 5], ddof=1))

    def test_offset_flag_moves_arterial_length(self):
        records = [make_record(zone_id=i, access_density=1.0 + i) for i in range(3)]
        design = build_design(records, ModelSpec(offset_log_arterial_length=True))
        assert "arterial_length_km" not in design.labels
        np.testing.assert_allclose(design.offset, np.log(3.1))

    def test_unknown_covariate(self):
        with pytest.raises(ValidationError, match="unknown covariate"):
            build_design([make_record()], ModelSpec(covariates=("speed_limit",)))


class TestResolvePattern:
    def test_explicit_wins_with_warning(self):
        star = RoadGraph(6, tuple((0, i) for i in range(1, 6)))
        record = make_record(pattern=Pattern.GRID)
        with pytest.warns(DataWarning, match="differs"):
            assert resolve_pattern(record, star) == Pattern.GRID

    def test_computed_fills_unclassifiable(self):
        star = RoadGraph(6, tuple((0, i) for i in range(1, 6)))
        record = make_record(pattern=Pattern.UNCLASSIFIABLE)
        assert resolve_pattern(record, star) == Pattern.LOLLIPOPS

    def test_no_graph_keeps_value(self):
        assert resolve_pattern(make_record(pattern=Pattern.MIXED)) == Pattern.MIXED

    def test_one_brandes_pass(self, monkeypatch):
        calls = []
        inner = centrality._raw_betweenness
        monkeypatch.setattr(centrality, "_raw_betweenness",
                            lambda graph, metric: calls.append(metric) or inner(graph, metric))
        star = RoadGraph(6, tuple((0, i) for i in range(1, 6)))
        record = make_record(pattern=Pattern.UNCLASSIFIABLE)
        assert resolve_pattern(record, star) == Pattern.LOLLIPOPS
        assert calls == ["hop_count"]

    def test_reuses_the_pass_analyze_made(self, monkeypatch):
        # the zone pipeline: analyze under both metrics, then resolve_pattern
        # on the same graph reads the hop-count scores analyze left
        calls = []
        inner = centrality._raw_betweenness
        monkeypatch.setattr(centrality, "_raw_betweenness",
                            lambda graph, metric: calls.append(metric) or inner(graph, metric))
        star = RoadGraph(6, tuple((0, i, 1.0) for i in range(1, 6)))
        results = [centrality.analyze(star, metric) for metric in ("hop_count", "edge_length")]
        record = make_record(pattern=Pattern.UNCLASSIFIABLE)
        assert resolve_pattern(record, star) == results[0].pattern == Pattern.LOLLIPOPS
        assert calls == ["hop_count", "edge_length"]


class TestSummarize:
    def test_basic_stats(self):
        records = [make_record(zone_id=i, access_density=v) for i, v in enumerate((1.0, 2.0, 3.0))]
        stats = summarize(records)
        assert stats["access_density"]["mean"] == pytest.approx(2.0)
        assert stats["access_density"]["sd"] == pytest.approx(1.0)

    def test_constant_column_sd_zero(self):
        records = [make_record(zone_id=i) for i in range(3)]
        assert summarize(records)["signal_density"]["sd"] == 0.0

    def test_too_few_records(self):
        with pytest.raises(DomainError, match="fewer than 2"):
            summarize([make_record()])


def test_crash_counts():
    records = [make_record(crash_count=3), make_record(zone_id=1, crash_count=7)]
    assert crash_counts(records).tolist() == [3, 7]
