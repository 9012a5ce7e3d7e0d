import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tazcar.centrality import read_edge_list
from tazcar.errors import ValidationError
from tazcar.weights import (
    ADJACENCY,
    BOUNDARY_LENGTH,
    LANE_COUNT,
    MODES,
    ProximityMatrix,
    ZoneTopology,
    build_weights,
    read_topology,
    read_weight_matrix,
    write_topology,
    write_weight_matrix,
)

from oracles import union_find_components


def chain_topology():
    # zones 0-1-2 in a line
    return ZoneTopology(3, ((0, 1, 2.5, 4), (1, 2, 1.5, 0)))


class TestTopologyValidation:
    def test_self_pair_rejected(self):
        with pytest.raises(ValidationError, match="itself"):
            ZoneTopology(3, ((1, 1, 1.0, 2),))

    def test_zero_boundary_rejected(self):
        with pytest.raises(ValidationError, match="boundary"):
            ZoneTopology(3, ((0, 1, 0.0, 2),))

    def test_conflicting_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="conflicting"):
            ZoneTopology(3, ((0, 1, 1.0, 2), (1, 0, 2.0, 2)))

    def test_plain_duplicate_rejected(self):
        with pytest.raises(ValidationError, match="twice"):
            ZoneTopology(3, ((0, 1, 1.0, 2), (1, 0, 1.0, 2)))

    def test_out_of_range_zone(self):
        with pytest.raises(ValidationError, match="out of range"):
            ZoneTopology(2, ((0, 2, 1.0, 2),))


class TestBuildWeights:
    def test_adjacency_entries(self):
        m = build_weights(chain_topology(), ADJACENCY)
        dense = m.to_dense()
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert dense[0, 2] == 0.0

    def test_boundary_entries(self):
        m = build_weights(chain_topology(), BOUNDARY_LENGTH)
        assert m.to_dense()[0, 1] == 2.5

    def test_lane_entries_and_zero_lane_dropout(self):
        m = build_weights(chain_topology(), LANE_COUNT)
        dense = m.to_dense()
        assert dense[0, 1] == 6.0 or dense[0, 1] == 4.0
        # pair (1, 2) has zero lanes: not a neighbor in this mode
        assert dense[1, 2] == 0.0
        assert 2 in m.islands

    def test_lane_sum_is_total_of_connecting_arterials(self):
        # 4 + 2 lanes over two arterials recorded as 6
        t = ZoneTopology(2, ((0, 1, 1.0, 6),))
        assert build_weights(t, LANE_COUNT).to_dense()[0, 1] == 6.0

    def test_unknown_mode(self):
        with pytest.raises(ValidationError, match="mode"):
            build_weights(chain_topology(), "queen")


class TestRowSums:
    def test_chain_adjacency(self):
        m = build_weights(chain_topology(), ADJACENCY)
        assert m.row_sums.tolist() == [1.0, 2.0, 1.0]

    def test_boundary_chain(self):
        m = build_weights(chain_topology(), BOUNDARY_LENGTH)
        assert m.row_sums.tolist() == [2.5, 4.0, 1.5]

    def test_all_isolated(self):
        m = ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=())
        assert m.row_sums.tolist() == [0.0, 0.0, 0.0]
        assert m.has_islands
        assert m.islands == [0, 1, 2]


class TestConnectedComponents:
    def test_chain_single_component(self):
        m = build_weights(chain_topology())
        assert m.component_count == 1
        assert len(set(m.component_labels.tolist())) == 1

    def test_two_disjoint_pairs(self):
        t = ZoneTopology(4, ((0, 1, 1.0, 2), (2, 3, 1.0, 2)))
        assert build_weights(t).component_count == 2

    def test_island_among_connected(self):
        t = ZoneTopology(4, ((0, 1, 1.0, 2), (1, 2, 1.0, 2)))
        m = build_weights(t)
        assert m.component_count == 2
        assert m.islands == [3]


@st.composite
def topologies(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    pairs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12))
    seen = set()
    rows = []
    for i, j in pairs:
        if i == j:
            continue
        key = (min(i, j), max(i, j))
        if key in seen:
            continue
        seen.add(key)
        boundary = draw(st.floats(min_value=0.1, max_value=9.0, allow_nan=False))
        lanes = draw(st.integers(min_value=0, max_value=8))
        rows.append((key[0], key[1], boundary, lanes))
    return ZoneTopology(n, tuple(rows))


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(topologies(), st.sampled_from(MODES))
    def test_symmetric_zero_diagonal(self, topology, mode):
        dense = build_weights(topology, mode).to_dense()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0.0)
        assert np.all(dense >= 0.0)

    @settings(max_examples=50, deadline=None)
    @given(topologies())
    def test_adjacency_binary_and_support_match(self, topology):
        adj = build_weights(topology, ADJACENCY).to_dense()
        boundary = build_weights(topology, BOUNDARY_LENGTH).to_dense()
        lanes = build_weights(topology, LANE_COUNT).to_dense()
        assert set(np.unique(adj)) <= {0.0, 1.0}
        # boundary support equals adjacency support
        assert np.array_equal(boundary > 0, adj > 0)
        # lane support is a subset (zero-lane pairs drop out)
        assert np.all((lanes > 0) <= (adj > 0))

    @settings(max_examples=30, deadline=None)
    @given(topologies(), st.floats(min_value=0.1, max_value=10.0))
    def test_boundary_scaling(self, topology, c):
        scaled = ZoneTopology(topology.zone_count,
                              tuple((i, j, b * c, l) for i, j, b, l in topology.neighbor_pairs))
        m1 = build_weights(topology, BOUNDARY_LENGTH)
        m2 = build_weights(scaled, BOUNDARY_LENGTH)
        np.testing.assert_allclose(m2.to_dense(), m1.to_dense() * c, rtol=1e-12)
        np.testing.assert_allclose(m2.row_sums, m1.row_sums * c, rtol=1e-12)


@st.composite
def weight_triples(draw):
    """Random upper-triangle triples in which zero weights and islands are common."""
    n = draw(st.integers(min_value=1, max_value=12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=14, unique_by=lambda p: (min(p), max(p))))
    triples = tuple((min(i, j), max(i, j), draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])))
                    for i, j in pairs if i != j)
    return n, triples


class TestDerivedGraph:
    @settings(max_examples=200, deadline=None)
    @given(weight_triples())
    def test_components_and_coloring(self, case):
        n, triples = case
        m = ProximityMatrix(zone_count=n, mode=ADJACENCY, triples=triples)
        labels, count = union_find_components(n, triples)
        np.testing.assert_array_equal(m.component_labels, labels)
        assert m.component_count == count
        # The colouring classes are independent sets that together hold each
        # zone with neighbours once, and their padded tables give W's rows.
        dense = m.to_dense()
        members = [c[0] for c in m.coloring]
        members = np.concatenate(members) if members else np.zeros(0, dtype=int)
        np.testing.assert_array_equal(np.sort(members), np.flatnonzero(m.row_sums > 0))
        for zones, nbr, weight in m.coloring:
            assert not dense[np.ix_(zones, zones)].any()
            rows = np.zeros((len(zones), n))
            np.add.at(rows, (np.broadcast_to(np.arange(len(zones)), nbr.shape), nbr), weight)
            np.testing.assert_array_equal(rows, dense[zones])


class TestFiles:
    def test_topology_round_trip(self, tmp_path):
        t = chain_topology()
        p = tmp_path / "zones.topology"
        write_topology(t, p)
        assert read_topology(p).neighbor_pairs == t.neighbor_pairs

    def test_topology_missing_header(self, tmp_path):
        p = tmp_path / "zones.topology"
        p.write_text("0 1 1.0 2\n")
        with pytest.raises(ValidationError, match="header"):
            read_topology(p)

    def test_matrix_round_trip(self, tmp_path):
        m = build_weights(chain_topology(), BOUNDARY_LENGTH)
        p = tmp_path / "weights.txt"
        write_weight_matrix(m, p)
        m2 = read_weight_matrix(p)
        assert m2.mode == BOUNDARY_LENGTH
        np.testing.assert_array_equal(m2.to_dense(), m.to_dense())

    def test_matrix_malformed_line(self, tmp_path):
        p = tmp_path / "weights.txt"
        p.write_text("zones 2\n0 1 nope\n")
        with pytest.raises(ValidationError, match=":2:"):
            read_weight_matrix(p)

    @pytest.mark.parametrize("line,message", [
        ("-1 1 1.0", "zone id -1 out of range"),
        ("1 3 1.0", "zone id 3 out of range"),
        ("1 2 nan", "weight nan"),
        ("1 2 inf", "weight inf"),
        ("1 2 -2.0", "weight -2.0"),
        ("0 1 2.0", r"pair \(0, 1\) appears twice"),
    ])
    def test_matrix_bad_entry_reports_lineno(self, tmp_path, line, message):
        p = tmp_path / "weights.txt"
        p.write_text(f"zones 3\n0 1 1.0\n{line}\n")
        with pytest.raises(ValidationError, match=rf"weights\.txt:3: {message}"):
            read_weight_matrix(p)

    def test_matrix_bad_zone_count_reports_lineno(self, tmp_path):
        p = tmp_path / "weights.txt"
        p.write_text("# header\nzones x\n0 1 1.0\n")
        with pytest.raises(ValidationError, match=r"weights\.txt:2: bad zone count 'x'"):
            read_weight_matrix(p)


    @pytest.mark.parametrize("line,message", [
        ("1 1 1.0 2", "zone 1 paired with itself"),
        ("1 0 1.0 2", r"pair \(0, 1\) listed twice$"),
        ("1 0 2.0 2", r"pair \(0, 1\) listed twice with conflicting attributes "
                      r"\(1.0, 2\) vs \(2.0, 2\)"),
        ("1 3 1.0 2", "zone id 3 out of range"),
        ("-1 2 1.0 2", "zone id -1 out of range"),
        ("1 2 0.0 2", r"pair \(1, 2\) listed as adjacent but boundary length is 0\.0"),
        ("1 2 inf 2", r"pair \(1, 2\) listed as adjacent but boundary length is inf"),
        ("1 2 1.0 -1", r"pair \(1, 2\) has invalid lane count -1"),
    ])
    def test_topology_bad_pair_reports_lineno(self, tmp_path, line, message):
        p = tmp_path / "t.topology"
        p.write_text(f"zones 3\n0 1 1.0 2\n{line}\n")
        with pytest.raises(ValidationError, match=rf"t\.topology:3: {message}"):
            read_topology(p)

    @pytest.mark.parametrize("reader,header", [
        (read_topology, "zones 3 4"),
        (read_topology, "zones"),
        (read_weight_matrix, "zones 3 4"),
        (read_weight_matrix, "mode adjacency lane_count"),
        (read_edge_list, "nodes"),
        (read_edge_list, "nodes 3 4"),
    ])
    def test_header_word_count_is_malformed_header(self, tmp_path, reader, header):
        p = tmp_path / "input.txt"
        p.write_text(f"# comment\n{header}\n")
        with pytest.raises(ValidationError, match=rf"input\.txt:2: malformed header '{header}'"):
            reader(p)

    @pytest.mark.parametrize("reader,text,message", [
        (read_topology, "zones 0\n", "bad zone count '0'"),
        (read_weight_matrix, "zones 1000001\n", "bad zone count '1000001'"),
        (read_weight_matrix, "0 1 1.0\n0 1000000 1.0\n",
         r"zone id 1000000 out of range \[0, 1000000\)"),
        (read_edge_list, "0 1\n0 99999999999999999999\n", "node id 99999999999999999999 out"),
    ])
    def test_counts_above_the_limit_rejected(self, tmp_path, reader, text, message):
        p = tmp_path / "input.txt"
        p.write_text(text)
        with pytest.raises(ValidationError, match=rf"input\.txt:\d: {message}"):
            reader(p)

    def test_non_utf8_file_rejected(self, tmp_path):
        p = tmp_path / "input.txt"
        p.write_bytes(b"zones 3\n0 1 \xff 2\n")
        with pytest.raises(ValidationError, match=r"input\.txt: not UTF-8 text"):
            read_topology(p)


class TestMatrixValidation:
    @pytest.mark.parametrize("triple", [(-1, 1, 1.0), (0, -2, 1.0)])
    def test_negative_zone_id_rejected(self, triple):
        with pytest.raises(ValidationError, match="out of range"):
            ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=(triple,))

    def test_out_of_range_zone_id_rejected(self):
        with pytest.raises(ValidationError, match="zone id 3 out of range"):
            ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=((0, 3, 1.0),))

    def test_nan_weight_rejected(self):
        with pytest.raises(ValidationError, match="finite"):
            ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=((0, 1, float("nan")),))

    @pytest.mark.parametrize("w", [float("inf"), -float("inf")])
    def test_infinite_weight_rejected(self, w):
        with pytest.raises(ValidationError, match="finite"):
            ProximityMatrix(zone_count=3, mode=ADJACENCY, triples=((0, 1, w),))
