import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from tazcar import centrality
from tazcar.centrality import (
    Pattern,
    RoadGraph,
    adjacency_matrix,
    analyze,
    centralization_denominator,
    classify_pattern,
    graph_centralization,
    node_betweenness,
    read_edge_list,
    write_edge_list,
)
from tazcar.errors import ConnectivityWarning, DomainError, ValidationError

from oracles import brute_force_betweenness, brute_force_centralization, random_connected_graph

METRICS = ("hop_count", "edge_length")


def star(n, length=None):
    return RoadGraph(n, tuple((0, i) if length is None else (0, i, length) for i in range(1, n)))


def cycle(n, length=None):
    return RoadGraph(n, tuple((i, (i + 1) % n) if length is None else (i, (i + 1) % n, length)
                              for i in range(n)))


def path(n):
    return RoadGraph(n, tuple((i, i + 1) for i in range(n - 1)))


@st.composite
def split_graphs(draw):
    """Graphs of 3-7 nodes whose edges stay inside up to three node groups,
    so most draws have several components or isolated nodes; lengths come
    from {0.25, 0.5, 0.75}, so edge_length paths tie."""
    n = draw(st.integers(3, 7))
    group = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    pairs = [(i, j) for i, j in itertools.combinations(range(n), 2) if group[i] == group[j]]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    lengths = draw(st.lists(st.sampled_from((0.25, 0.5, 0.75)),
                            min_size=len(pairs), max_size=len(pairs)))
    return RoadGraph(n, tuple((i, j, w) for (i, j), k, w in zip(pairs, keep, lengths) if k))


def complete(n):
    return RoadGraph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


class TestValidation:
    def test_self_loop_rejected(self):
        with pytest.raises(ValidationError, match="self-loop"):
            RoadGraph(3, ((0, 0),))

    def test_bad_id_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            RoadGraph(3, ((0, 3),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError, match="duplicate"):
            RoadGraph(3, ((0, 1), (1, 0)))

    def test_nonpositive_length_rejected(self):
        with pytest.raises(ValidationError, match="length"):
            RoadGraph(3, ((0, 1, 0.0),))

    @pytest.mark.parametrize("length", [float("inf"), float("nan"), -float("inf")])
    def test_non_finite_length_rejected(self, length):
        with pytest.raises(ValidationError, match="finite"):
            RoadGraph(4, ((0, 1, 1.0), (1, 2, length), (2, 3, 1.0)))

    def test_unknown_metric(self):
        with pytest.raises(ValidationError, match="metric"):
            node_betweenness(path(3), "geodesic")


class TestNodeBetweenness:
    def test_path_interior_carries_everything(self):
        scores = node_betweenness(path(3))
        assert scores == pytest.approx([0.0, 1.0, 0.0])

    def test_star_center(self):
        scores = node_betweenness(star(5))
        assert scores[0] == pytest.approx(1.0)
        assert np.all(scores[1:] == 0.0)

    def test_four_cycle(self):
        scores = node_betweenness(cycle(4))
        assert scores == pytest.approx([1 / 6] * 4)

    def test_small_graphs_all_zero(self):
        assert node_betweenness(RoadGraph(1)).tolist() == [0.0]
        assert node_betweenness(RoadGraph(2, ((0, 1),))).tolist() == [0.0, 0.0]

    def test_disconnected_warns_and_zeroes_cross_pairs(self):
        g = RoadGraph(5, ((0, 1), (1, 2), (3, 4)))
        with pytest.warns(ConnectivityWarning):
            scores = node_betweenness(g)
        assert scores[1] == pytest.approx(2 / 12)
        assert scores[3] == 0.0

    def test_metric_agreement_on_equal_lengths(self):
        g = RoadGraph(4, ((0, 1, 2.0), (1, 2, 2.0), (2, 3, 2.0), (3, 0, 2.0), (0, 2, 2.0)))
        np.testing.assert_allclose(node_betweenness(g, "hop_count"),
                                   node_betweenness(g, "edge_length"), atol=1e-12)

    def test_edge_length_reroutes(self):
        # short two-hop detour beats the long direct link
        g = RoadGraph(3, ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0)))
        scores = node_betweenness(g, "edge_length")
        assert scores[1] == pytest.approx(1.0)
        assert node_betweenness(g, "hop_count")[1] == 0.0

    def test_oracle_agreement_hop_count(self):
        rng = np.random.default_rng(20240)
        for _ in range(40):
            g = random_connected_graph(int(rng.integers(3, 8)), rng)
            np.testing.assert_allclose(node_betweenness(g),
                                       brute_force_betweenness(g), atol=1e-9)

    def test_oracle_agreement_edge_length(self):
        rng = np.random.default_rng(20241)
        for _ in range(15):
            g = random_connected_graph(int(rng.integers(3, 7)), rng, lengths=True)
            np.testing.assert_allclose(node_betweenness(g, "edge_length"),
                                       brute_force_betweenness(g, "edge_length"), atol=1e-9)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=200, deadline=None)
    @given(split_graphs(), st.sampled_from(METRICS))
    def test_oracle_agreement_disconnected_with_ties(self, g, metric):
        result = analyze(g, metric)
        np.testing.assert_allclose(result.node_scores, brute_force_betweenness(g, metric),
                                   atol=1e-9)
        assert result.graph_centralization == pytest.approx(
            brute_force_centralization(g, metric), abs=1e-9)

    @pytest.mark.parametrize("metric", METRICS)
    def test_long_path_closed_form(self, metric):
        # Deep shortest-path DAGs: node i of an n-path lies on 2 i (n-1-i) ordered pairs.
        n = 400
        rng = np.random.default_rng(400)
        g = RoadGraph(n, tuple((i, i + 1, float(rng.choice([0.25, 0.5, 1.75])))
                               for i in range(n - 1)))
        i = np.arange(n)
        np.testing.assert_allclose(node_betweenness(g, metric),
                                   2 * i * (n - 1 - i) / ((n - 1) * (n - 2)), rtol=1e-12)

    def test_scores_bounded(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            g = random_connected_graph(int(rng.integers(3, 8)), rng)
            scores = node_betweenness(g)
            assert np.all(scores >= 0.0) and np.all(scores <= 1.0 + 1e-12)


class TestGraphCentralization:
    def test_star_is_one(self):
        for metric in METRICS:
            for n in range(3, 61):
                assert graph_centralization(star(n, 0.25), metric) == 1.0, (metric, n)

    def test_cycles_and_complete_are_zero(self):
        for metric in METRICS:
            for n in range(3, 61):
                assert graph_centralization(cycle(n, 0.25), metric) == 0.0, (metric, n)
        assert graph_centralization(complete(4)) == 0.0

    def test_denominator_identity(self):
        for n in range(3, 51):
            assert centralization_denominator(n) == (n - 1) ** 2 * (n - 2)

    def test_too_small_graph(self):
        with pytest.raises(DomainError, match="undefined"):
            graph_centralization(RoadGraph(2, ((0, 1),)))

    def test_paper_literal_variant_star(self):
        n = 5
        value = graph_centralization(star(n), variant="paper_literal")
        assert value == pytest.approx(1.0 / ((n - 1) * (n - 2)))

    def test_oracle_agreement(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            g = random_connected_graph(int(rng.integers(3, 8)), rng)
            assert graph_centralization(g) == pytest.approx(
                brute_force_centralization(g), abs=1e-9)

    def test_bounded_on_random_graphs(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            g = random_connected_graph(int(rng.integers(3, 8)), rng)
            assert 0.0 <= graph_centralization(g) <= 1.0


class TestClassifyPattern:
    @pytest.mark.parametrize("value,expected", [
        (0.10, Pattern.GRID),
        (0.22, Pattern.IRREGULAR_GRID),
        (0.35, Pattern.MIXED),
        (0.50, Pattern.LOLLIPOPS),
        (0.0, Pattern.GRID),
        (0.15, Pattern.IRREGULAR_GRID),
        (0.30, Pattern.MIXED),
        (0.40, Pattern.LOLLIPOPS),
        (1.0, Pattern.LOLLIPOPS),
    ])
    def test_intervals(self, value, expected):
        assert classify_pattern(value) == expected

    def test_out_of_range(self):
        with pytest.raises(DomainError):
            classify_pattern(-0.01)
        with pytest.raises(DomainError):
            classify_pattern(1.01)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_total_on_unit_interval(self, value):
        assert classify_pattern(value) in (Pattern.GRID, Pattern.IRREGULAR_GRID,
                                           Pattern.MIXED, Pattern.LOLLIPOPS)

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0))
    def test_monotone_step_function(self, a, b):
        order = [Pattern.GRID, Pattern.IRREGULAR_GRID, Pattern.MIXED, Pattern.LOLLIPOPS]
        lo, hi = min(a, b), max(a, b)
        assert order.index(classify_pattern(lo)) <= order.index(classify_pattern(hi))


class TestAdjacencyMatrix:
    def test_path(self):
        assert adjacency_matrix(path(3)).tolist() == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_single_edge(self):
        assert adjacency_matrix(RoadGraph(2, ((0, 1),))).tolist() == [[0, 1], [1, 0]]

    def test_empty_graph(self):
        assert adjacency_matrix(RoadGraph(3)).tolist() == [[0] * 3] * 3

    def test_symmetric_zero_diagonal(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(7, rng)
        a = adjacency_matrix(g)
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)


class TestAnalyze:
    def test_star_is_lollipops(self):
        result = analyze(star(6))
        assert result.pattern == Pattern.LOLLIPOPS
        assert result.graph_centralization == pytest.approx(1.0)
        assert result.connected

    def test_disconnected_flagged(self):
        g = RoadGraph(6, ((0, 1), (1, 2), (3, 4), (4, 5)))
        result = analyze(g)
        assert not result.connected
        assert result.warnings

    def test_small_graph_rejected(self):
        with pytest.raises(DomainError):
            analyze(RoadGraph(2, ((0, 1),)))

    def test_one_brandes_pass(self, monkeypatch):
        calls = []
        inner = centrality._raw_betweenness
        monkeypatch.setattr(centrality, "_raw_betweenness",
                            lambda graph, metric: calls.append(metric) or inner(graph, metric))
        analyze(star(6), "edge_length")
        assert calls == ["edge_length"]

    def test_cached_scores_are_read_only(self):
        # one pass per graph and metric: a caller must not change what the
        # next caller reads, and the cache takes no part in equality
        g = star(6)
        first = analyze(g).node_scores
        raw = centrality._betweenness(g, "hop_count")
        with pytest.raises(ValueError):
            raw[0] = 0.0
        np.testing.assert_array_equal(analyze(g).node_scores, first)
        assert g == star(6) and hash(g) == hash(star(6))


class TestEdgeListFormat:
    def test_round_trip(self, tmp_path):
        g = RoadGraph(4, ((0, 1), (1, 2, 0.5), (2, 3)))
        p = tmp_path / "net.edges"
        write_edge_list(g, p)
        g2 = read_edge_list(p)
        assert g2.node_count == 4
        assert g2.edges == g.edges

    def test_comments_blank_lines_and_inference(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("# a comment\n\n0 1\n1 2 0.75  # trailing comment\n")
        g = read_edge_list(p)
        assert g.node_count == 3
        assert g.edges[1] == (1, 2, 0.75)

    def test_header_overrides_inference(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("nodes 5\n0 1\n")
        assert read_edge_list(p).node_count == 5

    def test_malformed_line_reports_lineno(self, tmp_path):
        p = tmp_path / "net.edges"
        p.write_text("0 1\nnot an edge line at all\n")
        with pytest.raises(ValidationError, match=":2:"):
            read_edge_list(p)

    @pytest.mark.parametrize("line,message", [
        ("1 1", "self-loop on node 1"),
        ("1 0", r"duplicate undirected edge \(0, 1\)"),
        ("1 -1", "node id -1 out of range"),
        ("2 7", r"node id 7 out of range \[0, 5\)"),
    ])
    def test_bad_edge_reports_lineno(self, tmp_path, line, message):
        p = tmp_path / "net.edges"
        p.write_text(f"nodes 5\n0 1\n\n{line}\n2 3\n")
        with pytest.raises(ValidationError, match=rf"net\.edges:4: {message}"):
            read_edge_list(p)

    @pytest.mark.parametrize("text", ["inf", "nan", "-0.5", "0", "1e400"])
    def test_bad_length_reports_lineno(self, tmp_path, text):
        p = tmp_path / "net.edges"
        p.write_text(f"0 1 1.0\n1 2 {text}\n2 3 1.0\n")
        with pytest.raises(ValidationError, match=r"net\.edges:2: length must be a finite"):
            read_edge_list(p)
