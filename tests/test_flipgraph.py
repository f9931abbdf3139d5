"""The partner-swap graph on transversals and its diagnostics."""

from itertools import combinations

import numpy as np
import pytest

import oracles
from cuberamsey import flipgraph
from cuberamsey import (
    CapacityError,
    FlipGraph,
    FlipGraphReport,
    build_flip_graph,
    check_bipartition,
    export_edges,
)


def edge_tuples(graph):
    return [tuple(e) for e in graph.edges.tolist()]


class TestConstruction:
    FROZEN = {1: (2, 1), 2: (4, 4), 3: (8, 12)}

    @pytest.mark.parametrize("n", sorted(FROZEN))
    def test_frozen_sizes(self, n):
        g = build_flip_graph(n)
        v, e = self.FROZEN[n]
        assert len(g.vertices) == v
        assert len(g.edges) == e

    def test_four_cycle_at_n2(self):
        g = build_flip_graph(2)
        assert g.vertices.tolist() == [5, 6, 9, 10]
        assert g.edges.tolist() == [[5, 6], [5, 9], [6, 10], [9, 10]]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_vertices_are_exactly_the_transversals(self, n):
        g = build_flip_graph(n)
        assert g.vertices.tolist() == oracles.transversals_literal(n)
        literal = [
            v
            for v in range(1 << (2 * n))
            if oracles.popcount(v) == n and oracles.pair_free(v, n)
        ]
        assert list(g.vertices) == literal

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_edges_match_pairwise_union_oracle(self, n):
        g = build_flip_graph(n)
        expected = sorted(
            (a, b)
            for a, b in combinations(g.vertices.tolist(), 2)
            if oracles.popcount(a | b) == n + 1
        )
        assert edge_tuples(g) == expected

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_regularity_and_edge_count(self, n):
        g = build_flip_graph(n)
        assert len(g.vertices) == 1 << n
        assert len(g.edges) == n << (n - 1)
        assert g.degree_histogram == {n: 1 << n}

    def test_edges_sorted_and_ascending(self):
        edges = edge_tuples(build_flip_graph(4))
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    @pytest.mark.parametrize("n", [0, 21])
    def test_capacity(self, n):
        with pytest.raises(CapacityError):
            build_flip_graph(n)


class TestDiagnostics:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_bipartite_connected_parity(self, n):
        g = build_flip_graph(n)
        rep = check_bipartition(g)
        assert rep.bipartite
        assert rep.connected
        assert rep.matches_parity
        assert rep.odd_class_size == rep.even_class_size == 1 << (n - 1)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_every_edge_joins_opposite_parities(self, n):
        g = build_flip_graph(n)
        for u, v in g.edges:
            assert oracles.sum_parity(u) != oracles.sum_parity(v)

    def test_n1_classes(self):
        rep = check_bipartition(build_flip_graph(1))
        assert (rep.odd_class_size, rep.even_class_size) == (1, 1)


class TestMatchesLoop:
    """The array build, level-by-level search and one-pass export against
    the per-swap construction, per-vertex queue and per-edge formatting."""

    @pytest.mark.parametrize("n", range(1, 13))
    def test_graph_report_and_text(self, n):
        g = build_flip_graph(n)
        vertices, edges = oracles.flip_graph_loop(n)
        assert g.vertices.dtype == g.edges.dtype == np.int64
        assert g.edges.shape == (len(edges), 2)
        assert tuple(g.vertices.tolist()) == vertices
        assert tuple(edge_tuples(g)) == edges
        assert np.array_equal(g.ends, np.searchsorted(g.vertices, g.edges))
        assert g.degree_histogram == oracles.degree_histogram_loop(vertices, edges)
        assert check_bipartition(g) == oracles.bipartition_loop(vertices, edges)
        assert "".join(export_edges(g)) == "".join(f"{u} {v}\n" for u, v in edges)


class TestUnreachedBranches:
    """Hand-built graphs that no flip graph is: each flag reads ``no`` in
    at least one of them, and the report matches the queue oracle's."""

    # vertices, edges, and the report: bipartite, connected, odd and even
    # class sizes, matches_parity.
    GRAPHS = {
        # A triangle: an odd cycle, so no 2-coloring at all.
        "odd-cycle": ([5, 6, 9], [(5, 6), (5, 9), (6, 9)], (False, True, 2, 1, False)),
        # Two edges of the n = 2 four-cycle: each component is 2-colored
        # from its lowest vertex, 5 (even) and 9 (odd), so the sides mix the
        # parity classes.
        "two-components": ([5, 6, 9, 10], [(5, 6), (9, 10)], (True, False, 2, 2, False)),
        # 10 (even) is isolated and starts its own component on side 0,
        # with the other even vertex 5.
        "isolated-vertex": ([5, 6, 10], [(5, 6)], (True, False, 1, 2, True)),
        # The n = 2 four-cycle with its edges out of order: the search
        # groups them by either end itself.
        "unsorted-edges": (
            [5, 6, 9, 10], [(9, 10), (5, 6), (6, 10), (5, 9)], (True, True, 2, 2, True)
        ),
        # No component at all is not one connected component.
        "empty": ([], [], (True, False, 0, 0, True)),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_report_matches_oracle(self, name):
        vertices, edges, want = self.GRAPHS[name]
        g = FlipGraph(
            2,
            np.array(vertices, dtype=np.int64),
            np.array(edges, dtype=np.int64).reshape(-1, 2),
        )
        assert check_bipartition(g) == FlipGraphReport(*want)
        assert oracles.bipartition_loop(vertices, edges) == FlipGraphReport(*want)
        assert g.degree_histogram == oracles.degree_histogram_loop(vertices, edges)


class TestExport:
    def test_format(self):
        g = build_flip_graph(3)
        text = "".join(export_edges(g))
        lines = text.splitlines()
        assert lines[0] == "21 22"
        assert len(lines) == 12
        parsed = [tuple(int(x) for x in line.split()) for line in lines]
        assert parsed == edge_tuples(g)
        assert all(u < v for u, v in parsed)
        assert text.endswith("\n")

    def test_single_edge_graph(self):
        assert list(export_edges(build_flip_graph(1))) == ["1 2\n"]


class TestExportMatchesPercent:
    """The digit-table export against the ``%`` formatting it replaced."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_flip_graphs(self, n):
        g = build_flip_graph(n)
        chunks = list(export_edges(g))
        assert all(type(chunk) is str for chunk in chunks)
        assert len(chunks) == -(-len(g.edges) // flipgraph._EXPORT_CHUNK)
        assert "".join(chunks) == oracles.export_edges_percent(g)

    # vertices and edges (u, v), u < v, sorted
    GRAPHS = {
        "mixed-digit-counts": (
            [0, 7, 9, 10, 99, 100, 12345, 10**12],
            [(0, 7), (0, 10**12), (7, 100), (9, 10), (10, 12345), (99, 100), (100, 10**12)],
        ),
        "value-zero": ([0, 1], [(0, 1)]),
        "one-edge": ([5, 6], [(5, 6)]),
        "no-edges": ([5, 6, 9], []),
        "no-vertices": ([], []),
    }

    @pytest.mark.parametrize("name", sorted(GRAPHS))
    def test_hand_built(self, name):
        vertices, edges = self.GRAPHS[name]
        g = FlipGraph(
            2,
            np.array(vertices, dtype=np.int64),
            np.array(edges, dtype=np.int64).reshape(-1, 2),
        )
        text = "".join(export_edges(g))
        assert text == oracles.export_edges_percent(g)
        assert text == "".join(f"{u} {v}\n" for u, v in edges)

    def test_partial_last_chunk(self, monkeypatch):
        g = build_flip_graph(5)  # 80 edges: 11 chunks of 7 and one of 3
        monkeypatch.setattr(flipgraph, "_EXPORT_CHUNK", 7)
        chunks = list(export_edges(g))
        assert [c.count("\n") for c in chunks] == [7] * 11 + [3]
        assert "".join(chunks) == oracles.export_edges_percent(g)
