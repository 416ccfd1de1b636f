"""Tests for simplicial reductions (Section 4.4.3)."""

from repro.hypergraphs.graph import Graph, complete_graph, cycle_graph, path_graph
from repro.reductions.simplicial import (
    find_reduction_vertex,
    find_simplicial,
    find_strongly_almost_simplicial,
    simplicial_preprocess,
)
from repro.search import astar_treewidth


class TestFindSimplicial:
    def test_path_endpoints(self):
        assert find_simplicial(path_graph(4)) in (0, 3)

    def test_complete_graph_all_simplicial(self):
        assert find_simplicial(complete_graph(4)) is not None

    def test_cycle_has_none(self):
        assert find_simplicial(cycle_graph(5)) is None

    def test_empty_graph(self):
        assert find_simplicial(Graph()) is None


class TestFindStronglyAlmostSimplicial:
    def test_cycle_vertices_with_good_bound(self):
        # C5 vertices are almost simplicial with degree 2; lb >= 2 allows
        assert find_strongly_almost_simplicial(cycle_graph(5), 2) is not None

    def test_bound_too_low(self):
        assert find_strongly_almost_simplicial(cycle_graph(5), 1) is None

    def test_excludes_outright_simplicial(self):
        graph = path_graph(3)
        vertex = find_strongly_almost_simplicial(graph, 5)
        if vertex is not None:
            assert not graph.is_simplicial(vertex)


class TestReductionVertex:
    def test_prefers_simplicial(self):
        graph = path_graph(4)
        vertex = find_reduction_vertex(graph, 0)
        assert graph.is_simplicial(vertex)

    def test_almost_simplicial_disabled(self):
        graph = cycle_graph(5)
        assert (
            find_reduction_vertex(graph, 2, allow_almost_simplicial=False)
            is None
        )


class TestPreprocess:
    def test_path_reduces_completely(self):
        reduced, prefix, bound = simplicial_preprocess(path_graph(6), 0)
        assert reduced.num_vertices() == 0
        assert len(prefix) == 6
        assert bound == 1  # treewidth of a path

    def test_treewidth_preserved(self):
        """tw(G) == max(bound, tw(reduced)) — verified with the exact
        solver on a graph with a simplicial fringe."""
        graph = cycle_graph(6)  # tw 2
        # attach pendant triangles (simplicial vertices of degree 2)
        graph.add_clique([0, 1, 100])
        graph.add_clique([3, 4, 101])
        truth = astar_treewidth(graph).value
        reduced, prefix, bound = simplicial_preprocess(graph, 0)
        rest = astar_treewidth(reduced).value if len(reduced) else 0
        assert max(bound, rest) == truth

    def test_no_reduction_possible(self):
        graph = cycle_graph(5)
        reduced, prefix, bound = simplicial_preprocess(
            graph, 0, allow_almost_simplicial=False
        )
        assert prefix == []
        assert reduced == graph

    def test_source_unchanged(self):
        graph = path_graph(5)
        before = graph.copy()
        simplicial_preprocess(graph, 0)
        assert graph == before
