"""Tests for component-wise width computation."""

import pytest

from repro.decompositions.elimination import ordering_ghw, ordering_width
from repro.hypergraphs.graph import Graph, complete_graph, cycle_graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import random_gnp
from repro.search import astar_ghw, astar_treewidth, branch_and_bound_treewidth
from repro.search.components import ghw_by_components, treewidth_by_components


def disconnected_graph() -> Graph:
    graph = Graph()
    clique = complete_graph(5)  # tw 4
    for edge in clique.edges():
        u, v = sorted(edge)
        graph.add_edge(f"a{u}", f"a{v}")
    cycle = cycle_graph(6)  # tw 2
    for edge in cycle.edges():
        u, v = sorted(edge)
        graph.add_edge(f"b{u}", f"b{v}")
    graph.add_vertex("lonely")
    return graph


class TestTreewidth:
    def test_max_over_components(self):
        graph = disconnected_graph()
        result = treewidth_by_components(graph, astar_treewidth)
        assert result.optimal
        assert result.value == 4

    def test_ordering_spans_whole_graph(self):
        graph = disconnected_graph()
        result = treewidth_by_components(graph, astar_treewidth)
        assert sorted(result.ordering, key=repr) == sorted(
            graph.vertices(), key=repr
        )
        assert ordering_width(graph, result.ordering) == result.value

    def test_agrees_with_monolithic_search(self):
        for seed in range(4):
            graph = random_gnp(6, 0.4, seed=seed)
            other = random_gnp(5, 0.6, seed=seed + 100)
            merged = Graph()
            for edge in graph.edges():
                u, v = sorted(edge)
                merged.add_edge(("g", u), ("g", v))
            for vertex in graph.vertices():
                merged.add_vertex(("g", vertex))
            for edge in other.edges():
                u, v = sorted(edge)
                merged.add_edge(("h", u), ("h", v))
            for vertex in other.vertices():
                merged.add_vertex(("h", vertex))
            split = treewidth_by_components(merged, astar_treewidth)
            whole = astar_treewidth(merged)
            assert split.value == whole.value

    def test_budget_shared(self):
        graph = disconnected_graph()
        result = treewidth_by_components(
            graph, branch_and_bound_treewidth, node_limit=2
        )
        assert result.lower_bound <= 4 <= result.upper_bound

    def test_empty_graph(self):
        result = treewidth_by_components(Graph(), astar_treewidth)
        assert result.value == 0 and result.optimal


class TestGhw:
    def test_max_over_components(self):
        hypergraph = Hypergraph(
            {
                # triangle (ghw 2) plus an isolated acyclic pair (ghw 1)
                "ab": {"a", "b"},
                "bc": {"b", "c"},
                "ca": {"c", "a"},
                "far": {"x", "y"},
            }
        )
        result = ghw_by_components(hypergraph, astar_ghw)
        assert result.optimal
        assert result.value == 2

    def test_ordering_valid_for_whole_hypergraph(self):
        hypergraph = Hypergraph(
            {"ab": {"a", "b"}, "bc": {"b", "c"}, "ca": {"c", "a"},
             "pq": {"p", "q"}}
        )
        result = ghw_by_components(hypergraph, astar_ghw)
        assert (
            ordering_ghw(hypergraph, result.ordering, cover="exact")
            == result.value
        )

    def test_agrees_with_monolithic(self):
        hypergraph = Hypergraph(
            {
                "e1": {1, 2, 3},
                "e2": {2, 3, 4},
                "e3": {1, 4},
                "f1": {10, 11},
                "f2": {11, 12},
            }
        )
        split = ghw_by_components(hypergraph, astar_ghw)
        whole = astar_ghw(hypergraph)
        assert split.value == whole.value
