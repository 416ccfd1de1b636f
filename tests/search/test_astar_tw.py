"""Tests for A*-tw (Chapter 5)."""

import random
from itertools import permutations

import pytest

from repro.decompositions.elimination import ordering_width
from repro.hypergraphs.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.instances.dimacs_like import (
    grid_graph,
    mycielski_graph,
    queen_graph,
    random_gnp,
)
from repro.search import astar_treewidth


class TestKnownWidths:
    def test_trivial_graphs(self):
        assert astar_treewidth(Graph(vertices=[1])).value == 0
        assert astar_treewidth(path_graph(2)).value == 1

    def test_path(self):
        assert astar_treewidth(path_graph(8)).value == 1

    def test_cycle(self):
        assert astar_treewidth(cycle_graph(9)).value == 2

    def test_complete(self):
        assert astar_treewidth(complete_graph(6)).value == 5

    def test_tree(self):
        graph = Graph(edges=[(0, 1), (0, 2), (1, 3), (1, 4), (2, 5)])
        assert astar_treewidth(graph).value == 1

    @pytest.mark.parametrize("n,expected", [(2, 2), (3, 3), (4, 4), (5, 5)])
    def test_grids_table_5_2(self, n, expected):
        """Table 5.2: the n x n grid has treewidth n."""
        result = astar_treewidth(grid_graph(n))
        assert result.optimal
        assert result.value == expected

    def test_queen5_table_5_1(self):
        """Table 5.1: queen5_5 treewidth = 18."""
        result = astar_treewidth(queen_graph(5))
        assert result.value == 18

    def test_myciel3_table_5_1(self):
        """Table 5.1: myciel3 treewidth = 5."""
        assert astar_treewidth(mycielski_graph(3)).value == 5


class TestOptimalityAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(4, 7)
        graph = random_gnp(n, rng.uniform(0.25, 0.8), seed=seed + 100)
        brute = min(
            ordering_width(graph, list(perm))
            for perm in permutations(sorted(graph.vertices()))
        )
        result = astar_treewidth(graph)
        assert result.optimal
        assert result.value == brute

    @pytest.mark.parametrize("use_pr2", [True, False])
    @pytest.mark.parametrize("use_reductions", [True, False])
    def test_feature_flags_do_not_change_answer(
        self, use_pr2, use_reductions
    ):
        graph = random_gnp(8, 0.45, seed=17)
        baseline = astar_treewidth(
            graph, use_pr2=False, use_reductions=False
        ).value
        result = astar_treewidth(
            graph, use_pr2=use_pr2, use_reductions=use_reductions
        )
        assert result.value == baseline


class TestReturnedOrdering:
    def test_ordering_achieves_value(self):
        graph = random_gnp(9, 0.4, seed=3)
        result = astar_treewidth(graph)
        assert ordering_width(graph, result.ordering) == result.value

    def test_ordering_is_permutation(self):
        graph = queen_graph(4)
        result = astar_treewidth(graph)
        assert sorted(result.ordering, key=repr) == sorted(
            graph.vertices(), key=repr
        )


class TestAnytimeBehaviour:
    def test_node_limit_yields_bounds(self):
        graph = queen_graph(5)
        result = astar_treewidth(graph, node_limit=5)
        if not result.optimal:
            assert result.lower_bound <= 18 <= result.upper_bound
        else:
            assert result.value == 18

    def test_interrupted_lower_bound_sound(self):
        graph = grid_graph(5)
        result = astar_treewidth(graph, node_limit=10)
        assert result.lower_bound <= 5
        assert result.upper_bound >= 5

    def test_zero_time_limit(self):
        graph = queen_graph(4)
        result = astar_treewidth(graph, time_limit=0.0)
        assert result.lower_bound <= result.upper_bound

    def test_pruning_reduces_nodes(self):
        graph = queen_graph(4)
        with_pruning = astar_treewidth(graph)
        without = astar_treewidth(
            graph, use_pr2=False, use_reductions=False
        )
        assert with_pruning.value == without.value
        assert with_pruning.nodes_expanded <= without.nodes_expanded
