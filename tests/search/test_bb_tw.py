"""Tests for the BB-tw baseline (Section 4.4)."""

import random
from itertools import permutations

import pytest

from repro.decompositions.elimination import ordering_width
from repro.hypergraphs.graph import Graph, complete_graph, cycle_graph, path_graph
from repro.instances.dimacs_like import grid_graph, mycielski_graph, queen_graph, random_gnp
from repro.search import astar_treewidth, branch_and_bound_treewidth


class TestKnownWidths:
    def test_trivial(self):
        assert branch_and_bound_treewidth(Graph(vertices=["a"])).value == 0
        assert branch_and_bound_treewidth(Graph()).value == 0

    def test_path_cycle_clique(self):
        assert branch_and_bound_treewidth(path_graph(7)).value == 1
        assert branch_and_bound_treewidth(cycle_graph(7)).value == 2
        assert branch_and_bound_treewidth(complete_graph(5)).value == 4

    def test_grid4(self):
        result = branch_and_bound_treewidth(grid_graph(4))
        assert result.optimal and result.value == 4

    def test_myciel3(self):
        assert branch_and_bound_treewidth(mycielski_graph(3)).value == 5


class TestAgreementWithAstar:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        graph = random_gnp(8, 0.4, seed=seed)
        bb = branch_and_bound_treewidth(graph)
        astar = astar_treewidth(graph)
        assert bb.optimal and astar.optimal
        assert bb.value == astar.value

    def test_against_brute_force(self):
        for seed in range(6):
            graph = random_gnp(6, 0.5, seed=seed + 50)
            brute = min(
                ordering_width(graph, list(perm))
                for perm in permutations(sorted(graph.vertices()))
            )
            assert branch_and_bound_treewidth(graph).value == brute

    @pytest.mark.parametrize("use_pr2", [True, False])
    def test_pr2_flag_safe(self, use_pr2):
        graph = random_gnp(7, 0.5, seed=23)
        assert (
            branch_and_bound_treewidth(graph, use_pr2=use_pr2).value
            == astar_treewidth(graph).value
        )


class TestAnytime:
    def test_node_limit_gives_bounds(self):
        graph = queen_graph(5)
        result = branch_and_bound_treewidth(graph, node_limit=20)
        assert result.lower_bound <= 18 <= result.upper_bound

    def test_incumbent_ordering_achieves_upper_bound(self):
        graph = queen_graph(4)
        result = branch_and_bound_treewidth(graph, node_limit=50)
        assert ordering_width(graph, result.ordering) == result.upper_bound

    def test_certified_result_has_matching_ordering(self):
        graph = random_gnp(9, 0.35, seed=77)
        result = branch_and_bound_treewidth(graph)
        assert result.optimal
        assert ordering_width(graph, result.ordering) == result.value
