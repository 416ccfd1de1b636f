"""Tests for tabu search over orderings."""

import pytest

from repro.decompositions.elimination import ordering_width
from repro.hypergraphs.graph import Graph, cycle_graph, path_graph
from repro.instances.dimacs_like import grid_graph, queen_graph
from repro.instances.hypergraphs import adder, clique_hypergraph
from repro.localsearch.tabu import (
    TabuParameters,
    tabu_ghw,
    tabu_search,
    tabu_treewidth,
)
from repro.search import astar_treewidth

FAST = TabuParameters(iterations=40, neighbourhood_sample=20)


class TestParameters:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("iterations", 0),
            ("tenure", -1),
            ("neighbourhood_sample", 0),
            ("stall_restart", 0),
        ],
    )
    def test_invalid(self, field, value):
        with pytest.raises(ValueError):
            TabuParameters(**{field: value}).validated()


class TestCore:
    def sortedness(self, individual):
        return sum(1 for a, b in zip(individual, individual[1:]) if a > b)

    def test_optimises(self):
        result = tabu_search(
            list(range(8)), self.sortedness, parameters=FAST, seed=0
        )
        assert result.best_fitness <= 1

    def test_target_stops_early(self):
        result = tabu_search(
            list(range(6)),
            self.sortedness,
            parameters=TabuParameters(iterations=500),
            seed=0,
            initial=list(range(6)),
            target=0,
        )
        assert result.best_fitness == 0
        assert result.iterations == 0

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError):
            tabu_search([1, 2, 3], self.sortedness, initial=[3])

    def test_reproducible(self):
        runs = [
            tabu_search(
                list(range(8)), self.sortedness, parameters=FAST, seed=9
            ).best_fitness
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_history_monotone(self):
        result = tabu_search(
            list(range(10)), self.sortedness, parameters=FAST, seed=2
        )
        assert result.history == sorted(result.history, reverse=True)


class TestWidthWrappers:
    def test_tw_easy_graphs(self):
        assert tabu_treewidth(path_graph(8), parameters=FAST).best_fitness == 1
        assert tabu_treewidth(cycle_graph(7), parameters=FAST).best_fitness == 2

    def test_tw_never_below_optimum(self):
        graph = queen_graph(4)
        truth = astar_treewidth(graph).value
        result = tabu_treewidth(graph, parameters=FAST, seed=3)
        assert result.best_fitness >= truth
        assert (
            ordering_width(graph, result.best_individual)
            == result.best_fitness
        )

    def test_tw_grid(self):
        assert tabu_treewidth(grid_graph(3), parameters=FAST).best_fitness == 3

    def test_tw_trivial(self):
        assert tabu_treewidth(Graph(vertices=[1])).best_fitness == 0

    def test_ghw_adder(self):
        assert tabu_ghw(adder(4), parameters=FAST, seed=0).best_fitness == 2

    def test_ghw_clique(self):
        assert (
            tabu_ghw(clique_hypergraph(6), parameters=FAST, seed=0).best_fitness
            == 3
        )

    def test_ghw_is_upper_bound(self, example5):
        assert tabu_ghw(example5, parameters=FAST, seed=0).best_fitness >= 2
