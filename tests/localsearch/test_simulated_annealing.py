"""Tests for simulated annealing over orderings."""

import pytest

from repro.decompositions.elimination import ordering_ghw, ordering_width
from repro.hypergraphs.graph import Graph, cycle_graph, path_graph
from repro.instances.dimacs_like import grid_graph, queen_graph
from repro.instances.hypergraphs import adder, clique_hypergraph
from repro.localsearch.simulated_annealing import (
    AnnealingParameters,
    sa_ghw,
    sa_treewidth,
    simulated_annealing,
)
from repro.search import astar_treewidth

FAST = AnnealingParameters(
    initial_temperature=2.0, cooling_rate=0.9, steps_per_temperature=15
)


class TestParameters:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("initial_temperature", 0.0),
            ("cooling_rate", 1.0),
            ("steps_per_temperature", 0),
            ("minimum_temperature", 0.0),
            ("move", "NOPE"),
        ],
    )
    def test_invalid(self, field, value):
        with pytest.raises(ValueError):
            AnnealingParameters(**{field: value}).validated()


class TestCore:
    def sortedness(self, individual):
        return sum(1 for a, b in zip(individual, individual[1:]) if a > b)

    def test_optimises(self):
        result = simulated_annealing(
            list(range(8)), self.sortedness, parameters=FAST, seed=0
        )
        assert result.best_fitness <= 2

    def test_seeded_start(self):
        result = simulated_annealing(
            list(range(6)),
            self.sortedness,
            parameters=FAST,
            seed=0,
            initial=list(range(6)),
            target=0,
        )
        assert result.best_fitness == 0

    def test_bad_initial_rejected(self):
        with pytest.raises(ValueError):
            simulated_annealing(
                [1, 2, 3], self.sortedness, initial=[1, 2]
            )

    def test_reproducible(self):
        runs = [
            simulated_annealing(
                list(range(8)), self.sortedness, parameters=FAST, seed=4
            ).best_fitness
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    def test_history_monotone(self):
        result = simulated_annealing(
            list(range(8)), self.sortedness, parameters=FAST, seed=1
        )
        assert result.history == sorted(result.history, reverse=True)


class TestWidthWrappers:
    def test_tw_easy_graphs(self):
        assert sa_treewidth(path_graph(8), parameters=FAST).best_fitness == 1
        assert sa_treewidth(cycle_graph(7), parameters=FAST).best_fitness == 2

    def test_tw_never_below_optimum(self):
        graph = queen_graph(4)
        truth = astar_treewidth(graph).value
        result = sa_treewidth(graph, parameters=FAST, seed=1)
        assert result.best_fitness >= truth
        assert (
            ordering_width(graph, result.best_individual)
            == result.best_fitness
        )

    def test_tw_grid(self):
        assert sa_treewidth(grid_graph(3), parameters=FAST).best_fitness == 3

    def test_tw_trivial(self):
        assert sa_treewidth(Graph(vertices=[1])).best_fitness == 0

    def test_ghw_adder(self):
        result = sa_ghw(adder(4), parameters=FAST, seed=0)
        assert result.best_fitness == 2

    def test_ghw_clique(self):
        result = sa_ghw(clique_hypergraph(6), parameters=FAST, seed=0)
        assert result.best_fitness == 3

    def test_ghw_is_upper_bound(self, example5):
        result = sa_ghw(example5, parameters=FAST, seed=0)
        assert result.best_fitness >= 2
        achieved = ordering_ghw(
            example5, result.best_individual, cover="exact"
        )
        assert achieved <= result.best_fitness
