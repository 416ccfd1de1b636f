"""Tests for chordality and perfect elimination orderings."""

import pytest

from repro.hypergraphs.chordal import (
    fill_in_graph,
    is_chordal,
    is_perfect_elimination_ordering,
    maximum_clique_of_chordal,
    treewidth_of_chordal,
)
from repro.hypergraphs.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
)
from repro.instances.dimacs_like import random_gnp
from repro.search import astar_treewidth


def clique_chain(cliques: int) -> Graph:
    """Overlapping triangles 0-1-2, 1-2-3, ...: chordal, treewidth 2."""
    graph = Graph()
    for i in range(cliques):
        graph.add_clique([i, i + 1, i + 2])
    return graph


class TestPerfectEliminationOrdering:
    def test_path_any_end_first(self):
        graph = path_graph(5)
        assert is_perfect_elimination_ordering(graph, [0, 1, 2, 3, 4])
        assert is_perfect_elimination_ordering(graph, [4, 3, 2, 1, 0])

    def test_cycle_has_none(self):
        graph = cycle_graph(5)
        assert not is_perfect_elimination_ordering(graph, [0, 1, 2, 3, 4])

    def test_complete_graph_everything_works(self):
        graph = complete_graph(4)
        assert is_perfect_elimination_ordering(graph, [2, 0, 3, 1])

    def test_non_permutation_rejected(self):
        with pytest.raises(ValueError):
            is_perfect_elimination_ordering(path_graph(3), [0, 1])

    def test_peo_iff_no_fill(self):
        """Cross-check against explicit fill-in computation."""
        import random

        rng = random.Random(0)
        for seed in range(15):
            graph = random_gnp(7, 0.5, seed=seed)
            ordering = sorted(graph.vertices())
            rng.shuffle(ordering)
            filled = fill_in_graph(graph, ordering)
            no_fill = filled.num_edges() == graph.num_edges()
            assert is_perfect_elimination_ordering(graph, ordering) == no_fill


class TestChordality:
    def test_trees_are_chordal(self):
        assert is_chordal(path_graph(6))

    def test_cliques_are_chordal(self):
        assert is_chordal(complete_graph(5))

    def test_cycles_are_not(self):
        assert not is_chordal(cycle_graph(4))
        assert not is_chordal(cycle_graph(6))

    def test_triangle_is_chordal(self):
        assert is_chordal(cycle_graph(3))

    def test_clique_chain(self):
        assert is_chordal(clique_chain(4))

    def test_empty(self):
        assert is_chordal(Graph())

    def test_fill_in_makes_chordal(self):
        for seed in range(8):
            graph = random_gnp(8, 0.4, seed=seed)
            filled = fill_in_graph(graph, sorted(graph.vertices()))
            assert is_chordal(filled)
            assert is_perfect_elimination_ordering(
                filled, sorted(graph.vertices())
            )


class TestCliqueAndWidth:
    def test_maximum_clique(self):
        graph = clique_chain(3)
        clique = maximum_clique_of_chordal(graph)
        assert len(clique) == 3
        assert graph.is_clique(clique)

    def test_non_chordal_rejected(self):
        with pytest.raises(ValueError):
            maximum_clique_of_chordal(cycle_graph(5))

    def test_treewidth_matches_exact_search(self):
        for build in (
            lambda: path_graph(7),
            lambda: complete_graph(5),
            lambda: clique_chain(4),
        ):
            graph = build()
            assert (
                treewidth_of_chordal(graph)
                == astar_treewidth(graph).value
            )

    def test_random_triangulations(self):
        """tw(chordal fill-in) from the clique number equals the search."""
        for seed in range(5):
            graph = random_gnp(7, 0.35, seed=seed + 30)
            filled = fill_in_graph(graph, sorted(graph.vertices()))
            assert (
                treewidth_of_chordal(filled)
                == astar_treewidth(filled).value
            )
