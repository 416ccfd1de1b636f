"""Tests for BB-ghw (Chapter 8)."""

import random
from itertools import permutations
from math import ceil

import pytest

from repro.decompositions.elimination import ordering_ghw
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.hypergraphs import (
    adder,
    bridge,
    clique_hypergraph,
    grid2d,
    random_csp_hypergraph,
)
from repro.search import branch_and_bound_ghw


def brute_force_ghw(hypergraph) -> int:
    vertices = sorted(hypergraph.vertices())
    return min(
        ordering_ghw(hypergraph, list(perm), cover="exact")
        for perm in permutations(vertices)
    )


class TestKnownWidths:
    def test_example5(self, example5):
        result = branch_and_bound_ghw(example5)
        assert result.optimal and result.value == 2

    def test_single_edge(self):
        hypergraph = Hypergraph({"e": {1, 2, 3}})
        assert branch_and_bound_ghw(hypergraph).value == 1

    def test_acyclic_chain_is_width_1(self):
        hypergraph = Hypergraph(
            {"a": {1, 2, 3}, "b": {3, 4, 5}, "c": {5, 6, 7}}
        )
        assert branch_and_bound_ghw(hypergraph).value == 1

    def test_adder_is_2(self):
        """The adder family has ghw 2 (thesis Table 7.1 upper bounds)."""
        result = branch_and_bound_ghw(adder(3))
        assert result.optimal and result.value == 2

    def test_bridge(self):
        result = branch_and_bound_ghw(bridge(3))
        assert result.optimal
        assert result.value == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_clique_is_half_n(self, n):
        """ghw(clique_n) = ceil(n/2) — cover a K_n bag with pair edges."""
        result = branch_and_bound_ghw(clique_hypergraph(n))
        assert result.value == ceil(n / 2)

    def test_grid2d_3(self):
        result = branch_and_bound_ghw(grid2d(3))
        assert result.optimal and result.value == 2

    def test_empty_hypergraph(self):
        assert branch_and_bound_ghw(Hypergraph()).value == 0


class TestOptimality:
    @pytest.mark.parametrize("seed", range(8))
    def test_against_brute_force(self, seed):
        hypergraph = random_csp_hypergraph(6, 5, arity=3, seed=seed)
        brute = brute_force_ghw(hypergraph)
        result = branch_and_bound_ghw(hypergraph)
        assert result.optimal
        assert result.value == brute

    @pytest.mark.parametrize("use_pr2", [True, False])
    @pytest.mark.parametrize("use_reductions", [True, False])
    def test_flags_do_not_change_answer(self, use_pr2, use_reductions):
        hypergraph = random_csp_hypergraph(7, 5, arity=3, seed=42)
        baseline = branch_and_bound_ghw(
            hypergraph, use_pr2=False, use_reductions=False
        ).value
        assert (
            branch_and_bound_ghw(
                hypergraph,
                use_pr2=use_pr2,
                use_reductions=use_reductions,
            ).value
            == baseline
        )

    def test_returned_ordering_achieves_value(self, example5):
        result = branch_and_bound_ghw(example5)
        assert (
            ordering_ghw(example5, result.ordering, cover="exact")
            == result.value
        )


class TestAnytime:
    def test_node_limited_bounds_bracket_truth(self):
        hypergraph = clique_hypergraph(8)
        result = branch_and_bound_ghw(hypergraph, node_limit=5)
        assert result.lower_bound <= 4 <= result.upper_bound

    def test_incumbent_is_feasible(self):
        hypergraph = random_csp_hypergraph(9, 7, arity=3, seed=5)
        result = branch_and_bound_ghw(hypergraph, node_limit=10)
        achieved = ordering_ghw(hypergraph, result.ordering, cover="exact")
        assert achieved <= result.upper_bound
