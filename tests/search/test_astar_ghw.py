"""Tests for A*-ghw (Chapter 9)."""

import random
from itertools import permutations
from math import ceil

import pytest

from repro.decompositions.elimination import ordering_ghw
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.hypergraphs import (
    adder,
    clique_hypergraph,
    grid2d,
    random_csp_hypergraph,
)
from repro.search import astar_ghw, branch_and_bound_ghw


class TestKnownWidths:
    def test_example5(self, example5):
        result = astar_ghw(example5)
        assert result.optimal and result.value == 2

    def test_adder(self):
        assert astar_ghw(adder(3)).value == 2

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_cliques(self, n):
        assert astar_ghw(clique_hypergraph(n)).value == ceil(n / 2)

    def test_grid(self):
        assert astar_ghw(grid2d(3)).value == 2

    def test_acyclic_is_1(self):
        hypergraph = Hypergraph({"a": {1, 2}, "b": {2, 3}, "c": {3, 4}})
        assert astar_ghw(hypergraph).value == 1

    def test_empty(self):
        assert astar_ghw(Hypergraph()).value == 0


class TestAgreementWithBB:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_instances(self, seed):
        hypergraph = random_csp_hypergraph(6, 5, arity=3, seed=seed + 200)
        astar = astar_ghw(hypergraph)
        bb = branch_and_bound_ghw(hypergraph)
        assert astar.optimal and bb.optimal
        assert astar.value == bb.value

    def test_against_brute_force(self):
        for seed in range(5):
            hypergraph = random_csp_hypergraph(6, 4, arity=3, seed=seed)
            brute = min(
                ordering_ghw(hypergraph, list(perm), cover="exact")
                for perm in permutations(sorted(hypergraph.vertices()))
            )
            assert astar_ghw(hypergraph).value == brute

    @pytest.mark.parametrize("use_pr2", [True, False])
    def test_pr2_flag_safe(self, use_pr2):
        hypergraph = random_csp_hypergraph(7, 6, arity=3, seed=31)
        assert (
            astar_ghw(hypergraph, use_pr2=use_pr2).value
            == branch_and_bound_ghw(hypergraph).value
        )


class TestAnytimeLowerBounds:
    def test_interrupted_run_reports_sound_bounds(self):
        hypergraph = clique_hypergraph(9)  # ghw = 5
        result = astar_ghw(hypergraph, node_limit=3)
        assert result.lower_bound <= 5
        assert result.upper_bound >= 5

    def test_frontier_lower_bound_nondecreasing(self):
        """Interrupting later can only raise the anytime lower bound."""
        hypergraph = random_csp_hypergraph(9, 8, arity=3, seed=8)
        early = astar_ghw(hypergraph, node_limit=2)
        late = astar_ghw(hypergraph, node_limit=30)
        assert late.lower_bound >= early.lower_bound

    def test_ordering_achieves_value(self, example5):
        result = astar_ghw(example5)
        assert (
            ordering_ghw(example5, result.ordering, cover="exact")
            == result.value
        )
