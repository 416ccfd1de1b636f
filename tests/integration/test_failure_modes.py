"""Failure-injection and robustness tests.

A production library must fail loudly and recover cleanly: these tests
drive the system through misuse (mismatched decompositions, corrupted
structures, budget exhaustion at awkward moments) and assert the errors
are the documented ones, with no state corruption afterwards.
"""

import pytest

from repro.core.api import decompose, treewidth, validate_hypergraph
from repro.csp.builders import example_5_csp
from repro.csp.solve import solve_with_ghd
from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.tree_decomposition import DecompositionError
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import queen_graph
from repro.instances.hypergraphs import adder
from repro.search import astar_treewidth, branch_and_bound_ghw


class TestMismatchedInputs:
    def test_ghd_of_wrong_hypergraph_rejected(self, example5):
        other = adder(2)
        ghd = decompose(other, algorithm="min-fill", cover="greedy")
        with pytest.raises(DecompositionError):
            ghd.validate(example5)

    def test_solving_with_foreign_ghd_rejected(self):
        csp = example_5_csp()
        foreign = decompose(adder(2), algorithm="min-fill", cover="greedy")
        with pytest.raises(DecompositionError):
            solve_with_ghd(csp, foreign)

    def test_ghd_with_stale_lambda_rejected(self, example5):
        ghd = decompose(example5)
        some_node = ghd.nodes()[0]
        ghd.covers[some_node] = {"no_such_edge"}
        with pytest.raises(DecompositionError):
            ghd.validate(example5)

    def test_empty_ghd_is_not_valid_for_nonempty_hypergraph(self, example5):
        with pytest.raises(DecompositionError):
            GeneralizedHypertreeDecomposition().validate(example5)


class TestBudgetEdges:
    def test_zero_node_budget_still_sound(self):
        graph = queen_graph(5)
        result = astar_treewidth(graph, node_limit=0)
        assert result.lower_bound <= 18 <= result.upper_bound

    def test_one_node_budget(self):
        result = branch_and_bound_ghw(adder(6), node_limit=1)
        assert result.lower_bound <= 2 <= result.upper_bound

    def test_repeated_budgeted_calls_are_independent(self):
        """No cross-call state: identical budgets give identical answers."""
        graph = queen_graph(4)
        first = treewidth(graph, node_limit=10, seed=5)
        second = treewidth(graph, node_limit=10, seed=5)
        assert (first.lower_bound, first.upper_bound) == (
            second.lower_bound,
            second.upper_bound,
        )


class TestValidation:
    def test_isolated_vertex_names_reported(self):
        bad = Hypergraph({"e": {1}}, vertices=["ghost"])
        with pytest.raises(ValueError, match="ghost"):
            validate_hypergraph(bad)

    def test_validate_accepts_clean_instance(self, example5):
        validate_hypergraph(example5)  # no raise

    def test_bad_algorithm_names_listed(self, example5):
        from repro.core.api import generalized_hypertree_width

        with pytest.raises(ValueError, match="unknown ghw algorithm"):
            generalized_hypertree_width(example5, algorithm="dfs")


class TestStateIsolationAfterErrors:
    def test_search_usable_after_validation_error(self, example5):
        bad = Hypergraph({"e": {1, 2}}, vertices=[99])
        with pytest.raises(ValueError):
            validate_hypergraph(bad)
        # the failed call must not poison subsequent good calls
        assert branch_and_bound_ghw(example5).value == 2

    def test_decompose_after_failed_decompose(self):
        with pytest.raises(ValueError):
            decompose(Hypergraph())  # empty: rejected
        ghd = decompose(adder(2))
        assert ghd.width() == 2
