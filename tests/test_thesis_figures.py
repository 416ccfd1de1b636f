"""The thesis's worked figures and examples, encoded verbatim.

Each test reproduces one figure/example of the thesis on the exact
structure it uses, asserting the printed outcome. Together with the
table benches these cover every concrete artifact the thesis shows.
"""

import pytest

from repro.csp.acyclic import acyclic_solve, gyo_join_tree, is_acyclic
from repro.csp.builders import example_5_csp
from repro.csp.solve import solve_with_ghd, solve_with_tree_decomposition
from repro.decompositions.elimination import (
    elimination_bags,
    ordering_ghw,
    ordering_to_ghd,
    ordering_to_tree_decomposition,
    ordering_width,
)
from repro.decompositions.leaf_normal_form import (
    extract_ordering,
    transform_leaf_normal_form,
)
from repro.decompositions.tree_decomposition import (
    TreeDecomposition,
    trivial_decomposition,
)
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.hypergraph import Hypergraph


class TestFigure2_3:
    """Hypergraph / dual graph / join tree (Figure 2.3's pattern)."""

    def test_acyclic_hypergraph_has_join_tree(self):
        hypergraph = Hypergraph(
            {
                "AEF": {"A", "E", "F"},
                "ABC": {"A", "B", "C"},
                "CDE": {"C", "D", "E"},
                "ACE": {"A", "C", "E"},
            }
        )
        assert is_acyclic(hypergraph)
        parent = gyo_join_tree(hypergraph)
        roots = [n for n, up in parent.items() if up is None]
        assert len(roots) == 1
        # the central edge ACE intersects all others; in a valid join
        # tree every other edge must connect to it either directly or
        # through edges that carry the shared vertices — here each
        # satellite's intersection with the rest lies inside ACE, so
        # GYO attaches all three satellites straight to it.
        satellites = {"AEF", "ABC", "CDE"}
        attached_to_ace = {
            name for name, up in parent.items() if up == "ACE"
        }
        if parent["ACE"] is not None:
            attached_to_ace.add(parent["ACE"])
        assert satellites <= attached_to_ace


class TestFigure2_6_and_2_7:
    """Example 5's width-2 tree decomposition and GHD."""

    def test_figure_2_6_tree_decomposition(self, example5):
        decomposition = TreeDecomposition()
        top = decomposition.add_node({"x1", "x2", "x3"})
        middle = decomposition.add_node({"x1", "x3", "x5"})
        left = decomposition.add_node({"x3", "x4", "x5"})
        right = decomposition.add_node({"x1", "x5", "x6"})
        decomposition.add_edge(top, middle)
        decomposition.add_edge(middle, left)
        decomposition.add_edge(middle, right)
        decomposition.validate(example5)
        assert decomposition.width() == 2

    def test_figure_2_7_ghd_width_2_is_optimal(self, example5):
        from repro.search import branch_and_bound_ghw

        result = branch_and_bound_ghw(example5)
        assert result.optimal and result.value == 2


class TestFigures2_8_and_2_9:
    """Solving Example 5 from its decompositions."""

    def test_solutions_found_and_valid(self, example5):
        csp = example_5_csp()
        hypergraph = csp.constraint_hypergraph(include_unconstrained=False)
        ordering = extract_ordering(
            trivial_decomposition(hypergraph), hypergraph
        )
        td = ordering_to_tree_decomposition(
            hypergraph.primal_graph(), ordering
        )
        ghd = ordering_to_ghd(hypergraph, ordering, cover="exact")
        for solution in (
            solve_with_tree_decomposition(csp, td),
            solve_with_ghd(csp, ghd),
        ):
            assert solution is not None
            assert csp.is_solution(solution)

    def test_thesis_printed_solution(self):
        """The assignment printed under Example 5 in the thesis text."""
        csp = example_5_csp()
        assert csp.is_solution(
            {"x1": "a", "x2": "b", "x3": "c", "x4": "b", "x5": "c", "x6": "b"}
        )


class TestFigure2_11:
    """Bucket elimination on the six-vertex running hypergraph."""

    def test_bags_and_widths(self, figure_2_11):
        primal = figure_2_11.primal_graph()
        # our convention reverses the thesis's sigma = (x6, ..., x1)
        ordering = ["x1", "x2", "x3", "x4", "x5", "x6"]
        bags = elimination_bags(primal, ordering)
        assert bags["x1"] == {"x1", "x2", "x3"}
        assert ordering_width(primal, ordering) == 2
        ghd = ordering_to_ghd(figure_2_11, ordering, cover="exact")
        ghd.validate(figure_2_11)
        assert ghd.width() == 2

    def test_tree_decomposition_structure(self, figure_2_11):
        primal = figure_2_11.primal_graph()
        ordering = ["x1", "x2", "x3", "x4", "x5", "x6"]
        decomposition = ordering_to_tree_decomposition(primal, ordering)
        decomposition.validate(figure_2_11)
        assert decomposition.num_nodes() == 6


class TestFigures3_2_to_3_6:
    """The leaf-normal-form pipeline on a concrete decomposition."""

    def test_full_pipeline(self, figure_2_11):
        decomposition = trivial_decomposition(figure_2_11)
        normal, leaf_of = transform_leaf_normal_form(
            decomposition, figure_2_11
        )
        normal.validate(figure_2_11)
        # one leaf per hyperedge, labelled by it (Figure 3.3 / 3.4)
        assert len(leaf_of) == 4
        for name, leaf in leaf_of.items():
            assert normal.bags[leaf] == set(figure_2_11.edge(name))
        # the derived ordering's bags embed in the original's (Fig. 3.6)
        ordering = extract_ordering(decomposition, figure_2_11)
        bags = elimination_bags(figure_2_11.primal_graph(), ordering)
        top_bag = figure_2_11.vertices()
        for bag in bags.values():
            assert bag <= top_bag
        assert ordering_ghw(figure_2_11, ordering, cover="exact") <= 4


class TestFigure5_2:
    """Eliminate/restore bookkeeping on the six-vertex graph."""

    def test_eliminate_6_then_2_then_restore(self):
        from repro.hypergraphs.graph import Graph

        graph = Graph(
            edges=[(1, 2), (1, 3), (2, 3), (2, 4), (3, 5), (4, 5), (5, 6), (4, 6)]
        )
        working = EliminationGraph(graph)
        working.eliminate(6)
        # eliminating 6 connects its neighbours 4 and 5 (already adjacent)
        assert working.graph().has_edge(4, 5)
        working.eliminate(2)
        # eliminating 2 connects 1-4 and 3-4
        assert working.graph().has_edge(1, 4)
        assert working.graph().has_edge(3, 4)
        working.restore_all()
        assert working.graph() == graph


class TestExample9:
    """Branch-and-bound pruning produces the optimal value anyway."""

    def test_bounded_search_matches_unbounded(self):
        from repro.instances.dimacs_like import random_gnp
        from repro.search import branch_and_bound_treewidth

        graph = random_gnp(7, 0.5, seed=99)
        pruned = branch_and_bound_treewidth(graph)
        bare = branch_and_bound_treewidth(
            graph, use_pr2=False, use_reductions=False
        )
        assert pruned.value == bare.value
        assert pruned.nodes_expanded <= bare.nodes_expanded


class TestAcyclicSolvingFigure2_5:
    """Figure 2.5's crossing-out semantics: semijoins remove exactly the
    unsupported tuples."""

    def test_semijoin_reduction_prunes_unsupported(self):
        from repro.csp.problem import Constraint, make_csp

        parent = Constraint.make(
            "parent", ("a", "b"), [(1, 1), (2, 2), (3, 3)]
        )
        child = Constraint.make("child", ("b", "c"), [(1, 9), (2, 8)])
        csp = make_csp(
            {"a": [1, 2, 3], "b": [1, 2, 3], "c": [8, 9]},
            [parent, child],
        )
        solution = acyclic_solve(csp)
        assert solution is not None
        assert solution["b"] in (1, 2)  # the (3, 3) tuple was crossed out
        assert csp.is_solution(solution)
