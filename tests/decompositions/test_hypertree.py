"""Tests for hypertree decompositions and det-k-decomp (Section 2.3.2)."""

import pytest

from repro.decompositions.ghd import GeneralizedHypertreeDecomposition
from repro.decompositions.hypertree import (
    HypertreeDecomposition,
    det_k_decomp,
    hypertree_width,
)
from repro.decompositions.tree_decomposition import DecompositionError
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.hypergraphs import (
    adder,
    bridge,
    clique_hypergraph,
    grid2d,
    random_csp_hypergraph,
)
from repro.search import branch_and_bound_ghw


class TestValidator:
    def test_descendant_condition_violation_detected(self):
        """A GHD that is not an HD: a lambda edge smuggles a subtree
        vertex past its own bag."""
        hypergraph = Hypergraph(
            {"big": {1, 2, 3}, "left": {1, 4}, "right": {3, 4}}
        )
        ghd = GeneralizedHypertreeDecomposition()
        # root covers with "big" but keeps vertex 3 out of its bag;
        # 3 reappears below -> descendant condition broken at the root.
        root = ghd.add_node({1, 2}, {"big"})
        middle = ghd.add_node({1, 2, 3}, {"big"})
        leaf = ghd.add_node({1, 3, 4}, {"left", "right"})
        ghd.add_edge(root, middle)
        ghd.add_edge(middle, leaf)
        ghd.tree.root = root
        ghd.validate(hypergraph)  # fine as a GHD
        with pytest.raises(DecompositionError):
            HypertreeDecomposition(ghd=ghd).validate(hypergraph)

    def test_subtree_vertices(self):
        ghd = GeneralizedHypertreeDecomposition()
        root = ghd.add_node({1}, set())
        child = ghd.add_node({2}, set())
        ghd.add_edge(root, child)
        ghd.tree.root = root
        hd = HypertreeDecomposition(ghd=ghd)
        assert hd.subtree_vertices(root) == {1, 2}
        assert hd.subtree_vertices(child) == {2}


class TestDetKDecomp:
    def test_acyclic_is_width_1(self):
        hypergraph = Hypergraph({"a": {1, 2, 3}, "b": {3, 4}, "c": {4, 5}})
        decomposition = det_k_decomp(hypergraph, 1)
        assert decomposition is not None
        assert decomposition.width() <= 1

    def test_triangle_needs_2(self):
        triangle = Hypergraph({"ab": {1, 2}, "bc": {2, 3}, "ca": {1, 3}})
        assert det_k_decomp(triangle, 1) is None
        decomposition = det_k_decomp(triangle, 2)
        assert decomposition is not None
        assert decomposition.width() == 2

    def test_monotone_in_k(self):
        hypergraph = grid2d(3)
        succeeded = [
            det_k_decomp(hypergraph, k) is not None for k in (1, 2, 3, 4)
        ]
        # once feasible, stays feasible
        first_true = succeeded.index(True)
        assert all(succeeded[first_true:])

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            det_k_decomp(adder(2), 0)

    def test_result_is_validated_hd(self):
        hypergraph = adder(3)
        decomposition = det_k_decomp(hypergraph, 2)
        assert decomposition is not None
        decomposition.validate(hypergraph)  # all four conditions


class TestHypertreeWidth:
    @pytest.mark.parametrize(
        "build,expected",
        [
            (lambda: adder(3), 2),
            (lambda: clique_hypergraph(6), 3),
            (lambda: grid2d(3), 2),
            (lambda: bridge(3), 2),
        ],
    )
    def test_known_values(self, build, expected):
        k, decomposition = hypertree_width(build())
        assert k == expected
        assert decomposition.width() <= k

    def test_edgeless(self):
        k, decomposition = hypertree_width(Hypergraph(vertices=[1, 2]))
        assert k == 0

    def test_ceiling_respected(self):
        triangle = Hypergraph({"ab": {1, 2}, "bc": {2, 3}, "ca": {1, 3}})
        with pytest.raises(ValueError):
            hypertree_width(triangle, max_k=1)

    @pytest.mark.parametrize("seed", range(6))
    def test_hierarchy_ghw_le_hw(self, seed):
        """ghw <= hw <= 3 ghw + 1 on random instances."""
        hypergraph = random_csp_hypergraph(6, 5, arity=3, seed=seed + 10)
        hw, decomposition = hypertree_width(hypergraph)
        decomposition.validate(hypergraph)
        ghw = branch_and_bound_ghw(hypergraph).value
        assert ghw <= hw <= 3 * ghw + 1

    def test_hd_is_also_a_ghd(self):
        """Every HD validates as a GHD of the same width."""
        hypergraph = grid2d(3)
        hw, decomposition = hypertree_width(hypergraph)
        decomposition.ghd.validate(hypergraph)
        assert decomposition.ghd.width() == hw
