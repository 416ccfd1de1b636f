"""Tests for Bayesian networks, moralization and junction trees."""

import pytest

from repro.bayes.network import (
    BayesianNetwork,
    CycleError,
    chain_network,
    junction_tree,
    naive_bayes_network,
    sprinkler_network,
)
from repro.search import astar_treewidth


class TestStructure:
    def test_duplicate_variable(self):
        network = BayesianNetwork()
        network.add_variable("a", 2)
        with pytest.raises(ValueError):
            network.add_variable("a", 3)

    def test_zero_states(self):
        network = BayesianNetwork()
        with pytest.raises(ValueError):
            network.add_variable("a", 0)

    def test_edge_to_unknown(self):
        network = BayesianNetwork()
        network.add_variable("a", 2)
        with pytest.raises(KeyError):
            network.add_edge("a", "b")

    def test_self_loop(self):
        network = BayesianNetwork()
        network.add_variable("a", 2)
        with pytest.raises(CycleError):
            network.add_edge("a", "a")

    def test_cycle_rejected_and_rolled_back(self):
        network = chain_network(3)
        with pytest.raises(CycleError):
            network.add_edge("X2", "X0")
        # rollback: the bad edge is not kept
        assert "X2" not in network.parents("X0")

    def test_family_table_size(self):
        network = sprinkler_network()
        assert network.family_table_size("wet") == 8  # 2 * 2 * 2
        assert network.family_table_size("cloudy") == 2


class TestMoralization:
    def test_sprinkler_moral_graph(self):
        moral = sprinkler_network().moral_graph()
        # moralization marries sprinkler and rain
        assert moral.has_edge("sprinkler", "rain")
        assert moral.num_edges() == 5
        assert astar_treewidth(moral).value == 2

    def test_chain_moral_graph_is_path(self):
        moral = chain_network(5).moral_graph()
        assert moral.num_edges() == 4
        assert astar_treewidth(moral).value == 1

    def test_naive_bayes_moral_graph_is_star(self):
        moral = naive_bayes_network(6).moral_graph()
        assert moral.degree("class") == 6
        assert astar_treewidth(moral).value == 1


class TestJunctionTree:
    def test_chain_cost(self):
        network = chain_network(4, states=2)
        jt = junction_tree(network, ordering=[f"X{i}" for i in range(4)])
        assert jt.width() == 1
        # bags {X0,X1},{X1,X2},{X2,X3},{X3}: 4+4+4+2 = 14
        assert jt.total_table_size == 14

    def test_default_ga_ordering(self):
        network = sprinkler_network()
        jt = junction_tree(network, seed=0)
        assert jt.width() == 2
        jt.tree.validate(network.moral_graph())

    def test_heavy_variables_avoided(self):
        """A huge class variable should not end up in big bags."""
        network = naive_bayes_network(5, class_states=50)
        jt = junction_tree(network, seed=0)
        # star moral graph: bags are pairs {class, f_i}; the naive
        # "features first" ordering costs 5*150 + 50 = 800, and the GA
        # may shave the tail by eliminating the class before the last
        # feature (4*150 + 150 + 3 = 753). Either way: width 1, <= 800.
        assert jt.width() == 1
        assert jt.total_table_size <= 800

    def test_log_cost_consistent(self):
        import math

        network = chain_network(3)
        jt = junction_tree(network, ordering=["X0", "X1", "X2"])
        assert jt.log2_cost == pytest.approx(
            math.log2(jt.total_table_size)
        )
