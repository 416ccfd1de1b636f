"""Seeded instance generators: deterministic, covered, well-formed."""

from repro.search import branch_and_bound_ghw
from repro.verify.generators import (
    FAMILIES,
    generate_instance,
    random_acyclic_hypergraph,
)


class TestGenerateInstance:
    def test_same_seed_same_instance(self):
        for seed in range(8):
            assert (
                generate_instance(seed).hypergraph
                == generate_instance(seed).hypergraph
            )

    def test_families_cycle_with_seed(self):
        names = {generate_instance(seed).family for seed in range(len(FAMILIES))}
        assert names == set(FAMILIES)

    def test_single_family_restriction(self):
        instance = generate_instance(7, families=("acyclic",))
        assert instance.family == "acyclic"
        assert instance.name == "verify-acyclic-7"

    def test_unknown_family_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown families"):
            generate_instance(0, families=("nope",))

    def test_every_vertex_covered(self):
        # ghw is undefined for edge-less vertices, so no generator may
        # emit one.
        for seed in range(15):
            hypergraph = generate_instance(seed).hypergraph
            covered = set()
            for edge in hypergraph.edge_sets():
                covered |= edge
            assert covered == hypergraph.vertices()

    def test_primal_graph_property(self):
        instance = generate_instance(0)
        assert instance.graph.vertices() == instance.hypergraph.vertices()


class TestAcyclicFamily:
    def test_acyclic_instances_have_ghw_one(self):
        # Join-tree growth makes the family alpha-acyclic, and acyclic
        # hypergraphs have ghw exactly 1 — a sharp oracle for the
        # conformance matrix.
        for seed in (0, 3, 9):
            hypergraph = random_acyclic_hypergraph(seed)
            result = branch_and_bound_ghw(hypergraph)
            assert result.optimal
            assert result.value == 1
