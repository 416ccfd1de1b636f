"""Table 8.2 — BB-ghw on larger instances: anytime upper bounds.

Thesis: on instances one hour could not close, BB-ghw still *improved*
the best known upper bounds (its incumbent is always a feasible
ordering). Scaled reproduction: larger family members under a node
budget; the claim checked is the anytime contract — the incumbent never
exceeds the min-fill + greedy-cover baseline, and the reported bounds
bracket a longer run's certified value where we can afford one.
"""

from __future__ import annotations

from repro.bounds.upper import upper_bound_ordering
from repro.decompositions.elimination import ordering_ghw
from repro.instances.registry import hypergraph_instance
from repro.search import branch_and_bound_ghw

from workloads import Row, fmt_result, print_table

INSTANCES = ["adder_12", "bridge_8", "clique_10", "grid2d_5", "grid3d_2", "b08"]
NODE_BUDGET = 300


def baseline_ub(hypergraph) -> int:
    _w, ordering = upper_bound_ordering(hypergraph.primal_graph(), "min-fill")
    return ordering_ghw(hypergraph, ordering, cover="greedy")


def run_table() -> list[Row]:
    rows = []
    for name in INSTANCES:
        hypergraph = hypergraph_instance(name)
        baseline = baseline_ub(hypergraph)
        result = branch_and_bound_ghw(hypergraph, node_limit=NODE_BUDGET)
        rows.append(
            Row(
                name,
                {
                    "V": hypergraph.num_vertices(),
                    "H": hypergraph.num_edges(),
                    "baseline_ub": baseline,
                    "bb_ghw": fmt_result(result),
                    "bb_ub": result.upper_bound,
                    "bb_lb": result.lower_bound,
                },
            )
        )
    return rows


def test_table_8_2(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 8.2 — BB-ghw anytime bounds on larger instances",
            rows,
            note="claim: the BB incumbent never exceeds the min-fill + "
            "greedy baseline",
        )
    for row in rows:
        assert row.columns["bb_ub"] <= row.columns["baseline_ub"]
        assert row.columns["bb_lb"] <= row.columns["bb_ub"]


def test_benchmark_bb_ghw_budgeted_grid2d5(benchmark):
    hypergraph = hypergraph_instance("grid2d_5")
    benchmark.pedantic(
        lambda: branch_and_bound_ghw(hypergraph, node_limit=NODE_BUDGET),
        iterations=1,
        rounds=1,
    )
