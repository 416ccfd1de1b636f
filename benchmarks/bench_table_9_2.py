"""Table 9.2 — A*-ghw anytime lower bounds on larger instances.

Thesis: for instances its hour could not close, A*-ghw returned improved
*lower* bounds on the ghw (the frontier f-value is nondecreasing,
Section 5.3 applied to ghw). Reproduced: under increasing node budgets
the reported lower bound never decreases, always stays at or above the
tw-ksc-width root bound, and never crosses the incumbent upper bound.
"""

from __future__ import annotations

from repro.bounds.ghw_lower import tw_ksc_width
from repro.instances.registry import hypergraph_instance
from repro.search import astar_ghw

from workloads import Row, print_table

INSTANCES = ["clique_10", "grid2d_5", "adder_12", "b08"]
BUDGETS = (5, 50, 300)


def run_table() -> list[Row]:
    rows = []
    for name in INSTANCES:
        hypergraph = hypergraph_instance(name)
        root = tw_ksc_width(hypergraph)
        bounds = []
        upper = None
        for budget in BUDGETS:
            result = astar_ghw(hypergraph, node_limit=budget)
            bounds.append(result.lower_bound)
            upper = result.upper_bound
        rows.append(
            Row(
                name,
                {
                    "V": hypergraph.num_vertices(),
                    "H": hypergraph.num_edges(),
                    "root_lb": root,
                    **{
                        f"lb@{budget}": bound
                        for budget, bound in zip(BUDGETS, bounds)
                    },
                    "ub": upper,
                },
            )
        )
    return rows


def test_table_9_2(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 9.2 — A*-ghw anytime lower bounds",
            rows,
            note="lower bounds are nondecreasing in the budget",
        )
    for row in rows:
        bounds = [row.columns[f"lb@{budget}"] for budget in BUDGETS]
        assert bounds == sorted(bounds)
        assert bounds[0] >= row.columns["root_lb"]
        assert bounds[-1] <= row.columns["ub"]


def test_benchmark_astar_ghw_budgeted_clique10(benchmark):
    hypergraph = hypergraph_instance("clique_10")
    benchmark.pedantic(
        lambda: astar_ghw(hypergraph, node_limit=50),
        iterations=1,
        rounds=1,
    )
