"""Table 5.2 — A*-tw on grid graphs.

Thesis: grid2..grid6 certified with treewidth n; grid7/grid8 interrupted
with lower bound 5*. Reproduced with grid2..grid5 certified and grid6
under a node budget (closing it takes minutes in pure Python; the thesis
itself needed 150 s in C++).
"""

from __future__ import annotations

from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.instances.dimacs_like import grid_graph
from repro.search import astar_treewidth

from workloads import SEARCH_TIME_LIMIT, Row, fmt_result, print_table

THESIS_VALUES = {2: 2, 3: 3, 4: 4, 5: 5, 6: 6}

CERTIFY = [2, 3, 4, 5]
BUDGETED = [6]


def run_table() -> list[Row]:
    rows = []
    for n in CERTIFY + BUDGETED:
        graph = grid_graph(n)
        lb = treewidth_lower_bound(graph)
        ub, _ = upper_bound_ordering(graph, "min-fill")
        kwargs = {}
        if n in BUDGETED:
            kwargs = {"time_limit": SEARCH_TIME_LIMIT, "node_limit": 30_000}
        result = astar_treewidth(graph, **kwargs)
        rows.append(
            Row(
                f"grid{n}",
                {
                    "V": graph.num_vertices(),
                    "E": graph.num_edges(),
                    "lb": lb,
                    "ub": ub,
                    "astar_tw": fmt_result(result),
                    "time_s": f"{result.elapsed:.2f}",
                    "thesis_tw": THESIS_VALUES[n],
                },
            )
        )
    return rows


def test_table_5_2(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 5.2 — A*-tw on grid graphs",
            rows,
            note="the n x n grid has treewidth n",
        )
    for row, n in zip(rows, CERTIFY):
        assert row.columns["astar_tw"] == str(n)
    # budgeted grids must still bracket the truth
    for row, n in zip(rows[len(CERTIFY):], BUDGETED):
        value = row.columns["astar_tw"]
        if "*" in value:
            lower, upper = value.replace("]", "").split("*[")
            assert int(lower) <= n <= int(upper)
        else:
            assert int(value) == n


def test_benchmark_astar_tw_grid4(benchmark):
    graph = grid_graph(4)
    result = benchmark.pedantic(
        lambda: astar_treewidth(graph), iterations=1, rounds=1
    )
    assert result.value == 4
