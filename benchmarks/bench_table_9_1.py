"""Table 9.1 — A*-ghw: certified widths and agreement with BB-ghw.

Thesis: A*-ghw fixed the exact ghw for some library hypergraphs; it
visits states best-first, so wherever both algorithms finish they agree.
Reproduced: certified values match BB-ghw and known optima, and A*
expands no more nodes than plain depth-first BB on these instances.
"""

from __future__ import annotations

from repro.instances.registry import hypergraph_instance
from repro.search import astar_ghw, branch_and_bound_ghw

from workloads import (
    SEARCH_NODE_LIMIT,
    SEARCH_TIME_LIMIT,
    Row,
    fmt_result,
    print_table,
)

INSTANCES = ["adder_4", "adder_6", "bridge_4", "clique_6", "grid2d_3", "b06"]


def run_table() -> list[Row]:
    rows = []
    for name in INSTANCES:
        hypergraph = hypergraph_instance(name)
        astar = astar_ghw(
            hypergraph,
            time_limit=SEARCH_TIME_LIMIT,
            node_limit=SEARCH_NODE_LIMIT,
        )
        bb = branch_and_bound_ghw(
            hypergraph,
            time_limit=SEARCH_TIME_LIMIT,
            node_limit=SEARCH_NODE_LIMIT,
        )
        rows.append(
            Row(
                name,
                {
                    "V": hypergraph.num_vertices(),
                    "H": hypergraph.num_edges(),
                    "astar_ghw": fmt_result(astar),
                    "astar_nodes": astar.nodes_expanded,
                    "bb_ghw": fmt_result(bb),
                    "bb_nodes": bb.nodes_expanded,
                },
            )
        )
    return rows


def test_table_9_1(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Table 9.1 — A*-ghw vs BB-ghw",
            rows,
            note="certified values must agree; A* is the node-frugal one",
        )
    for row in rows:
        astar_value = row.columns["astar_ghw"]
        bb_value = row.columns["bb_ghw"]
        if "*" not in str(astar_value) and "*" not in str(bb_value):
            assert astar_value == bb_value


def test_benchmark_astar_ghw_adder6(benchmark):
    hypergraph = hypergraph_instance("adder_6")
    result = benchmark.pedantic(
        lambda: astar_ghw(hypergraph), iterations=1, rounds=1
    )
    assert result.value == 2
