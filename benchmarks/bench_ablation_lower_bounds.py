"""Ablation — which treewidth lower bound powers the searches best.

Section 4.4.2 offers three heuristics (degeneracy/MMD, minor-min-width,
minor-gamma_R); the thesis's A*-tw uses the max of the latter two. This
bench compares the bounds' tightness on the benchmark graphs and their
effect on A*-tw node counts, confirming the thesis's choice: the
combination dominates each single bound.
"""

from __future__ import annotations

from repro.bounds.lower import degeneracy, minor_gamma_r, minor_min_width
from repro.instances.registry import graph_instance
from repro.search import astar_treewidth

from workloads import Row, print_table

GRAPHS = ["queen4_4", "queen5_5", "myciel3", "myciel4", "grid4", "grid5"]

TRUTHS = {
    "queen4_4": None,
    "queen5_5": 18,
    "myciel3": 5,
    "myciel4": 10,
    "grid4": 4,
    "grid5": 5,
}


def run_table() -> list[Row]:
    rows = []
    for name in GRAPHS:
        graph = graph_instance(name)
        mmd = degeneracy(graph)
        mmw = minor_min_width(graph)
        gr = minor_gamma_r(graph)
        rows.append(
            Row(
                name,
                {
                    "degeneracy": mmd,
                    "minor_min_width": mmw,
                    "minor_gamma_r": gr,
                    "combined": max(mmw, gr),
                    "treewidth": TRUTHS[name] or "?",
                },
            )
        )
    return rows


def test_ablation_lower_bounds(capsys):
    rows = run_table()
    with capsys.disabled():
        print_table(
            "Ablation — treewidth lower bound tightness",
            rows,
            note="the thesis combines minor-min-width with minor-gamma_R",
        )
    for row in rows:
        assert row.columns["combined"] >= row.columns["minor_min_width"]
        assert row.columns["combined"] >= row.columns["minor_gamma_r"]
        # contraction-based MMW dominates plain degeneracy
        assert row.columns["minor_min_width"] >= row.columns["degeneracy"]
        truth = TRUTHS[row.instance]
        if truth is not None:
            assert row.columns["combined"] <= truth


def test_lb_choice_affects_search_nodes(capsys):
    graph = graph_instance("myciel4")
    single = astar_treewidth(graph, lb_methods=("degeneracy",))
    combined = astar_treewidth(
        graph, lb_methods=("minor-min-width", "minor-gamma-r")
    )
    assert single.value == combined.value
    with capsys.disabled():
        print(
            f"\nA*-tw(myciel4) nodes: degeneracy-only="
            f"{single.nodes_expanded}, combined={combined.nodes_expanded}"
        )
    assert combined.nodes_expanded <= single.nodes_expanded


def test_benchmark_minor_min_width_queen5(benchmark):
    graph = graph_instance("queen5_5")
    benchmark.pedantic(
        lambda: minor_min_width(graph), iterations=3, rounds=3
    )
