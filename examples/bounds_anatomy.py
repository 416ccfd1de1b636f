"""Anatomy of the bounds: how the thesis's algorithms squeeze a width.

For one instance (the queen5_5 graph, treewidth 18, and the clique_10
hypergraph, ghw 5) this example shows every layer of the machinery in
action:

* heuristic upper bounds (min-fill / min-degree / MCS orderings),
* genetic upper bounds (GA-tw),
* heuristic lower bounds (degeneracy, minor-min-width, minor-gamma_R,
  tw-ksc-width),
* anytime exact search: A*'s frontier lower bound rising and B&B's
  incumbent falling as the node budget grows, until they meet.

Run with::

    python examples/bounds_anatomy.py
"""

from __future__ import annotations

from repro.bounds.ghw_lower import tw_ksc_width
from repro.bounds.lower import degeneracy, minor_gamma_r, minor_min_width
from repro.bounds.upper import upper_bound_ordering
from repro.genetic.engine import GAParameters
from repro.genetic.ga_tw import ga_treewidth
from repro.instances.dimacs_like import queen_graph
from repro.instances.hypergraphs import clique_hypergraph
from repro.search import astar_ghw, astar_treewidth


def treewidth_story() -> None:
    graph = queen_graph(5)
    print(f"queen5_5: {graph.num_vertices()} vertices, "
          f"{graph.num_edges()} edges (treewidth 18)\n")

    print("upper bounds from ordering heuristics:")
    for heuristic in ("min-fill", "min-degree", "min-width", "mcs"):
        width, _ = upper_bound_ordering(graph, heuristic)
        print(f"  {heuristic:>10}: {width}")

    ga = ga_treewidth(
        graph,
        parameters=GAParameters(population_size=30, max_iterations=30),
        seed=0,
    )
    print(f"  {'GA-tw':>10}: {ga.best_fitness} "
          f"({ga.evaluations} evaluations)")

    print("\nlower bounds from minors:")
    print(f"  degeneracy (MMD): {degeneracy(graph)}")
    print(f"  minor-min-width : {minor_min_width(graph)}")
    print(f"  minor-gamma_R   : {minor_gamma_r(graph)}")

    print("\nanytime A*-tw (frontier lower bound rises with the budget):")
    for budget in (10, 100, 1000, None):
        result = astar_treewidth(graph, node_limit=budget)
        label = f"{budget} nodes" if budget else "unbounded"
        if result.optimal:
            print(f"  {label:>12}: certified treewidth = {result.value}")
            break
        print(
            f"  {label:>12}: bounds [{result.lower_bound}, "
            f"{result.upper_bound}]"
        )


def ghw_story() -> None:
    hypergraph = clique_hypergraph(10)
    print(
        f"\nclique_10: {hypergraph.num_vertices()} vertices, "
        f"{hypergraph.num_edges()} pair edges (ghw 5)\n"
    )
    print(f"tw-ksc-width root lower bound: {tw_ksc_width(hypergraph)}")
    result = astar_ghw(hypergraph)
    print(f"A*-ghw: {result.summary()}")


def main() -> None:
    treewidth_story()
    ghw_story()


if __name__ == "__main__":
    main()
