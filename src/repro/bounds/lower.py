"""Treewidth lower-bound heuristics (Section 4.4.2).

All bounds here exploit the facts that (a) the treewidth of a graph is at
least the treewidth of any of its *minors* and (b) simple degree-based
parameters bound treewidth from below:

* **MMD / degeneracy**: repeatedly delete a minimum-degree vertex; the
  largest minimum degree seen is a lower bound.
* **minor-min-width** (Figure 4.7, QuickBB; independently MMD+(least-c)):
  like MMD but *contract* the minimum-degree vertex into its
  smallest-degree neighbour, strengthening the bound via minors.
* **gamma_R**: Ramachandramurthi's parameter — ``n - 1`` for a complete
  graph, otherwise the minimum over non-adjacent pairs ``u, v`` of
  ``max(degree(u), degree(v))``; always a treewidth lower bound.
* **minor-gamma_R** (Figure 4.8): maximise gamma_R over a sequence of
  minors obtained by contracting low-degree vertices.

``treewidth_lower_bound`` returns the max of the selected heuristics,
matching the thesis's choice for A*-tw ("the maximum of the values
returned by the minor-min-width heuristic and the minor-gamma_R
heuristic").
"""

from __future__ import annotations

import random
from itertools import compress

from repro.hypergraphs.graph import Graph, Vertex

# The bounds work on a private copy of the graph, reading its adjacency
# dict directly. Their tie-breaks draw from ``rng`` over candidate lists
# in dict order (min-degree vertex) and in the iteration order of a copy
# of the neighbour set (partner); both orders, hence the draws and the
# searches' node counts, depend on every add and discard happening in
# the order Graph.contract and Graph.remove_vertex do them.


def _min_degree_vertex(
    adj: dict[Vertex, set[Vertex]], rng: random.Random | None
) -> tuple[Vertex, int]:
    """A minimum-degree vertex (ties by ``rng`` in dict order) and its degree."""
    lowest = min(map(len, adj.values()))
    candidates = list(compress(adj, map(lowest.__eq__, map(len, adj.values()))))
    if rng is None:
        return min(candidates, key=repr), lowest
    return rng.choice(candidates), lowest


def _contract_into_min_neighbour(
    graph: Graph, vertex: Vertex, rng: random.Random | None
) -> None:
    """Contract ``vertex``'s edge to its minimum-degree neighbour.

    Isolated vertices are simply removed (there is no edge to contract;
    removing them never increases any degree-based bound).
    """
    adj = graph.adjacency()
    # Partner candidates follow a fresh copy's iteration order, which can
    # differ from the live set's (a copy drops the deleted slots).
    neighbours = set(adj[vertex])
    if not neighbours:
        graph.remove_vertex(vertex)
        return
    degrees = list(map(len, map(adj.__getitem__, neighbours)))
    lowest = min(degrees)
    candidates = list(compress(neighbours, map(lowest.__eq__, degrees)))
    if rng is None:
        partner = min(candidates, key=repr)
    else:
        partner = rng.choice(candidates)
    graph.contract(partner, vertex)


def degeneracy(graph: Graph, rng: random.Random | None = None) -> int:
    """MMD: the degeneracy of the graph, a treewidth lower bound."""
    working = graph.copy()
    adj = working.adjacency()
    bound = 0
    while adj:
        vertex, degree = _min_degree_vertex(adj, rng)
        bound = max(bound, degree)
        working.remove_vertex(vertex)
    return bound


def minor_min_width(graph: Graph, rng: random.Random | None = None) -> int:
    """Figure 4.7: the minor-min-width treewidth lower bound."""
    working = graph.copy()
    adj = working.adjacency()
    bound = 0
    while adj:
        vertex, degree = _min_degree_vertex(adj, rng)
        bound = max(bound, degree)
        _contract_into_min_neighbour(working, vertex, rng)
    return bound


def gamma_r(graph: Graph) -> int:
    """Ramachandramurthi's gamma parameter of ``graph``.

    ``n - 1`` if the graph is complete, else the minimum over non-adjacent
    pairs of the larger degree. Computed by a scan in ascending degree
    order (Figure 4.8 step b/c): the first vertex not adjacent to all its
    predecessors has exactly that degree, whatever the order among equal
    degrees.
    """
    adj = graph.adjacency()
    n = len(adj)
    if n == 0:
        return 0
    neighbour_sets = list(adj.values())
    degrees = list(map(len, neighbour_sets))
    if min(degrees) == n - 1:
        return n - 1
    vertices = list(adj)
    predecessors: set[Vertex] = set()
    for index in sorted(range(n), key=degrees.__getitem__):
        if not predecessors.issubset(neighbour_sets[index]):
            return degrees[index]
        predecessors.add(vertices[index])
    return n - 1


def minor_gamma_r(graph: Graph, rng: random.Random | None = None) -> int:
    """Figure 4.8: maximise gamma_R over minimum-degree contractions.

    gamma_R of an ``n``-vertex minor is at most ``n - 1``, so it is only
    evaluated while that could raise the bound; the contractions (and
    their ``rng`` draws) all still run.
    """
    working = graph.copy()
    adj = working.adjacency()
    bound = 0
    while adj:
        if len(adj) - 1 > bound:
            bound = max(bound, gamma_r(working))
        if len(adj) == 1:
            break
        vertex, _ = _min_degree_vertex(adj, rng)
        _contract_into_min_neighbour(working, vertex, rng)
    return bound


_METHODS = {
    "degeneracy": degeneracy,
    "minor-min-width": minor_min_width,
    "minor-gamma-r": minor_gamma_r,
}


def lower_bound_names() -> list[str]:
    return list(_METHODS)


def treewidth_lower_bound(
    graph: Graph,
    methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
) -> int:
    """Max of the selected heuristics (the thesis's A*-tw combination)."""
    if graph.num_vertices() == 0:
        return 0
    best = 0
    for name in methods:
        method = _METHODS.get(name)
        if method is None:
            raise ValueError(
                f"unknown lower bound {name!r}; choose from {lower_bound_names()}"
            )
        best = max(best, method(graph, rng))
    return best
