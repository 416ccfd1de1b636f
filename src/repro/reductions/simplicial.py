"""Simplicial and (strongly) almost simplicial reductions (Section 4.4.3).

Bodlaender et al.'s reduction rules shrink the search space of exact
treewidth algorithms without losing optimality:

* a **simplicial** vertex (neighbourhood is a clique, Definition 22) may
  always be eliminated next; the treewidth of the rest together with the
  vertex's degree determines the overall treewidth;
* a **strongly almost simplicial** vertex (all but one neighbour form a
  clique *and* its degree does not exceed a known treewidth lower bound,
  Definitions 23/24) may likewise be eliminated next.

For generalized hypertree width only the simplicial rule is used: an
optimal elimination ordering may always start at a simplicial vertex of
the (possibly filled) primal graph, because the clique ``N[v]`` must be
contained in some bag of every decomposition and eliminating ``v`` first
adds no fill (the library's DESIGN.md records the proof sketch). The
almost-simplicial rule's correctness argument compares bag *sizes*, which
does not transfer to cover *numbers*, so BB-ghw/A*-ghw do not use it.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import filterfalse

from repro.hypergraphs.graph import Graph, Vertex, vertex_sort_key


def _first(vertices: Iterable[Vertex]) -> Vertex | None:
    """The least of ``vertices`` under ``vertex_sort_key``, or ``None``.

    Equal keys keep iteration order, exactly like taking the first hit of
    a stable ``sorted`` scan, without sorting the whole vertex set.
    """
    return min(vertices, key=vertex_sort_key, default=None)


def find_simplicial(graph: Graph) -> Vertex | None:
    """Some simplicial vertex, or ``None``.

    Ties break on :func:`~repro.hypergraphs.graph.vertex_sort_key`, the
    same canonical order the bitset kernels intern vertices in, so the
    python and bitset paths force identical reduction vertices (integer
    vertices order numerically, not lexicographically by ``repr``).
    """
    return _first(filter(graph.is_simplicial, graph.vertices()))


def _low_degree_almost_simplicial(
    graph: Graph, lower_bound: int
) -> Iterator[Vertex]:
    """Almost simplicial vertices of degree <= ``lower_bound``, lazily."""
    adj = graph.adjacency()
    return (
        vertex
        for vertex in graph.vertices()
        if len(adj[vertex]) <= lower_bound and graph.is_almost_simplicial(vertex)
    )


def find_strongly_almost_simplicial(
    graph: Graph, lower_bound: int
) -> Vertex | None:
    """Some almost simplicial vertex of degree <= ``lower_bound``, or None.

    Vertices that are outright simplicial are excluded here so callers can
    distinguish the two rules; use :func:`find_reduction_vertex` for the
    combined search the A* algorithms perform.
    """
    candidates = _low_degree_almost_simplicial(graph, lower_bound)
    return _first(filterfalse(graph.is_simplicial, candidates))


def find_reduction_vertex(
    graph: Graph, lower_bound: int, allow_almost_simplicial: bool = True
) -> Vertex | None:
    """The vertex the reduction rules force as the only child, if any.

    Mirrors the child computation in Algorithm A*-tw (Figure 5.1): a
    simplicial vertex wins, otherwise a strongly almost simplicial vertex
    (with respect to ``lower_bound``) if permitted. When no vertex is
    simplicial the second rule needs no simplicial test of its own.
    """
    simplicial = find_simplicial(graph)
    if simplicial is not None or not allow_almost_simplicial:
        return simplicial
    return _first(_low_degree_almost_simplicial(graph, lower_bound))


def simplicial_preprocess(
    graph: Graph, lower_bound: int, allow_almost_simplicial: bool = True
) -> tuple[Graph, list[Vertex], int]:
    """Exhaustively apply the reduction rules before a search starts.

    Returns ``(reduced graph, eliminated prefix, updated lower bound)``.
    The treewidth of the original graph is
    ``max(updated lower bound, treewidth(reduced graph))`` and every
    optimal ordering of the reduced graph, prefixed with the eliminated
    vertices, is optimal for the original.
    """
    working = graph.copy()
    prefix: list[Vertex] = []
    bound = lower_bound
    while True:
        vertex = find_reduction_vertex(
            working, bound, allow_almost_simplicial=allow_almost_simplicial
        )
        if vertex is None:
            return working, prefix, bound
        bound = max(bound, working.degree(vertex))
        working.eliminate(vertex)
        prefix.append(vertex)
