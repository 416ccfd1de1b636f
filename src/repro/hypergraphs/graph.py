"""Mutable undirected graphs with the operations the thesis relies on.

The search algorithms of Schafhauser's thesis (A*-tw, BB-ghw, ...) act on
*regular graphs* — usually the primal graph of a hypergraph — and repeatedly
perform three operations:

* **vertex elimination**: connect all neighbours of a vertex into a clique,
  then remove the vertex (Section 2.5.3),
* **edge contraction**: merge a vertex into a neighbour (used by the
  minor-min-width and minor-gamma_R lower bounds, Figures 4.7 and 4.8),
* **neighbourhood queries**: degrees, adjacency tests, simplicial checks.

:class:`Graph` keeps adjacency as ``dict[vertex, set[vertex]]`` which makes
all of those O(degree). Vertices may be any hashable objects; instance
generators use ints or short strings.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from itertools import combinations
from typing import Any

Vertex = Hashable


def vertex_sort_key(vertex: Vertex) -> tuple:
    """The library-wide canonical sort key for vertices.

    Every deterministic vertex tie-break — the simplicial reduction
    rules, the bitset kernels' interning, witness-ordering fallbacks —
    must sort with this one key so the pure-Python and bitset paths pick
    identical vertices. Real numbers order by value (``2`` before
    ``10``), everything else by ``repr``; numbers sort before
    non-numbers so mixed vertex families still have one total order.
    ``bool`` is excluded from the numeric branch because ``True == 1``
    would collide with an integer vertex ``1``.
    """
    if isinstance(vertex, (int, float)) and not isinstance(vertex, bool):
        return (0, vertex, "")
    return (1, 0, repr(vertex))


class Graph:
    """A simple undirected graph (no loops, no parallel edges)."""

    def __init__(
        self,
        vertices: Iterable[Vertex] = (),
        edges: Iterable[tuple[Vertex, Vertex]] = (),
    ) -> None:
        self._adj: dict[Vertex, set[Vertex]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` if not already present."""
        self._adj.setdefault(vertex, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Self-loops are rejected: the decomposition algorithms assume simple
        graphs and a silent loop would corrupt degree-based heuristics.
        """
        if u == v:
            raise ValueError(f"self-loop on {u!r} is not allowed")
        self._adj.setdefault(u, set()).add(v)
        self._adj.setdefault(v, set()).add(u)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        """Remove the edge ``{u, v}``; raise :class:`KeyError` if absent."""
        try:
            self._adj[u].remove(v)
            self._adj[v].remove(u)
        except KeyError as exc:
            raise KeyError(f"edge {{{u!r}, {v!r}}} not in graph") from exc

    def remove_vertex(self, vertex: Vertex) -> None:
        """Remove ``vertex`` and all incident edges."""
        for neighbour in self._adj.pop(vertex):
            self._adj[neighbour].discard(vertex)

    def add_clique(self, vertices: Iterable[Vertex]) -> None:
        """Pairwise connect ``vertices`` (used when eliminating a vertex)."""
        vertex_list = list(vertices)
        for vertex in vertex_list:
            self.add_vertex(vertex)
        for u, v in combinations(vertex_list, 2):
            self.add_edge(u, v)

    def eliminate(self, vertex: Vertex) -> set[Vertex]:
        """Eliminate ``vertex``: clique its neighbourhood, then remove it.

        Returns the neighbourhood that was turned into a clique, i.e. the
        bag ``chi(B_v) - {v}`` that vertex elimination (Figure 2.12)
        associates with ``vertex``.
        """
        neighbours = set(self._adj[vertex])
        self.add_clique(neighbours)
        self.remove_vertex(vertex)
        return neighbours

    def contract(self, u: Vertex, v: Vertex) -> None:
        """Contract edge ``{u, v}`` by merging ``v`` into ``u``.

        Every neighbour of ``v`` (except ``u``) becomes a neighbour of
        ``u``; ``v`` disappears. This is the minor operation used by the
        lower-bound heuristics of Section 4.4.2.
        """
        adj = self._adj
        merged = adj[u]
        if v not in merged:
            raise KeyError(f"cannot contract non-edge {{{u!r}, {v!r}}}")
        # Per set, the adds and discards of add_edge(u, x) for each x in
        # N(v) followed by remove_vertex(v), in that order: the lower
        # bounds' tie-breaks follow the resulting set iteration orders.
        for neighbour in adj.pop(v):
            if neighbour != u:
                merged.add(neighbour)
                linked = adj[neighbour]
                linked.add(u)
                linked.discard(v)
        merged.discard(v)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def vertices(self) -> set[Vertex]:
        """A fresh set of all vertices."""
        return set(self._adj)

    def edges(self) -> set[frozenset[Vertex]]:
        """All edges as 2-element frozensets."""
        seen: set[frozenset[Vertex]] = set()
        for u, neighbours in self._adj.items():
            for v in neighbours:
                seen.add(frozenset((u, v)))
        return seen

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        """A fresh copy of the neighbourhood of ``vertex``."""
        return set(self._adj[vertex])

    def adjacency(self) -> dict[Vertex, set[Vertex]]:
        """The live ``vertex -> neighbour set`` dict, not a copy.

        For the search's inner loops (lower bounds, reductions, the
        elimination undo stack), which need C-level set operations
        instead of one method call per adjacency test. Read-only unless
        the caller owns the graph; a mutation must keep it symmetric and
        loop-free.
        """
        return self._adj

    def degree(self, vertex: Vertex) -> int:
        return len(self._adj[vertex])

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adj and v in self._adj[u]

    def num_vertices(self) -> int:
        return len(self._adj)

    def num_edges(self) -> int:
        return sum(len(neighbours) for neighbours in self._adj.values()) // 2

    def is_clique(self, vertices: Iterable[Vertex]) -> bool:
        """``True`` iff ``vertices`` are pairwise adjacent.

        An iterable naming some vertex twice is never a clique (the vertex
        would have to be adjacent to itself); fewer than two entries
        always are, present in the graph or not.
        """
        vertex_list = list(vertices)
        if len(vertex_list) < 2:
            return True
        members = set(vertex_list)
        if len(members) < len(vertex_list) or not self._adj.keys() >= members:
            return False
        return _is_clique(self._adj, members)

    def is_simplicial(self, vertex: Vertex) -> bool:
        """A vertex is simplicial if its neighbourhood induces a clique."""
        return _is_clique(self._adj, self._adj[vertex])

    def is_almost_simplicial(self, vertex: Vertex) -> bool:
        """All but (at most) one neighbour induce a clique (Definition 23).

        A simplicial vertex is in particular almost simplicial. One pass
        over the neighbourhood: every non-edge inside it must touch one
        common neighbour ``w``, the one left out of the clique.
        """
        adj = self._adj
        neighbours = adj[vertex]
        common: set[Vertex] | None = None
        for u in neighbours:
            missing = neighbours - adj[u]
            if len(missing) == 1:
                continue  # only u itself: adjacent to every other neighbour
            missing.discard(u)
            # Each non-edge {u, x} touches w iff w is u or x is w.
            touching = {u, *missing} if len(missing) == 1 else {u}
            common = touching if common is None else common & touching
            if not common:
                return False
        return True

    def connected_components(self) -> list[set[Vertex]]:
        """Connected components via iterative DFS."""
        remaining = set(self._adj)
        components: list[set[Vertex]] = []
        while remaining:
            root = next(iter(remaining))
            component = {root}
            stack = [root]
            while stack:
                current = stack.pop()
                for neighbour in self._adj[current]:
                    if neighbour not in component:
                        component.add(neighbour)
                        stack.append(neighbour)
            remaining -= component
            components.append(component)
        return components

    def subgraph(self, vertices: Iterable[Vertex]) -> "Graph":
        """The subgraph induced by ``vertices``."""
        keep = set(vertices)
        missing = keep - set(self._adj)
        if missing:
            raise KeyError(f"vertices not in graph: {sorted(map(repr, missing))}")
        result = Graph(vertices=keep)
        for vertex in keep:
            for neighbour in self._adj[vertex] & keep:
                result.add_edge(vertex, neighbour)
        return result

    def copy(self) -> "Graph":
        """A deep, independent copy."""
        result = Graph()
        result._adj = {vertex: set(adj) for vertex, adj in self._adj.items()}
        return result

    def fill_in(self, vertex: Vertex) -> int:
        """Number of edges that eliminating ``vertex`` would insert.

        This is the quantity minimised by the min-fill heuristic
        (Section 4.4.2).
        """
        neighbours = list(self._adj[vertex])
        missing = 0
        for u, v in combinations(neighbours, 2):
            if v not in self._adj[u]:
                missing += 1
        return missing

    # ------------------------------------------------------------------
    # dunder plumbing
    # ------------------------------------------------------------------

    def __contains__(self, vertex: object) -> bool:
        return vertex in self._adj

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adj)

    def __len__(self) -> int:
        return len(self._adj)

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return (
            f"Graph(|V|={self.num_vertices()}, |E|={self.num_edges()})"
        )


def _is_clique(adj: dict[Vertex, set[Vertex]], members: set[Vertex]) -> bool:
    """Are the distinct graph vertices ``members`` pairwise adjacent?"""
    others = len(members) - 1
    return all(len(members & adj[u]) == others for u in members)


def complete_graph(n: int) -> Graph:
    """The complete graph K_n on vertices ``0..n-1``."""
    graph = Graph(vertices=range(n))
    graph.add_clique(range(n))
    return graph


def path_graph(n: int) -> Graph:
    """The path P_n on vertices ``0..n-1``."""
    graph = Graph(vertices=range(n))
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def cycle_graph(n: int) -> Graph:
    """The cycle C_n on vertices ``0..n-1`` (``n >= 3``)."""
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    graph = path_graph(n)
    graph.add_edge(n - 1, 0)
    return graph
