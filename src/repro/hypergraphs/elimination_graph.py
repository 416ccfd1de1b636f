"""A graph supporting vertex elimination with exact undo (Section 5.2.1).

The A* and branch-and-bound searches visit search states in an order that
jumps around the elimination tree. Rebuilding "the graph after eliminating
this state's prefix" from scratch for every state would dominate the run
time, so the thesis maintains a *single* graph object that can be
transformed between states by eliminating and restoring vertices.

The thesis realises this with three matrices (``A``, ``E``, ``T``); in
Python the equivalent and far clearer structure is an **undo stack**: for
every elimination we remember the vertex, its neighbourhood at elimination
time, and the set of fill-in edges the elimination inserted. Restoring the
last eliminated vertex removes those fill-in edges, re-adds the vertex and
reconnects its former neighbourhood — byte-for-byte the inverse operation.

:meth:`EliminationGraph.switch_to` transforms the graph between two
elimination prefixes sharing a common ancestor, undoing only the
non-shared suffix, exactly the optimisation described at the end of
Section 5.2.1.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field
from itertools import filterfalse

from repro.hypergraphs.graph import Graph, Vertex


@dataclass
class _EliminationRecord:
    """Everything needed to undo one elimination."""

    vertex: Vertex
    neighbours: set[Vertex]
    fill_edges: list[tuple[Vertex, Vertex]] = field(default_factory=list)


class EliminationGraph:
    """A :class:`Graph` wrapper with an elimination/restore stack."""

    def __init__(self, graph: Graph) -> None:
        self._graph = graph.copy()
        # The live adjacency dict: eliminate/restore run on raw set
        # operations, in the same order as the Graph methods would.
        self._adj = self._graph.adjacency()
        self._stack: list[_EliminationRecord] = []

    # ------------------------------------------------------------------
    # elimination and restoration
    # ------------------------------------------------------------------

    def eliminate(self, vertex: Vertex) -> set[Vertex]:
        """Eliminate ``vertex`` and push an undo record.

        Returns the neighbourhood of ``vertex`` at elimination time; the
        bag produced by this elimination step is that set plus ``vertex``
        itself.
        """
        adj = self._adj
        neighbours = set(adj[vertex])
        record = _EliminationRecord(vertex=vertex, neighbours=neighbours)
        fill_edges = record.fill_edges
        neighbour_list = list(neighbours)
        for i, u in enumerate(neighbour_list):
            linked = adj[u]
            for v in filterfalse(linked.__contains__, neighbour_list[i + 1 :]):
                linked.add(v)
                adj[v].add(u)
                fill_edges.append((u, v))
        self._graph.remove_vertex(vertex)
        self._stack.append(record)
        return neighbours

    def restore(self) -> Vertex:
        """Undo the most recent elimination; return the restored vertex."""
        if not self._stack:
            raise IndexError("no elimination to restore")
        record = self._stack.pop()
        adj = self._adj
        for u, v in record.fill_edges:
            adj[u].remove(v)
            adj[v].remove(u)
        vertex = record.vertex
        linked = adj.setdefault(vertex, set())
        for neighbour in record.neighbours:
            linked.add(neighbour)
            adj[neighbour].add(vertex)
        return vertex

    def restore_all(self) -> None:
        """Undo every elimination, returning to the original graph."""
        while self._stack:
            self.restore()

    def switch_to(self, prefix: Sequence[Vertex]) -> None:
        """Transform the graph to the state after eliminating ``prefix``.

        Restores eliminated vertices until the current elimination history
        is a prefix of ``prefix``, then eliminates the missing tail. When
        consecutive search states share a long common prefix this touches
        only the differing suffix.
        """
        current = self.eliminated()
        shared = 0
        for done, wanted in zip(current, prefix):
            if done != wanted:
                break
            shared += 1
        while len(self._stack) > shared:
            self.restore()
        for vertex in prefix[shared:]:
            self.eliminate(vertex)

    # ------------------------------------------------------------------
    # queries (delegated to the live graph)
    # ------------------------------------------------------------------

    def eliminated(self) -> list[Vertex]:
        """The elimination prefix applied so far, in order."""
        return [record.vertex for record in self._stack]

    def graph(self) -> Graph:
        """The live graph. Treat as read-only; mutate via eliminate()."""
        return self._graph

    def vertices(self) -> set[Vertex]:
        return self._graph.vertices()

    def neighbours(self, vertex: Vertex) -> set[Vertex]:
        return self._graph.neighbours(vertex)

    def degree(self, vertex: Vertex) -> int:
        return self._graph.degree(vertex)

    def num_vertices(self) -> int:
        return self._graph.num_vertices()

    def snapshot(self) -> Graph:
        """An independent copy of the live graph."""
        return self._graph.copy()

    def __len__(self) -> int:
        return self._graph.num_vertices()


def eliminate_sequence(graph: Graph, ordering: Iterable[Vertex]) -> list[set[Vertex]]:
    """Eliminate ``ordering`` from a copy of ``graph``; return the bags.

    The i-th returned set is ``{v_i} | N(v_i)`` at elimination time — the
    chi-label of the bucket for ``v_i`` (Figure 2.12). The thesis
    eliminates from the *end* of an ordering; callers are expected to pass
    the ordering in elimination order (i.e. already reversed if needed).
    """
    working = EliminationGraph(graph)
    bags: list[set[Vertex]] = []
    for vertex in ordering:
        neighbours = working.eliminate(vertex)
        bags.append({vertex} | neighbours)
    return bags
