"""Golden equivalence: the exact searches' observable behaviour is pinned.

Each case runs one of the four exact searches (BB / A* for tw / ghw) with
a fixed seed and compares everything a caller or the portfolio can see
against values recorded from the reference implementation:

* the result (``value``, ``lower_bound``, ``upper_bound``,
  ``nodes_expanded``, ``ordering``),
* the full metrics snapshot (node, prune and reduction counters, plus the
  set-cover counters of the ghw searches),
* the span tree (names and attributes),
* for the bus cases, every ``SolverControl`` call in order: shared-bound
  queries, published bounds (with witnesses) and checkpoint payloads.

The lower bounds draw from ``rng``, so equal node counts here also mean
the number and order of bound calls is unchanged. The reference values
live in ``search_equivalence.json`` (one case per line, compared after a
JSON round trip). Any refactor of the search must leave both files
passing as they are.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro import obs
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import mycielski_graph, queen_graph
from repro.instances.hypergraphs import adder, grid2d, random_csp_hypergraph
from repro.kernels.cache import cover_cache
from repro.obs.control import SolverControl
from repro.search import (
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)

SOLVERS = {
    "bb-tw": branch_and_bound_treewidth,
    "astar-tw": astar_treewidth,
    "bb-ghw": branch_and_bound_ghw,
    "astar-ghw": astar_ghw,
}

INSTANCES = {
    "empty": lambda: Graph(),
    "single": lambda: Graph(vertices=[7]),
    "edgeless": lambda: Hypergraph(vertices=[1, 2]),
    "myciel3": lambda: mycielski_graph(3),
    "acyclic": lambda: Hypergraph({0: {1, 2, 3}, 1: {3, 4, 5}}),
    "gnp13": lambda: _gnp(13, 0.3, seed=26),
    "csp12": lambda: _int_labelled(random_csp_hypergraph(12, 18, 2, seed=5)),
    "queen4_4": lambda: queen_graph(4),
    "myciel4": lambda: mycielski_graph(4),
    "grid2d_4": lambda: grid2d(4, 4),
    "grid2d_5": lambda: grid2d(5, 5),
    "adder_3": lambda: _int_labelled(adder(3)),
}


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def _int_labelled(hypergraph: Hypergraph) -> Hypergraph:
    """Relabel vertices and edges with ints: string hashes vary per
    process, and the heuristic orderings break ties in set order."""
    index = {v: i for i, v in enumerate(sorted(hypergraph.vertices()))}
    edges = hypergraph.edges()
    return Hypergraph({
        number: {index[v] for v in edges[name]}
        for number, name in enumerate(sorted(edges))
    })


class _BusStub(SolverControl):
    """Shares ``upper`` from the ``after``-th bound query on; logs calls."""

    def __init__(self, upper: int, after: int) -> None:
        self.upper = upper
        self.after = after
        self.queries = 0
        self.witness = None
        self.log: list[tuple] = []

    def shared_upper_bound(self) -> int | None:
        self.queries += 1
        return self.upper if self.queries > self.after else None

    def publish_upper(self, value, ordering=None) -> None:
        self.witness = list(ordering)
        self.log.append(("upper", self.queries, value, self.witness))

    def publish_lower(self, value) -> None:
        self.log.append(("lower", self.queries, value))

    def checkpoint(self, state) -> None:
        self.log.append((
            "checkpoint",
            self.queries,
            state["best_fitness"],
            state["lower_bound"],
            state["nodes"],
            state["best_individual"] == self.witness,
        ))


def _spans(span) -> tuple:
    return (span.name, tuple(sorted(span.attrs.items())),
            tuple(_spans(child) for child in span.children))


def _observe(solver: str, instance: str, bus=None, **options) -> dict:
    cover_cache().clear()
    control = _BusStub(*bus) if bus is not None else None
    with obs.instrument() as ins:
        result = SOLVERS[solver](
            INSTANCES[instance](), rng=random.Random(0), control=control,
            **options,
        )
    seen = {
        "result": (
            result.value, result.lower_bound, result.upper_bound,
            result.nodes_expanded, result.ordering,
        ),
        "metrics": result.metrics,
        "spans": tuple(_spans(root) for root in ins.tracer.roots),
    }
    if control is not None:
        seen["bus"] = (control.queries, control.log)
    return seen


# (solver, instance, options, bus (upper, after) or None) -> id
CASES = {
    "bb-tw-empty": ("bb-tw", "empty", {}, None),
    "bb-tw-single": ("bb-tw", "single", {}, None),
    "astar-tw-single": ("astar-tw", "single", {}, None),
    "bb-ghw-edgeless": ("bb-ghw", "edgeless", {}, None),
    "astar-ghw-edgeless": ("astar-ghw", "edgeless", {}, None),
    "bb-tw-myciel3": ("bb-tw", "myciel3", {}, None),
    "astar-tw-myciel3": ("astar-tw", "myciel3", {}, None),
    "bb-ghw-acyclic": ("bb-ghw", "acyclic", {}, None),
    "astar-ghw-acyclic": ("astar-ghw", "acyclic", {}, None),
    "bb-tw-gnp13": ("bb-tw", "gnp13", {}, None),
    "astar-tw-gnp13": ("astar-tw", "gnp13", {}, None),
    "bb-ghw-csp12": ("bb-ghw", "csp12", {}, None),
    "astar-ghw-csp12": ("astar-ghw", "csp12", {}, None),
    "bb-tw-gnp13-bus-above": ("bb-tw", "gnp13", {}, (99, 0)),
    "astar-tw-gnp13-bus-above": ("astar-tw", "gnp13", {}, (99, 0)),
    "bb-ghw-csp12-bus-above": ("bb-ghw", "csp12", {}, (99, 0)),
    "astar-ghw-csp12-bus-above": ("astar-ghw", "csp12", {}, (99, 0)),
    "astar-tw-queen4_4-bus-above": ("astar-tw", "queen4_4", {}, (99, 0)),
    "astar-ghw-adder_3-bus-above": ("astar-ghw", "adder_3", {}, (99, 0)),
    "astar-ghw-csp12-bus-late": ("astar-ghw", "csp12", {}, (2, 30)),
    "bb-tw-queen4_4": ("bb-tw", "queen4_4", {}, None),
    "astar-tw-queen4_4": ("astar-tw", "queen4_4", {}, None),
    "bb-tw-queen4_4-bare": (
        "bb-tw", "queen4_4",
        {"use_pr2": False, "use_reductions": False,
         "lb_methods": ("minor-min-width",)},
        None,
    ),
    "astar-tw-queen4_4-bare": (
        "astar-tw", "queen4_4",
        {"use_pr2": False, "use_reductions": False,
         "lb_methods": ("minor-min-width",)},
        None,
    ),
    "bb-tw-myciel4-capped": ("bb-tw", "myciel4", {"node_limit": 25}, None),
    "astar-tw-myciel4-capped": ("astar-tw", "myciel4", {"node_limit": 25}, None),
    "bb-ghw-grid2d_4": ("bb-ghw", "grid2d_4", {}, None),
    "astar-ghw-grid2d_4": ("astar-ghw", "grid2d_4", {}, None),
    "bb-ghw-grid2d_4-bare": (
        "bb-ghw", "grid2d_4", {"use_pr2": False, "use_reductions": False}, None,
    ),
    "astar-ghw-grid2d_4-bare": (
        "astar-ghw", "grid2d_4", {"use_pr2": False, "use_reductions": False},
        None,
    ),
    "bb-ghw-adder_3": ("bb-ghw", "adder_3", {}, None),
    "astar-ghw-adder_3": ("astar-ghw", "adder_3", {}, None),
    "bb-ghw-grid2d_5-capped": ("bb-ghw", "grid2d_5", {"node_limit": 25}, None),
    "astar-ghw-grid2d_5-capped": (
        "astar-ghw", "grid2d_5", {"node_limit": 25}, None,
    ),
    # Shared upper bound below the search's own incumbent: the ext_floor
    # paths (bus bound from the start, and appearing mid-search).
    "bb-tw-queen4_4-bus": ("bb-tw", "queen4_4", {}, (10, 0)),
    "bb-tw-queen4_4-bus-late": ("bb-tw", "queen4_4", {}, (10, 20)),
    "astar-tw-queen4_4-bus": ("astar-tw", "queen4_4", {}, (10, 0)),
    "astar-tw-queen4_4-bus-late": ("astar-tw", "queen4_4", {}, (10, 5)),
    "bb-ghw-grid2d_4-bus": ("bb-ghw", "grid2d_4", {}, (2, 0)),
    "bb-ghw-grid2d_4-bus-late": ("bb-ghw", "grid2d_4", {}, (2, 20)),
    "astar-ghw-grid2d_4-bus": ("astar-ghw", "grid2d_4", {}, (2, 0)),
    "astar-ghw-grid2d_4-bus-late": ("astar-ghw", "grid2d_4", {}, (2, 20)),
    # ... and appearing between a goal's push and its pop.
    "astar-ghw-grid2d_4-bus-goal": ("astar-ghw", "grid2d_4", {}, (2, 81)),
}

EXPECTED = json.loads(
    Path(__file__).with_name("search_equivalence.json").read_text()
)


def test_every_case_has_a_reference():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_search_matches_reference(case):
    solver, instance, options, bus = CASES[case]
    seen = _observe(solver, instance, bus, **options)
    assert json.loads(json.dumps(seen)) == EXPECTED[case]
