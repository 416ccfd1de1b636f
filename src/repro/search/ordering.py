"""Exact width search over elimination-ordering prefixes (Chapters 4-5, 8-9).

The thesis builds all four of its exact solvers from the same two parts.
The search space is the tree of elimination-ordering prefixes — sound and
complete for treewidth and, by Theorems 2 and 3, for generalized
hypertree width. A prefix costs ``g``, the largest bag cost so far.

* A **width measure** says what a bag costs and how to bound the rest:

  - :class:`_Treewidth` — a bag costs the eliminated vertex's degree;
    the remainder is bounded by minor-min-width / minor-gamma_R
    (Section 4.4.2); simplicial and strongly almost simplicial vertices
    are forced (Section 4.4.3); finishing now costs ``remaining - 1``.
  - :class:`_Ghw` — a bag costs its *exact* set-cover size over the
    original hyperedges (Definition 17); the remainder is bounded by
    tw-ksc-width (Section 8.1); simplicial vertices are forced (Section
    8.2); finishing now costs the greedy cover of the whole remainder
    (Section 8.3), and PR2 only swaps non-adjacent vertices.

* A **frontier** says in which order prefixes are visited:

  - :class:`_BranchAndBound` — depth first, lowest degree first, pruning
    against an incumbent that improves as PR1 certificates are offered
    (QuickBB-style BB-tw of Section 4.4; BB-ghw of Chapter 8);
  - :class:`_AStar` — best first on ``f = max(g, h, f(parent))``,
    deeper first among equal ``f`` (Figure 5.1). ``f`` never decreases
    along a path, so the last popped ``f`` is an anytime *lower* bound
    (Section 5.3, Tables 5.1 and 9.1/9.2), and the first popped state
    whose PR1 certificate closes it is a goal.

Everything else — the incumbent, the portfolio bound bus, checkpoints,
counters, spans and results — is written once here. The four public
searches fix one measure and one frontier each.

**Bound bus.** With a :class:`SolverControl` the search also prunes
against the portfolio-wide incumbent. Once it has pruned against a bus
bound below its own incumbent (``ext_floor``), exhausting the search
only proves ``optimum >= ext_floor`` — the matching witness lives
elsewhere on the bus — so the result is an interrupted bracket and the
portfolio, not this search, certifies optimality.
"""

from __future__ import annotations

import heapq
import random
from itertools import count

from repro import obs
from repro.bounds.ghw_lower import tw_ksc_width_remaining
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import (
    min_degree_ordering,
    min_fill_ordering,
    upper_bound_ordering,
)
from repro.decompositions.elimination import elimination_bags
from repro.hypergraphs.elimination_graph import EliminationGraph
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl
from repro.reductions.pruning import (
    pr1_ghw,
    pr1_treewidth,
    pr2_prune_children,
    swap_safe_ghw,
    swap_safe_treewidth,
)
from repro.reductions.simplicial import find_reduction_vertex, find_simplicial
from repro.search.common import (
    SearchBudget,
    SearchResult,
    attach_metrics,
    interrupted,
)
from repro.setcover.exact import ExactSetCoverSolver
from repro.setcover.greedy import greedy_set_cover

# The measures call the bound, cover and reduction functions through
# this module's globals at call time, so instrumentation that rebinds
# them (a layer tracer, a profiler shim) sees every call.


class _Treewidth:
    """tw: bag cost = degree, minor-based remainder bounds."""

    kind = "tw"

    def __init__(
        self, graph: Graph, lb_methods: tuple[str, ...], rng: random.Random | None
    ) -> None:
        self.graph = graph
        self.lb_methods = lb_methods
        self.rng = rng

    def trivial(self) -> bool:
        return self.graph.num_vertices() <= 1

    def size(self) -> dict[str, int]:
        return {"vertices": self.graph.num_vertices()}

    def root_bounds(self) -> tuple[int, int, list[Vertex]]:
        lb = treewidth_lower_bound(self.graph, methods=self.lb_methods, rng=self.rng)
        ub, ordering = upper_bound_ordering(self.graph, "min-fill", self.rng)
        return lb, ub, ordering

    def bag_cost(self, working: EliminationGraph, child: Vertex) -> int:
        return working.degree(child)

    def remainder_bound(self, working: EliminationGraph) -> int:
        return treewidth_lower_bound(
            working.graph(), methods=self.lb_methods, rng=self.rng
        )

    def reduction(self, graph: Graph, floor: int) -> Vertex | None:
        return find_reduction_vertex(graph, floor)

    def finish_now(self, g: int, working: EliminationGraph) -> tuple[int, bool]:
        return pr1_treewidth(g, working.num_vertices())

    def pr2(self, graph: Graph, last: Vertex, children: list[Vertex]) -> list[Vertex]:
        return pr2_prune_children(graph, last, children, swap_safe=swap_safe_treewidth)


class _Ghw:
    """ghw: bag cost = exact cover size, tw-ksc-width remainder bounds.

    Exact covers come from one memoised set-cover solver shared across the
    whole search — elimination bags repeat massively.
    """

    kind = "ghw"

    def __init__(
        self,
        hypergraph: Hypergraph,
        lb_methods: tuple[str, ...],
        rng: random.Random | None,
    ) -> None:
        self.hypergraph = hypergraph
        self.graph = hypergraph.primal_graph()
        self.edges = hypergraph.edges()
        self.solver = ExactSetCoverSolver(self.edges)
        self.lb_methods = lb_methods
        self.rng = rng

    def trivial(self) -> bool:
        return self.hypergraph.num_vertices() == 0 or self.hypergraph.num_edges() == 0

    def size(self) -> dict[str, int]:
        return {
            "vertices": self.hypergraph.num_vertices(),
            "edges": self.hypergraph.num_edges(),
        }

    def root_bounds(self) -> tuple[int, int, list[Vertex]]:
        lb = tw_ksc_width_remaining(
            self.hypergraph, self.graph, tw_methods=self.lb_methods, rng=self.rng
        )
        # Best heuristic ordering scored with *exact* covers: greedy
        # covers would be sound too, but the orderings are few and exact
        # scoring gives a genuinely attainable incumbent.
        scored = []
        for build in (min_fill_ordering, min_degree_ordering):
            ordering = build(self.graph, self.rng)
            bags = elimination_bags(self.graph, ordering)
            width = max(
                (self.solver.cover_size(bag) for bag in bags.values()), default=0
            )
            scored.append((width, ordering))
        ub, ordering = min(scored, key=lambda pair: pair[0])
        return lb, ub, ordering

    def bag_cost(self, working: EliminationGraph, child: Vertex) -> int:
        return self.solver.cover_size({child} | working.neighbours(child))

    def remainder_bound(self, working: EliminationGraph) -> int:
        return tw_ksc_width_remaining(
            self.hypergraph, working.graph(), tw_methods=self.lb_methods, rng=self.rng
        )

    def reduction(self, graph: Graph, floor: int) -> Vertex | None:
        return find_simplicial(graph)

    def finish_now(self, g: int, working: EliminationGraph) -> tuple[int, bool]:
        remaining = working.vertices()
        cover = 0
        if remaining:
            restricted = {
                name: frozenset(edge & remaining)
                for name, edge in self.edges.items()
                if edge & remaining
            }
            cover = len(greedy_set_cover(remaining, restricted))
        return pr1_ghw(g, cover)

    def pr2(self, graph: Graph, last: Vertex, children: list[Vertex]) -> list[Vertex]:
        return pr2_prune_children(graph, last, children, swap_safe=swap_safe_ghw)


class _Incumbent:
    """Best complete ordering so far, and the bound the search prunes at.

    :meth:`bound` is the smaller of our own width and the bus incumbent;
    ``ext_floor`` remembers the smallest bus bound ever used below our
    own width.
    """

    def __init__(
        self, width: int, ordering: list[Vertex], control: SolverControl | None
    ) -> None:
        self.width = width
        self.ordering = ordering
        self.control = control
        self.ext_floor: int | None = None

    def offer(self, width: int, ordering: list[Vertex]) -> None:
        if width < self.width:
            self.width = width
            self.ordering = ordering
            if self.control is not None:
                self.control.publish_upper(width, ordering)

    def bound(self) -> int:
        if self.control is not None:
            shared = self.control.shared_upper_bound()
            if shared is not None and shared < self.width:
                if self.ext_floor is None or shared < self.ext_floor:
                    self.ext_floor = shared
                return shared
        return self.width

    def cap(self, lower: int) -> int:
        """A frontier bound above a bus bound we pruned at proves nothing."""
        return lower if self.ext_floor is None else min(lower, self.ext_floor)


class _Search:
    """One run of one measure under one frontier.

    Subclasses are the frontiers: they set ``kind`` and the prune rules
    they count, publish the root bounds (each frontier in its own order,
    which the bus sees), and :meth:`explore` the tree.
    """

    kind: str
    prune_rules: tuple[str, ...]

    def __init__(
        self,
        measure: _Treewidth | _Ghw,
        time_limit: float | None,
        node_limit: int | None,
        use_pr2: bool,
        use_reductions: bool,
        control: SolverControl | None,
    ) -> None:
        self.measure = measure
        self.name = f"{self.kind}-{measure.kind}"
        self.budget = SearchBudget(time_limit=time_limit, node_limit=node_limit)
        self.use_pr2 = use_pr2
        self.use_reductions = use_reductions
        self.control = control
        self.ins = obs.current()
        metrics = self.ins.metrics
        self.nodes = metrics.counter("nodes", solver=self.name)
        self.prunes = {
            rule: metrics.counter("prunes", rule=rule, solver=self.name)
            for rule in self.prune_rules
        }
        self.forced = metrics.counter("reductions", kind="forced", solver=self.name)

    def run(self) -> SearchResult:
        measure = self.measure
        if measure.trivial():
            return self.result(0, 0, sorted(measure.graph.vertices(), key=repr))
        tracer = self.ins.tracer
        with tracer.span(self.name, **measure.size()):
            with tracer.span("root_bounds"):
                lb, ub, ordering = measure.root_bounds()
            self.incumbent = _Incumbent(ub, ordering, self.control)
            if self.control is not None:
                self.publish_root(lb)
            if lb >= ub:
                return self.result(lb, ub, ordering)
            self.working = EliminationGraph(measure.graph)
            children = sorted(measure.graph.vertices(), key=repr)
            forced = False
            if self.use_reductions:
                reduction = measure.reduction(measure.graph, lb)
                if reduction is not None:
                    children, forced = [reduction], True
            with tracer.span("search"):
                return self.explore(lb, children, forced)

    def publish_root(self, lb: int) -> None:
        raise NotImplementedError

    def explore(self, lb: int, children: list[Vertex], forced: bool) -> SearchResult:
        raise NotImplementedError

    # -- shared steps ---------------------------------------------------

    def should_stop(self) -> bool:
        return self.budget.exhausted() or (
            self.control is not None and self.control.should_stop()
        )

    def expand(self, lower: int) -> None:
        """Count one expanded node and offer a best-so-far checkpoint."""
        self.budget.charge()
        self.nodes.inc()
        if self.control is not None:
            self.control.checkpoint(
                {
                    "best_fitness": self.incumbent.width,
                    "best_individual": list(self.incumbent.ordering),
                    "lower_bound": lower,
                    "nodes": self.budget.nodes,
                }
            )

    def completion(self) -> list[Vertex]:
        """The current prefix finished in canonical order."""
        working = self.working
        return working.eliminated() + sorted(working.vertices(), key=repr)

    def descend(
        self, child: Vertex, forced: bool, floor: int
    ) -> tuple[list[Vertex], bool, int]:
        """Eliminate ``child`` (undo with ``working.restore()``).

        Returns its children — PR2-pruned against ``child`` unless this
        node's children were forced, or a single forced reduction vertex
        — whether they are forced, and the remainder's lower bound.
        ``floor`` is the width the reduction rule may assume.
        """
        working = self.working
        children = [v for v in working.vertices() if v != child]
        if self.use_pr2 and not forced:
            kept = self.measure.pr2(working.graph(), child, children)
            self.prunes["pr2"].inc(len(children) - len(kept))
            children = kept
        working.eliminate(child)
        child_forced = False
        if self.use_reductions:
            reduction = self.measure.reduction(working.graph(), floor)
            if reduction is not None:
                children = [reduction]
                child_forced = True
                self.forced.inc()
        return children, child_forced, self.measure.remainder_bound(working)

    def result(self, lower: int, upper: int, ordering: list[Vertex]) -> SearchResult:
        """Certified when the bounds meet, else an interrupted bracket."""
        return attach_metrics(
            interrupted(lower, upper, ordering, self.budget, self.name),
            self.ins.metrics,
        )

    def exhausted(self, lower: int = 0) -> SearchResult:
        """Every state under the pruning bound is closed: the incumbent is
        optimal, unless pruning used a bus bound below it — then only
        ``max(lower, ext_floor)`` is proven here."""
        incumbent = self.incumbent
        floor = incumbent.width
        if incumbent.ext_floor is not None and incumbent.ext_floor < floor:
            floor = max(lower, incumbent.ext_floor)
        if self.control is not None:
            self.control.publish_lower(floor)
        return self.result(floor, incumbent.width, incumbent.ordering)


class _BranchAndBound(_Search):
    """Depth first over one elimination graph with undo, so moving between
    search nodes costs only the differing suffix."""

    kind = "bb"
    prune_rules = ("pr1", "pr2", "incumbent", "lb")

    def publish_root(self, lb: int) -> None:
        self.control.publish_upper(self.incumbent.width, self.incumbent.ordering)
        self.control.publish_lower(lb)

    def explore(self, lb: int, children: list[Vertex], forced: bool) -> SearchResult:
        self.root_lb = lb
        self.aborted = False
        self.visit(0, children, forced)
        incumbent = self.incumbent
        if self.aborted:
            return self.result(lb, incumbent.width, incumbent.ordering)
        return self.exhausted(lb)

    def visit(self, g: int, children: list[Vertex], forced: bool) -> None:
        """Expand one node; ``children`` were computed by the parent, so
        PR2 could consult the pre-elimination graph."""
        if self.aborted or self.should_stop():
            self.aborted = True
            return
        self.expand(self.root_lb)
        measure, working, incumbent = self.measure, self.working, self.incumbent

        achievable, close = measure.finish_now(g, working)
        if achievable < incumbent.width:
            incumbent.offer(achievable, self.completion())
        if close:
            self.prunes["pr1"].inc()
            return

        # Cheapest degree first: good solutions early tighten the
        # incumbent for the remaining siblings.
        for child in sorted(children, key=lambda v: (working.degree(v), repr(v))):
            if self.aborted:
                return
            limit = incumbent.bound()
            child_g = max(g, measure.bag_cost(working, child))
            if child_g >= limit:
                self.prunes["incumbent"].inc()
                continue
            grandchildren, child_forced, h = self.descend(
                child, forced, max(child_g, self.root_lb)
            )
            if max(child_g, h) < limit:
                self.visit(child_g, grandchildren, child_forced)
            else:
                self.prunes["lb"].inc()
            working.restore()


class _AStar(_Search):
    """Best first; the incumbent stays the root heuristic's ordering."""

    kind = "astar"
    prune_rules = ("pr2", "ub")

    def publish_root(self, lb: int) -> None:
        self.control.publish_lower(lb)
        self.control.publish_upper(self.incumbent.width, self.incumbent.ordering)

    def explore(self, lb: int, children: list[Vertex], forced: bool) -> SearchResult:
        measure, working, incumbent = self.measure, self.working, self.incumbent
        control = self.control
        sequence = count()
        # Entries: (f, -depth, tiebreak, g, prefix, children, forced).
        heap = [(lb, 0, next(sequence), 0, (), tuple(children), forced)]
        while heap:
            if self.should_stop():
                return self.result(
                    incumbent.cap(lb), incumbent.width, incumbent.ordering
                )
            f, neg_depth, _tie, g, prefix, children, forced = heapq.heappop(heap)
            if f > lb:
                lb = f
                if control is not None:
                    control.publish_lower(incumbent.cap(lb))
            self.expand(incumbent.cap(lb))
            working.switch_to(prefix)

            if measure.finish_now(g, working)[1]:
                # Goal: every completion has width exactly g — optimal,
                # unless states between a bus bound and g were pruned.
                return self.result(incumbent.cap(g), g, self.completion())

            for child in children:
                child_g = max(g, measure.bag_cost(working, child))
                grandchildren, child_forced, h = self.descend(
                    child, forced, max(child_g, lb)
                )
                child_f = max(child_g, h, f)
                if child_f < incumbent.bound():
                    heapq.heappush(
                        heap,
                        (
                            child_f,
                            neg_depth - 1,
                            next(sequence),
                            child_g,
                            prefix + (child,),
                            tuple(grandchildren),
                            child_forced,
                        ),
                    )
                else:
                    self.prunes["ub"].inc()
                working.restore()

        return self.exhausted()


def branch_and_bound_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute the treewidth of ``graph`` by branch and bound (Section 4.4).

    Returns a certified :class:`SearchResult` or, when the budget runs
    out, the bracket ``[root lower bound, incumbent]``. ``control``
    attaches the search to a portfolio bound bus: it stops cooperatively,
    prunes against the bus incumbent, and publishes its own incumbent,
    proven lower bounds and best-so-far checkpoints.
    """
    return _BranchAndBound(
        _Treewidth(graph, lb_methods, rng),
        time_limit, node_limit, use_pr2, use_reductions, control,
    ).run()


def astar_treewidth(
    graph: Graph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute the treewidth of ``graph`` by A* (Chapter 5, Figure 5.1).

    When the budget runs out the lower bound is the last popped ``f``.
    With ``control`` it is published as it rises, capped at the smallest
    bus bound ever pruned at.
    """
    return _AStar(
        _Treewidth(graph, lb_methods, rng),
        time_limit, node_limit, use_pr2, use_reductions, control,
    ).run()


def branch_and_bound_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` by branch and bound (Chapter 8).

    Bounds and ``control`` behave as in :func:`branch_and_bound_treewidth`.
    """
    return _BranchAndBound(
        _Ghw(hypergraph, lb_methods, rng),
        time_limit, node_limit, use_pr2, use_reductions, control,
    ).run()


def astar_ghw(
    hypergraph: Hypergraph,
    time_limit: float | None = None,
    node_limit: int | None = None,
    use_pr2: bool = True,
    use_reductions: bool = True,
    lb_methods: tuple[str, ...] = ("minor-min-width", "minor-gamma-r"),
    rng: random.Random | None = None,
    control: SolverControl | None = None,
) -> SearchResult:
    """Compute ``ghw(hypergraph)`` by A* (Chapter 9).

    Bounds and ``control`` behave as in :func:`astar_treewidth`.
    """
    return _AStar(
        _Ghw(hypergraph, lb_methods, rng),
        time_limit, node_limit, use_pr2, use_reductions, control,
    ).run()
