"""The high-level public API.

Most users want one of four things; each is one call here:

* :func:`treewidth` — the exact treewidth of a graph (A* or BB), with
  graceful degradation to bounds under a budget;
* :func:`treewidth_bounds` — fast heuristic bounds (no search);
* :func:`generalized_hypertree_width` — exact ghw of a hypergraph;
* :func:`decompose` — an actual decomposition object: a
  :class:`TreeDecomposition` for graphs, a (complete, validated)
  :class:`GeneralizedHypertreeDecomposition` for hypergraphs, built from
  the best ordering the selected method finds.

Everything accepts either exact algorithms (``"astar"``/``"bb"``) or
heuristics (``"ga"``, ``"saiga"``, ``"min-fill"``, ...).
"""

from __future__ import annotations

import random

from repro.bounds.ghw_lower import tw_ksc_width
from repro.bounds.lower import treewidth_lower_bound
from repro.bounds.upper import upper_bound_ordering
from repro.decompositions.elimination import (
    ordering_to_ghd,
    ordering_to_tree_decomposition,
)
from repro.decompositions.ghd import (
    GeneralizedHypertreeDecomposition,
    make_complete,
)
from repro.decompositions.tree_decomposition import TreeDecomposition
from repro.genetic.engine import GAParameters
from repro.genetic.ga_ghw import ga_ghw
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.search import (
    SearchResult,
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)


def _as_graph(instance: Graph | Hypergraph) -> Graph:
    if isinstance(instance, Hypergraph):
        return instance.primal_graph()
    return instance


def validate_hypergraph(hypergraph: Hypergraph) -> None:
    """Reject instances whose ghw is undefined (uncovered vertices)."""
    covered: set[Vertex] = set()
    for edge in hypergraph.edge_sets():
        covered |= edge
    isolated = hypergraph.vertices() - covered
    if isolated:
        raise ValueError(
            "ghw is undefined: vertices appear in no hyperedge: "
            f"{sorted(map(repr, isolated))}"
        )


def treewidth(
    instance: Graph | Hypergraph,
    algorithm: str = "astar",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    by_components: bool = False,
) -> SearchResult:
    """Exact treewidth via ``"astar"`` (A*-tw) or ``"bb"`` (BB-tw).

    ``by_components=True`` searches each connected component separately
    (the treewidth of a graph is the maximum over its components), which
    is strictly cheaper on disconnected instances.
    """
    graph = _as_graph(instance)
    rng = random.Random(seed)
    if algorithm == "astar":
        solver = astar_treewidth
    elif algorithm == "bb":
        solver = branch_and_bound_treewidth
    else:
        raise ValueError(f"unknown treewidth algorithm {algorithm!r}")
    if by_components:
        from repro.search.components import treewidth_by_components

        return treewidth_by_components(
            graph,
            solver,
            time_limit=time_limit,
            node_limit=node_limit,
            rng=rng,
        )
    return solver(
        graph, time_limit=time_limit, node_limit=node_limit, rng=rng
    )


def is_treewidth_at_most(
    instance: Graph | Hypergraph,
    k: int,
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
) -> bool | None:
    """Decide ``tw(instance) <= k``; ``None`` if the budget runs out."""
    result = treewidth(
        instance,
        time_limit=time_limit,
        node_limit=node_limit,
        seed=seed,
        by_components=True,
    )
    if result.upper_bound <= k:
        return True
    if result.lower_bound > k:
        return False
    return None if not result.optimal else result.value <= k


def treewidth_bounds(
    instance: Graph | Hypergraph, seed: int = 0
) -> tuple[int, int]:
    """Fast heuristic ``(lower, upper)`` treewidth bounds (no search)."""
    graph = _as_graph(instance)
    rng = random.Random(seed)
    lower = treewidth_lower_bound(graph, rng=rng)
    upper, _ordering = upper_bound_ordering(graph, "min-fill", rng)
    return lower, upper


def treewidth_upper_bound(
    instance: Graph | Hypergraph,
    method: str = "ga",
    parameters: GAParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    backend: str = "python",
    jobs: int = 1,
) -> int:
    """Heuristic treewidth upper bound: ``"ga"`` (GA-tw) or an ordering
    heuristic name (``"min-fill"``, ``"min-degree"``, ...).

    ``backend``/``jobs`` select the GA's fitness kernel and parallelism
    (see :mod:`repro.kernels`); ordering heuristics ignore them.
    """
    graph = _as_graph(instance)
    if method == "ga":
        return ga_treewidth(
            graph,
            parameters=parameters,
            seed=seed,
            time_limit=time_limit,
            backend=backend,
            jobs=jobs,
        ).best_fitness
    width, _ordering = upper_bound_ordering(
        graph, method, random.Random(seed)
    )
    return width


def generalized_hypertree_width(
    hypergraph: Hypergraph,
    algorithm: str = "bb",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    by_components: bool = False,
) -> SearchResult:
    """Exact ghw via ``"bb"`` (BB-ghw) or ``"astar"`` (A*-ghw).

    ``by_components=True`` splits the hypergraph at its primal-graph
    components before searching.
    """
    validate_hypergraph(hypergraph)
    rng = random.Random(seed)
    if algorithm == "bb":
        solver = branch_and_bound_ghw
    elif algorithm == "astar":
        solver = astar_ghw
    else:
        raise ValueError(f"unknown ghw algorithm {algorithm!r}")
    if by_components:
        from repro.search.components import ghw_by_components

        return ghw_by_components(
            hypergraph,
            solver,
            time_limit=time_limit,
            node_limit=node_limit,
            rng=rng,
        )
    return solver(
        hypergraph, time_limit=time_limit, node_limit=node_limit, rng=rng
    )


def is_ghw_at_most(
    hypergraph: Hypergraph,
    k: int,
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
) -> bool | None:
    """Decide ``ghw(hypergraph) <= k``; ``None`` if the budget runs out."""
    result = generalized_hypertree_width(
        hypergraph,
        time_limit=time_limit,
        node_limit=node_limit,
        seed=seed,
        by_components=True,
    )
    if result.upper_bound <= k:
        return True
    if result.lower_bound > k:
        return False
    return None if not result.optimal else result.value <= k


def ghw_bounds(hypergraph: Hypergraph, seed: int = 0) -> tuple[int, int]:
    """Fast heuristic ``(lower, upper)`` ghw bounds (no search)."""
    validate_hypergraph(hypergraph)
    rng = random.Random(seed)
    lower = tw_ksc_width(hypergraph, rng=rng)
    _width, ordering = upper_bound_ordering(
        hypergraph.primal_graph(), "min-fill", rng
    )
    from repro.decompositions.elimination import ordering_ghw

    upper = ordering_ghw(hypergraph, ordering, cover="greedy")
    return lower, upper


def ghw_upper_bound(
    hypergraph: Hypergraph,
    method: str = "ga",
    parameters: GAParameters | None = None,
    seed: int = 0,
    time_limit: float | None = None,
    backend: str = "python",
    jobs: int = 1,
) -> int:
    """Heuristic ghw upper bound: ``"ga"`` (GA-ghw) or ``"saiga"``.

    ``backend``/``jobs`` select the fitness kernel and parallelism
    (see :mod:`repro.kernels`).
    """
    validate_hypergraph(hypergraph)
    if method == "ga":
        return ga_ghw(
            hypergraph,
            parameters=parameters,
            seed=seed,
            time_limit=time_limit,
            backend=backend,
            jobs=jobs,
        ).best_fitness
    if method == "saiga":
        return saiga_ghw(
            hypergraph,
            seed=seed,
            time_limit=time_limit,
            backend=backend,
            jobs=jobs,
        ).best_fitness
    raise ValueError(f"unknown ghw upper-bound method {method!r}")


def decompose_graph(
    graph: Graph,
    algorithm: str = "astar",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    backend: str = "python",
    jobs: int = 1,
) -> TreeDecomposition:
    """A validated tree decomposition of ``graph``.

    Exact algorithms produce optimal width when they finish; under a
    budget the best ordering found so far is materialised.
    ``backend``/``jobs`` apply to the ``"ga"`` path only.
    """
    if graph.num_vertices() == 0:
        raise ValueError("cannot decompose the empty graph")
    if algorithm in ("astar", "bb"):
        result = treewidth(
            graph,
            algorithm=algorithm,
            time_limit=time_limit,
            node_limit=node_limit,
            seed=seed,
        )
        ordering = result.ordering
    elif algorithm == "ga":
        ordering = ga_treewidth(
            graph, seed=seed, time_limit=time_limit, backend=backend, jobs=jobs
        ).best_individual
    else:
        _width, ordering = upper_bound_ordering(
            graph, algorithm, random.Random(seed)
        )
    decomposition = ordering_to_tree_decomposition(graph, ordering)
    decomposition.validate(graph)
    return decomposition


def decompose(
    hypergraph: Hypergraph,
    algorithm: str = "bb",
    cover: str = "exact",
    time_limit: float | None = None,
    node_limit: int | None = None,
    seed: int = 0,
    complete: bool = True,
    backend: str = "python",
    jobs: int = 1,
) -> GeneralizedHypertreeDecomposition:
    """A validated (complete) GHD of ``hypergraph``.

    ``algorithm`` selects how the ordering is found (``"bb"``,
    ``"astar"``, ``"ga"``, ``"saiga"`` or an ordering heuristic name);
    ``cover`` selects how bags are covered (``"exact"`` or ``"greedy"``);
    ``backend``/``jobs`` apply to the ``"ga"``/``"saiga"`` paths.
    """
    validate_hypergraph(hypergraph)
    if hypergraph.num_vertices() == 0:
        raise ValueError("cannot decompose the empty hypergraph")
    if algorithm in ("bb", "astar"):
        result = generalized_hypertree_width(
            hypergraph,
            algorithm=algorithm,
            time_limit=time_limit,
            node_limit=node_limit,
            seed=seed,
        )
        ordering = result.ordering
    elif algorithm == "ga":
        ordering = ga_ghw(
            hypergraph,
            seed=seed,
            time_limit=time_limit,
            backend=backend,
            jobs=jobs,
        ).best_individual
    elif algorithm == "saiga":
        ordering = saiga_ghw(
            hypergraph,
            seed=seed,
            time_limit=time_limit,
            backend=backend,
            jobs=jobs,
        ).best_individual
    else:
        _width, ordering = upper_bound_ordering(
            hypergraph.primal_graph(), algorithm, random.Random(seed)
        )
    ghd = ordering_to_ghd(hypergraph, ordering, cover=cover)
    if complete:
        ghd = make_complete(ghd, hypergraph)
    ghd.validate(hypergraph)
    return ghd


def run_portfolio(
    instance: Graph | Hypergraph,
    measure: str = "tw",
    strategies: str | list | None = None,
    time_limit: float | None = None,
    mode: str = "process",
    seed: int = 0,
    checkpoint_dir: str | None = None,
    instance_name: str = "instance",
):
    """Race a portfolio of strategies on ``instance`` and fold bounds.

    ``strategies`` is a comma-separated kind list (``"bb,ga,sa,tabu"``),
    a list of :class:`~repro.portfolio.strategies.StrategySpec`, or
    ``None`` for the default 4-strategy race. Returns a
    :class:`~repro.portfolio.results.PortfolioResult`; the race certifies
    optimality when any worker's lower bound meets any worker's upper
    bound, even if no single worker certified on its own.
    """
    from repro.portfolio import PortfolioSpec, parse_strategies
    from repro.portfolio import run_portfolio as race

    if isinstance(strategies, str):
        strategies = parse_strategies(strategies, measure, seed=seed)
    spec = PortfolioSpec(
        measure=measure,
        strategies=list(strategies or []),
        time_limit=time_limit,
        mode=mode,
        seed=seed,
        instance_name=instance_name,
        checkpoint_dir=checkpoint_dir,
    )
    return race(instance, spec)


def resume_portfolio(
    instance: Graph | Hypergraph,
    checkpoint_dir: str,
    time_limit: float | None = None,
    mode: str | None = None,
):
    """Resume a checkpointed portfolio race (see the portfolio docs)."""
    from repro.portfolio import resume_portfolio as resume

    return resume(instance, checkpoint_dir, time_limit=time_limit, mode=mode)
