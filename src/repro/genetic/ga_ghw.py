"""GA-ghw: genetic algorithm for ghw upper bounds (Chapter 7, Section 7.1).

Identical to GA-tw except for the fitness function: an ordering's fitness
is the largest *greedy set-cover* size over its elimination bags
(Figure 7.1 + Figure 7.2). The greedy cover makes every fitness value an
upper bound on the exact cover width, so the best fitness found is a
valid ghw upper bound.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

from repro.bounds.upper import min_degree_ordering, min_fill_ordering
from repro.decompositions.elimination import elimination_bags
from repro.genetic.engine import GAParameters, GAResult, run_ga
from repro.hypergraphs.graph import Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.evaluators import make_evaluators
from repro.obs.control import SolverControl
from repro.setcover.greedy import greedy_set_cover


def make_ghw_evaluator(
    hypergraph: Hypergraph,
    rng: random.Random | None = None,
):
    """The Figure 7.1 evaluation closure for ``hypergraph``.

    Bags come from bucket propagation on the primal graph; each bag is
    covered greedily (random tie-breaks when ``rng`` is given, matching
    the thesis; deterministic otherwise).
    """
    primal = hypergraph.primal_graph()
    edges = hypergraph.edges()

    def evaluate(ordering: Sequence[Vertex]) -> int:
        bags = elimination_bags(primal, list(ordering))
        return max(
            (
                len(greedy_set_cover(bag, edges, rng=rng))
                for bag in bags.values()
            ),
            default=0,
        )

    return evaluate


def ga_ghw(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    seed: int | random.Random = 0,
    seed_heuristics: bool = True,
    time_limit: float | None = None,
    target: int | None = None,
    backend: str = "python",
    jobs: int = 1,
    control: SolverControl | None = None,
    resume_state: dict | None = None,
) -> GAResult:
    """Run GA-ghw on ``hypergraph``; best fitness is a ghw upper bound.

    ``backend="bitset"`` evaluates fitness on the
    :mod:`repro.kernels` bitmask kernel with the shared cover cache
    (deterministic greedy tie-breaks instead of the thesis's randomised
    ones); ``jobs > 1`` additionally fans each population out over a
    process pool. The default ``("python", 1)`` is the seed behaviour,
    bit-identical to earlier releases.
    """
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    parameters = parameters or GAParameters()

    vertices: Sequence[Vertex] = sorted(hypergraph.vertices(), key=repr)
    if len(vertices) <= 1 or hypergraph.num_edges() == 0:
        return run_ga(
            vertices,
            lambda _ordering: 0 if hypergraph.num_edges() == 0 else 1,
            GAParameters(population_size=2, max_iterations=0),
            rng,
        )

    primal = hypergraph.primal_graph()
    seeds: list[list[Vertex]] = []
    if seed_heuristics:
        seeds = [
            min_fill_ordering(primal, rng),
            min_degree_ordering(primal, rng),
        ]

    evaluate, batch_evaluate, close = make_evaluators(
        hypergraph, "ghw", backend=backend, jobs=jobs, rng=rng
    )
    try:
        return run_ga(
            vertices,
            evaluate,
            parameters,
            rng,
            seeds=seeds,
            time_limit=time_limit,
            target=target,
            batch_evaluate=batch_evaluate,
            control=control,
            resume_state=resume_state,
        )
    finally:
        close()


def ga_ghw_upper_bound(
    hypergraph: Hypergraph,
    parameters: GAParameters | None = None,
    seed: int = 0,
    runs: int = 1,
    time_limit: float | None = None,
) -> int:
    """Best ghw upper bound over ``runs`` independent GA-ghw runs."""
    best: int | None = None
    for run in range(max(1, runs)):
        result = ga_ghw(
            hypergraph,
            parameters=parameters,
            seed=seed + run,
            time_limit=time_limit,
        )
        if best is None or result.best_fitness < best:
            best = result.best_fitness
    assert best is not None
    return best
