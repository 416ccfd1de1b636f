"""Fitness evaluators backed by the bitset kernel.

Drop-in replacements for the pure-Python fitness closures
(:func:`~repro.genetic.ga_ghw.make_ghw_evaluator` and ``ordering_width``):
same signature ``Sequence[Vertex] -> int``, same values on deterministic
paths, but evaluated on interned bitmasks with the shared cover cache.
The ``make_*`` factories at the bottom are the one place the heuristics
choose between the backends and the process pool.

Each evaluator publishes ``kernel_evaluations`` and ``cover_cache``
hit/miss deltas to the ambient :mod:`repro.obs` metrics once per call
(not per bag), so instrumentation stays out of the inner loop.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro import obs
from repro.hypergraphs.graph import Graph, Vertex
from repro.hypergraphs.hypergraph import Hypergraph
from repro.kernels.bithypergraph import BitGraph, BitHypergraph
from repro.kernels.cache import cover_cache
from repro.kernels.elimination import bit_ordering_ghw, bit_ordering_width

#: Backend names accepted throughout the library.
BACKENDS = ("python", "bitset")


def check_backend(backend: str) -> str:
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose from {list(BACKENDS)}"
        )
    return backend


def make_bit_tw_evaluator(graph: Graph):
    """Bitset evaluator for ``ordering_width`` on ``graph``."""
    bg = BitGraph.from_graph(graph)

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_width(bg, [bg.index[v] for v in ordering])
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="tw").inc()
        return width

    return evaluate


def make_bit_ghw_evaluator(hypergraph: Hypergraph, cover: str = "greedy"):
    """Bitset evaluator for ``ordering_ghw`` on ``hypergraph``.

    Greedy covers break ties deterministically (smallest edge name by
    ``repr``), matching the pure-Python path with ``rng=None``; the
    thesis's randomised tie-breaking is not reproduced here because
    cached covers must not depend on evaluation order.
    """
    bh = BitHypergraph.from_hypergraph(hypergraph)
    cache = cover_cache()
    seen = {"counts": cache.counts()}

    def evaluate(ordering: Sequence[Vertex]) -> int:
        width = bit_ordering_ghw(
            bh, [bh.index[v] for v in ordering], cover=cover, cache=cache
        )
        metrics = obs.current().metrics
        if metrics.enabled:
            metrics.counter("kernel_evaluations", measure="ghw").inc()
            counts = cache.counts()
            last = seen["counts"]
            for event, now, before in (
                ("hit", counts[0], last[0]),
                ("miss", counts[1], last[1]),
                ("eviction", counts[2], last[2]),
            ):
                if now > before:
                    metrics.counter("cover_cache", event=event).inc(
                        now - before
                    )
            seen["counts"] = counts
        return width

    return evaluate


def make_tw_evaluator(graph: Graph, backend: str = "python"):
    """``ordering -> width`` evaluator for the selected backend."""
    if check_backend(backend) == "bitset":
        return make_bit_tw_evaluator(graph)
    from repro.decompositions.elimination import ordering_width

    return lambda ordering: ordering_width(graph, list(ordering))


def make_ghw_evaluator_backend(
    hypergraph: Hypergraph,
    backend: str = "python",
    cover: str = "greedy",
    rng=None,
):
    """``ordering -> cover width`` evaluator for the selected backend."""
    if check_backend(backend) == "bitset":
        return make_bit_ghw_evaluator(hypergraph, cover=cover)
    from repro.genetic.ga_ghw import make_ghw_evaluator

    return make_ghw_evaluator(hypergraph, rng=rng)


def make_evaluators(
    instance: Graph | Hypergraph,
    measure: str,
    backend: str = "python",
    jobs: int = 1,
    rng=None,
):
    """``(evaluate, batch_evaluate, close)`` for the GA and SAIGA loops.

    ``jobs > 1`` evaluates populations on a process pool, which
    ``close`` shuts down; otherwise ``batch_evaluate`` is ``None`` and
    ``close`` does nothing. ``rng`` breaks the pure-Python greedy cover
    ties of ``measure="ghw"``.
    """
    check_backend(backend)
    if jobs > 1:
        from repro.kernels.parallel import ParallelEvaluator

        evaluator = ParallelEvaluator(
            instance, measure=measure, jobs=jobs, backend=backend
        )
        return evaluator, evaluator.evaluate_population, evaluator.close
    if measure == "tw":
        evaluate = make_tw_evaluator(instance, backend=backend)
    else:
        evaluate = make_ghw_evaluator_backend(instance, backend=backend, rng=rng)
    return evaluate, None, lambda: None
