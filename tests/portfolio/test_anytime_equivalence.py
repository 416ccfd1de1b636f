"""Golden equivalence: the anytime heuristics' observable behaviour is pinned.

Each case runs one of the upper-bound heuristics (GA-tw, GA-ghw, SAIGA,
SA-tw/ghw, tabu-tw/ghw) with a fixed seed and compares everything a
caller or the portfolio can see against values recorded from the
reference implementation:

* the result fields (best fitness and ordering, history, evaluation,
  generation, move and iteration counts, SAIGA's final parameters),
* the full metrics snapshot (histograms by count only: their sums are
  wall-clock seconds),
* the span tree (names and attributes),
* for the control cases, every ``SolverControl`` call in order: stop and
  shared-bound queries, published bounds with their witnesses, and each
  checkpoint payload (its keys, its best fitness and a CRC-32 of its
  canonical JSON, ``rng_state`` included).

The cases cover plain runs, a cooperative stop after a number of
publishes, an early stop at a shared lower bound, a ``target`` stop,
the bitset backend, and a resume from a mid-run snapshot that went
through the checkpoint files' JSON encoding. Every instance is
int-labelled: string hashes vary per process, and the randomised greedy
covers and heuristic orderings break ties in set order. The reference
values live in ``anytime_equivalence.json`` (one case per line, compared
after a JSON round trip). Any refactor of the anytime loops must leave
both files passing as they are.
"""

from __future__ import annotations

import dataclasses
import json
import random
import zlib
from pathlib import Path

import pytest

from repro import obs
from repro.genetic.engine import GAParameters
from repro.genetic.ga_ghw import ga_ghw
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.hypergraphs.graph import Graph
from repro.hypergraphs.hypergraph import Hypergraph
from repro.instances.dimacs_like import mycielski_graph
from repro.instances.hypergraphs import adder, random_csp_hypergraph
from repro.kernels.cache import cover_cache
from repro.kernels.evaluators import make_ghw_evaluator_backend, make_tw_evaluator
from repro.localsearch.simulated_annealing import (
    AnnealingParameters,
    sa_ghw,
    sa_treewidth,
    simulated_annealing,
)
from repro.localsearch.tabu import TabuParameters, tabu_ghw, tabu_search, tabu_treewidth
from repro.obs.control import SolverControl
from repro.portfolio.checkpoint import decode_rng_state, encode_rng_state

GA = GAParameters(population_size=8, max_iterations=6)
SA = AnnealingParameters(
    initial_temperature=2.0, cooling_rate=0.7, steps_per_temperature=6
)
TABU = TabuParameters(
    iterations=10, tenure=3, neighbourhood_sample=8, stall_restart=4
)
SAIGA = {"islands": 3, "island_population": 6, "epochs": 3, "epoch_generations": 2}


def _gnp(n: int, p: float, seed: int) -> Graph:
    rng = random.Random(seed)
    graph = Graph(vertices=range(n))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                graph.add_edge(u, v)
    return graph


def _int_labelled(hypergraph: Hypergraph) -> Hypergraph:
    index = {v: i for i, v in enumerate(sorted(hypergraph.vertices()))}
    edges = hypergraph.edges()
    return Hypergraph({
        number: {index[v] for v in edges[name]}
        for number, name in enumerate(sorted(edges))
    })


INSTANCES = {
    "myciel3": lambda: mycielski_graph(3),
    "gnp14": lambda: _gnp(14, 0.35, seed=8),
    "csp12": lambda: _int_labelled(random_csp_hypergraph(12, 18, 2, seed=5)),
    "adder_3": lambda: _int_labelled(adder(3)),
    "gnp20": lambda: _gnp(20, 0.3, seed=8),
    "csp20": lambda: _int_labelled(random_csp_hypergraph(20, 30, 3, seed=5)),
    "csp30": lambda: _int_labelled(random_csp_hypergraph(30, 40, 2, seed=5)),
}


def _sa_direct(instance, measure, seed, **options):
    """The SA loop itself: a random start and the ``target`` option."""
    return simulated_annealing(
        sorted(instance.vertices()), _evaluator(instance, measure), SA,
        seed=seed, **options,
    )


def _tabu_direct(instance, measure, seed, **options):
    return tabu_search(
        sorted(instance.vertices()), _evaluator(instance, measure), TABU,
        seed=seed, **options,
    )


def _evaluator(instance, measure):
    if measure == "tw":
        return make_tw_evaluator(instance)
    return make_ghw_evaluator_backend(instance, rng=random.Random(9))


SOLVERS = {
    "ga": lambda inst, measure, seed, **kw: (
        ga_treewidth if measure == "tw" else ga_ghw
    )(inst, parameters=GA, seed=seed, **kw),
    "saiga": lambda inst, measure, seed, **kw: saiga_ghw(
        inst, seed=seed, **SAIGA, **kw
    ),
    "sa": lambda inst, measure, seed, **kw: (
        sa_treewidth if measure == "tw" else sa_ghw
    )(inst, parameters=SA, seed=seed, **kw),
    "tabu": lambda inst, measure, seed, **kw: (
        tabu_treewidth if measure == "tw" else tabu_ghw
    )(inst, parameters=TABU, seed=seed, **kw),
    "sa-direct": _sa_direct,
    "tabu-direct": _tabu_direct,
}


def _encoded(state: dict) -> dict:
    encoded = dict(state)
    encoded["rng_state"] = encode_rng_state(encoded["rng_state"])
    return encoded


class _LogControl(SolverControl):
    """Logs every call; shares ``lower`` and stops after ``stop_after``
    publishes when those are given."""

    def __init__(self, lower=None, stop_after=None) -> None:
        self.lower = lower
        self.stop_after = stop_after
        self.publishes = 0
        self.states: list[dict] = []
        self.log: list[list] = []

    def should_stop(self) -> bool:
        stop = self.stop_after is not None and self.publishes >= self.stop_after
        self.log.append(["stop", stop])
        return stop

    def shared_upper_bound(self):
        self.log.append(["shared_upper"])
        return None

    def shared_lower_bound(self):
        self.log.append(["shared_lower", self.lower])
        return self.lower

    def publish_upper(self, value, ordering=None) -> None:
        self.publishes += 1
        self.log.append(["upper", value, list(ordering)])

    def publish_lower(self, value) -> None:
        self.log.append(["lower", value])

    def checkpoint(self, state) -> None:
        self.states.append(state)
        canonical = json.dumps(_encoded(state), sort_keys=True)
        self.log.append([
            "checkpoint", sorted(state), state["best_fitness"],
            zlib.crc32(canonical.encode()),
        ])


def _spans(span) -> tuple:
    return (span.name, tuple(sorted(span.attrs.items())),
            tuple(_spans(child) for child in span.children))


def _mid_run_snapshot(solver, instance, measure, seed, options) -> dict:
    """The middle checkpoint of a controlled run, as a resumed race
    reads it back from its worker file."""
    control = _LogControl()
    SOLVERS[solver](INSTANCES[instance](), measure, seed, control=control,
                    **options)
    state = control.states[len(control.states) // 2]
    decoded = json.loads(json.dumps(_encoded(state)))
    decoded["rng_state"] = decode_rng_state(decoded["rng_state"])
    return decoded


def _observe(solver, instance, measure, seed=3, control=None, resume=False,
             **options) -> dict:
    if resume:
        options["resume_state"] = _mid_run_snapshot(
            solver, instance, measure, seed, options
        )
    cover_cache().clear()
    stub = _LogControl(**control) if control is not None else None
    if stub is not None:
        options["control"] = stub
    with obs.instrument() as ins:
        result = SOLVERS[solver](INSTANCES[instance](), measure, seed, **options)
    fields = dataclasses.asdict(result)
    fields.pop("elapsed")
    metrics = {
        key: value["count"] if isinstance(value, dict) else value
        for key, value in fields.pop("metrics").items()
    }
    seen = {
        "result": fields,
        "metrics": metrics,
        "spans": tuple(_spans(root) for root in ins.tracer.roots),
    }
    if stub is not None:
        seen["control"] = stub.log
    return seen


def _cases() -> dict:
    cases = {}
    # The library entry points on small instances: heuristic seed
    # orderings (min-fill, min-degree), plain and logged runs, resumes.
    for name, solver, measure, instances in (
        ("ga-tw", "ga", "tw", ("myciel3", "gnp14")),
        ("ga-ghw", "ga", "ghw", ("csp12", "adder_3")),
        ("saiga", "saiga", "ghw", ("csp12", "adder_3")),
        ("sa-tw", "sa", "tw", ("myciel3", "gnp14")),
        ("sa-ghw", "sa", "ghw", ("csp12", "adder_3")),
        ("tabu-tw", "tabu", "tw", ("myciel3", "gnp14")),
        ("tabu-ghw", "tabu", "ghw", ("csp12", "adder_3")),
    ):
        first, second = instances
        for inst in instances:
            cases[f"{name}-{inst}"] = (solver, inst, measure, {})
            cases[f"{name}-{inst}-log"] = (solver, inst, measure, {"control": {}})
        cases[f"{name}-{second}-shared-lb"] = (
            solver, second, measure, {"control": {"lower": 99}},
        )
        cases[f"{name}-{second}-resume"] = (
            solver, second, measure, {"control": {}, "resume": True},
        )
        cases[f"{name}-{first}-resume-bare"] = (
            solver, first, measure, {"resume": True},
        )
    # Runs that improve several times: cooperative stop after the second
    # publish, shared lower bound and target reached mid-run, resumes.
    for name, solver, inst, measure, options, reached in (
        ("ga-tw", "ga", "gnp20", "tw", {"seed_heuristics": False}, 10),
        ("ga-ghw", "ga", "csp20", "ghw", {"seed_heuristics": False}, 6),
        ("saiga", "saiga", "csp30", "ghw", {}, 5),
        ("sa-tw", "sa-direct", "gnp20", "tw", {}, 12),
        ("sa-ghw", "sa-direct", "csp20", "ghw", {}, 6),
        ("tabu-tw", "tabu-direct", "gnp20", "tw", {}, 11),
        ("tabu-ghw", "tabu-direct", "csp20", "ghw", {}, 6),
    ):
        key = f"{name}-{inst}"
        cases[key] = (solver, inst, measure, dict(options))
        cases[f"{key}-log"] = (solver, inst, measure, {"control": {}, **options})
        cases[f"{key}-stop"] = (
            solver, inst, measure, {"control": {"stop_after": 2}, **options},
        )
        cases[f"{key}-shared-lb"] = (
            solver, inst, measure, {"control": {"lower": reached}, **options},
        )
        cases[f"{key}-target"] = (
            solver, inst, measure,
            {"control": {}, "target": reached - 1 if measure == "tw" else reached,
             **options},
        )
        cases[f"{key}-resume"] = (
            solver, inst, measure, {"control": {}, "resume": True, **options},
        )
    cases["ga-ghw-csp12-bitset"] = (
        "ga", "csp12", "ghw", {"control": {}, "backend": "bitset"},
    )
    cases["saiga-csp30-bitset"] = (
        "saiga", "csp30", "ghw", {"control": {}, "backend": "bitset"},
    )
    return cases


CASES = _cases()

EXPECTED = json.loads(
    Path(__file__).with_name("anytime_equivalence.json").read_text()
)


def test_every_case_has_a_reference():
    assert sorted(EXPECTED) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_anytime_loop_matches_reference(case):
    solver, instance, measure, options = CASES[case]
    seen = _observe(solver, instance, measure, **options)
    assert json.loads(json.dumps(seen)) == EXPECTED[case]
