"""Workload definitions, the known-optima table, and the job runner.

Every job does a fixed amount of work: node, generation and iteration
caps, never a wall-clock budget, and portfolios run inline (one process,
one thread). A job is one solve plus certification of its witness with
:mod:`repro.verify.certify`, timed from outside through the public API
(:mod:`repro.portfolio`, :mod:`repro.verify`). See README.md for why each
workload exists.

This module imports ``repro`` lazily: the parent process of ``run.py``
never imports the library, only the child processes that run jobs.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field

GA_CAPS = {"population_size": 30, "max_iterations": 40}


@dataclass(frozen=True)
class Job:
    """One solve (or one checkpointed race plus its resume)."""

    instance: str
    measure: str
    solver: str
    """A strategy kind (``bb``, ``astar``, ``ga``, ``saiga``, ``sa``,
    ``tabu``) or ``race`` for an inline portfolio."""

    options: dict = field(default_factory=dict)
    members: tuple = ()
    """For races: ``(kind, options)`` per member, in spec order."""

    @property
    def label(self) -> str:
        return f"{self.solver}-{self.measure}:{self.instance}"


def _race(instance: str, measure: str) -> Job:
    return Job(instance, measure, "race", members=(
        ("ga", {"population_size": 30, "max_iterations": 20}),
        ("sa", {"cooling_rate": 0.8}),
        ("tabu", {"iterations": 25}),
        ("bb", {"node_limit": 1000}),
    ))


WORKLOADS: dict[str, tuple[Job, ...]] = {
    "exact": (
        Job("myciel4", "tw", "bb"),
        Job("queen5_5", "tw", "bb"),
        Job("myciel4", "tw", "astar"),
        Job("grid2d_5", "ghw", "bb"),
        Job("grid2d_5", "ghw", "astar"),
        Job("b06", "ghw", "bb", {"node_limit": 1500}),
        Job("grid3d_3", "ghw", "astar", {"node_limit": 600}),
    ),
    "heuristic": (
        Job("b06", "ghw", "ga", GA_CAPS),
        Job("grid2d_6", "ghw", "ga", GA_CAPS),
        Job("grid2d_6", "ghw", "saiga", {"epochs": 2}),
        Job("grid2d_6", "ghw", "sa", {"cooling_rate": 0.9}),
        Job("b06", "ghw", "tabu", {"iterations": 50}),
        Job("queen5_5", "tw", "ga", GA_CAPS),
        Job("queen5_5", "tw", "tabu", {}),
    ),
    "portfolio": (
        _race("b06", "ghw"),
        _race("myciel4", "tw"),
    ),
}

#: The job the hash-order determinism check repeats under two hash seeds.
HASH_CHECK_JOB = WORKLOADS["heuristic"][0]
HASH_CHECK_SEEDS = (0, 2)

#: Proven optima: (instance, measure) -> width.
OPTIMA: dict[tuple[str, str], int] = {
    ("myciel4", "tw"): 10,
    ("queen5_5", "tw"): 18,
    ("grid2d_5", "ghw"): 3,
}

#: The lower bound a job proves when its solver proves none.
TRIVIAL_LOWER = {"tw": 0, "ghw": 1}


def instance_names(workload: str) -> list[str]:
    return sorted({job.instance for job in WORKLOADS[workload]})


# ----------------------------------------------------------------------
# set-up: generate, write .hg, parse back
# ----------------------------------------------------------------------


def prepare_instances(names, directory) -> tuple[dict, dict]:
    """Generate each instance and round-trip it through ``.hg``.

    Returns ``({name: generated instance}, {phase: seconds})``. Jobs solve
    the generated instances: their vertex labels (ints and int tuples,
    strings only for the circuit b06) hash the same under every
    ``PYTHONHASHSEED``, while the parsed copies are all strings, which
    would make every job's tie-breaks depend on the hash seed. The parsed
    copy must match the generated one in vertex count and edge sizes.
    """
    from pathlib import Path

    from repro.hypergraphs.hypergraph import Hypergraph, from_graph
    from repro.instances import hyperbench
    from repro.instances.registry import instance

    timings = {"gen_s": 0.0, "write_s": 0.0, "parse_s": 0.0}
    generated = {}
    for name in names:
        start = time.perf_counter()
        generated[name] = instance(name)
        hypergraph = generated[name]
        if not isinstance(hypergraph, Hypergraph):
            hypergraph = from_graph(hypergraph)
        timings["gen_s"] += time.perf_counter() - start
        path = Path(directory) / f"{name}.hg"
        start = time.perf_counter()
        path.write_text(hyperbench.format_hg(hypergraph))
        timings["write_s"] += time.perf_counter() - start
        start = time.perf_counter()
        parsed = hyperbench.parse_hg(path.read_text())
        timings["parse_s"] += time.perf_counter() - start
        if _shape(parsed) != _shape(hypergraph):
            raise ValueError(f"{name}: .hg round trip changed the hypergraph")
    return generated, timings


def _shape(hypergraph) -> tuple:
    sizes = sorted(len(edge) for edge in hypergraph.edges().values())
    return hypergraph.num_vertices(), sizes


# ----------------------------------------------------------------------
# running and checking one job
# ----------------------------------------------------------------------


@dataclass
class Row:
    """One job's outcome; everything except ``seconds`` repeats exactly."""

    job: str
    instance: str
    measure: str
    solver: str
    lb: int | None
    ub: int | None
    nodes: int = 0
    genetic_evals: int = 0
    local_evals: int = 0
    seconds: float = 0.0
    ok: bool = False
    reason: str = ""
    cache_hits: int = 0
    cache_misses: int = 0
    trace: dict = field(default_factory=dict)

    @property
    def gap(self) -> int:
        lower = self.lb if self.lb is not None else TRIVIAL_LOWER[self.measure]
        return (self.ub or 0) - lower

    def fingerprint(self) -> tuple:
        return (self.job, self.lb, self.ub, self.nodes,
                self.genetic_evals, self.local_evals, self.ok)


def _work(kind: str, detail: dict) -> tuple[int, int, int]:
    """(nodes, genetic evaluations, local-search evaluations). A missing
    key raises, so a renamed detail fails the job instead of reading 0."""
    if kind in ("bb", "astar"):
        return int(detail["nodes"]), 0, 0
    if kind in ("ga", "saiga"):
        return 0, int(detail["evaluations"]), 0
    if kind in ("sa", "tabu"):
        return 0, 0, int(detail["evaluations"])
    raise ValueError(f"unknown solver kind {kind!r}")


def _check(row: Row, ordering, subject, exact: bool, expect_optimal: bool,
           claims_optimal: bool) -> None:
    """Certify the witness and the bounds; set ``row.ok``/``row.reason``."""
    from repro.verify import certify

    if row.ub is None:
        row.reason = "no upper bound reported"
        return
    if row.measure == "tw":
        cert = certify.certify_tw_witness(subject, ordering, row.ub, strict=True)
    else:
        cert = certify.certify_ghw_witness(subject, ordering, row.ub, strict=exact)
    if not cert.ok:
        row.reason = f"uncertified: {cert.reason}"
        return
    width = cert.witness_width
    if row.lb is not None and row.lb > width:
        row.reason = f"bounds cross: lb {row.lb} > certified {width}"
        return
    optimum = OPTIMA.get((row.instance, row.measure))
    if optimum is not None:
        if width < optimum or (row.lb is not None and row.lb > optimum):
            row.reason = f"bounds {row.lb}..{width} do not bracket optimum {optimum}"
            return
        if (expect_optimal or claims_optimal) and width != optimum:
            row.reason = f"certified {width} differs from optimum {optimum}"
            return
    if expect_optimal and not claims_optimal:
        row.reason = "uncapped exact search did not finish"
        return
    row.ok = True


def _isolate() -> tuple[int, int]:
    """Each job pays its own cache fill, as a user with one instance does."""
    from repro.kernels.cache import cover_cache

    gc.collect()
    cache = cover_cache()
    cache.clear()
    hits, misses, _evictions = cache.counts()
    return hits, misses


def _cache_delta(row: Row, before: tuple[int, int]) -> None:
    from repro.kernels.cache import cover_cache

    hits, misses, _evictions = cover_cache().counts()
    row.cache_hits = hits - before[0]
    row.cache_misses = misses - before[1]


def run_single(job: Job, subject, seed: int, tracer=None) -> Row:
    """Solve + certify one non-race job."""
    import repro.portfolio as portfolio

    row = Row(job.label, job.instance, job.measure, job.solver, None, None)
    spec = portfolio.StrategySpec(
        name=job.solver, kind=job.solver, seed=seed, options=dict(job.options)
    )
    exact = spec.exact
    before = _isolate()
    marks = tracer.snapshot() if tracer else None
    start = time.perf_counter()
    try:
        result = portfolio.run_strategy(spec, subject, job.measure)
        row.lb, row.ub = result.lower_bound, result.upper_bound
        row.nodes, row.genetic_evals, row.local_evals = _work(job.solver, result.detail)
        _check(
            row, result.ordering, subject, exact,
            expect_optimal=exact and "node_limit" not in job.options,
            claims_optimal=result.status == "optimal",
        )
    except Exception as error:  # a failed job counts; it does not abort the run
        row.ok, row.reason = False, f"{type(error).__name__}: {error}"
    row.seconds = time.perf_counter() - start
    _cache_delta(row, before)
    if tracer:
        row.trace = _trace_delta(tracer, marks)
    return row


def run_race(job: Job, subject, seed: int, directory, tracer=None) -> list[Row]:
    """A checkpointed inline race, then ``resume_portfolio`` on its
    directory; one row each."""
    import repro.portfolio as portfolio

    strategies = [
        portfolio.StrategySpec(
            name=kind, kind=kind, seed=seed + index, options=dict(options)
        )
        for index, (kind, options) in enumerate(job.members)
    ]
    spec = portfolio.PortfolioSpec(
        measure=job.measure,
        strategies=strategies,
        mode="inline",
        seed=seed,
        instance_name=job.instance,
        checkpoint_dir=str(directory),
        checkpoint_interval=0.0,
    )
    rows = []
    for phase in ("race", "resume"):
        row = Row(f"{job.label}:{phase}", job.instance, job.measure, phase, None, None)
        before = _isolate()
        marks = tracer.snapshot() if tracer else None
        start = time.perf_counter()
        try:
            if phase == "race":
                result = portfolio.run_portfolio(subject, spec)
            else:
                result = portfolio.resume_portfolio(subject, str(directory), mode="inline")
            row.lb, row.ub = result.lower_bound, result.upper_bound
            for worker in result.workers:
                nodes, genetic, local = _work(worker.kind, worker.detail)
                row.nodes += nodes
                row.genetic_evals += genetic
                row.local_evals += local
            errors = [w.error for w in result.workers if w.status == "error"]
            _check(row, result.ordering, subject, exact=False,
                   expect_optimal=False, claims_optimal=result.optimal)
            if errors and row.ok:
                row.ok, row.reason = False, f"member error: {errors[0]}"
        except Exception as error:
            row.ok, row.reason = False, f"{type(error).__name__}: {error}"
        row.seconds = time.perf_counter() - start
        _cache_delta(row, before)
        if tracer:
            row.trace = _trace_delta(tracer, marks)
        rows.append(row)
    return rows


def _trace_delta(tracer, marks: dict) -> dict:
    now = tracer.snapshot()
    return {
        name: tuple(b - a for a, b in zip(marks[name], values))
        for name, values in now.items()
    }


def subject_for(job: Job, generated: dict):
    """What a job solves: the instance, as a graph for treewidth (a
    primal graph built once in set-up, not in the timed solve)."""
    from repro.hypergraphs.hypergraph import Hypergraph

    subject = generated[job.instance]
    if job.measure == "tw" and isinstance(subject, Hypergraph):
        return subject.primal_graph()
    return subject


def run_round(workload: str, subjects: dict, seed: int, directory, tracer=None) -> list[Row]:
    rows: list[Row] = []
    for index, job in enumerate(WORKLOADS[workload]):
        subject = subjects[(job.instance, job.measure)]
        if job.solver == "race":
            race_dir = directory / f"race{index}"
            rows.extend(run_race(job, subject, seed, race_dir, tracer))
        else:
            rows.append(run_single(job, subject, seed, tracer))
    return rows
