"""Running one portfolio strategy — shared by both scheduler modes.

:func:`run_strategy` is the single dispatch point from a
:class:`~repro.portfolio.strategies.StrategySpec` to the library's solver
families, normalising their heterogeneous results (SearchResult,
GAResult, AnnealingResult, TabuResult) into one
:class:`~repro.portfolio.results.WorkerResult`.

:func:`worker_main` is the entry point of a worker *process*: it wires
the strategy to the bound bus, runs under its own ``repro.obs``
instrumentation, and — crucially — always flushes a final message
(result + RunReport + last checkpoint) before exiting, including on
SIGTERM-driven cancellation: the signal handler only sets the shared
stop event, the solver winds down cooperatively, and the normal
reporting path runs.
"""

from __future__ import annotations

import random
import signal
import time

from repro import obs
from repro.hypergraphs.hypergraph import Hypergraph
from repro.obs.control import SolverControl
from repro.obs.report import RunReport
from repro.portfolio.bus import BoundMessage, BusClient
from repro.portfolio.checkpoint import Checkpointer
from repro.portfolio.results import WorkerResult
from repro.portfolio.strategies import StrategySpec
from repro.search import (
    astar_ghw,
    astar_treewidth,
    branch_and_bound_ghw,
    branch_and_bound_treewidth,
)


def _primal(instance, measure: str):
    if measure == "tw" and isinstance(instance, Hypergraph):
        return instance.primal_graph()
    return instance


def _from_search(spec: StrategySpec, result) -> WorkerResult:
    return WorkerResult(
        name=spec.name,
        kind=spec.kind,
        status="optimal" if result.optimal else "interrupted",
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        ordering=list(result.ordering),
        elapsed=result.elapsed,
        detail={"nodes": result.nodes_expanded},
    )


def _from_heuristic(spec: StrategySpec, result, extra: dict | None = None) -> WorkerResult:
    detail = {"evaluations": result.evaluations}
    detail.update(extra or {})
    return WorkerResult(
        name=spec.name,
        kind=spec.kind,
        status="heuristic",
        lower_bound=None,
        upper_bound=result.best_fitness,
        ordering=list(result.best_individual),
        elapsed=result.elapsed,
        detail=detail,
    )


def run_strategy(
    spec: StrategySpec,
    instance,
    measure: str,
    time_limit: float | None = None,
    control: SolverControl | None = None,
    resume_state: dict | None = None,
) -> WorkerResult:
    """Run one strategy to completion (or cooperative stop).

    The exact searches cannot resume mid-tree, so for them
    ``resume_state`` is ignored here — the scheduler instead seeds the
    shared incumbent from the checkpoint, which the restarted search
    prunes against from its first node.
    """
    options = dict(spec.options)
    if spec.kind in ("bb", "astar"):
        if spec.kind == "bb":
            solve = (
                branch_and_bound_treewidth if measure == "tw" else branch_and_bound_ghw
            )
        else:
            solve = astar_treewidth if measure == "tw" else astar_ghw
        result = solve(
            _primal(instance, measure),
            time_limit=time_limit,
            rng=random.Random(spec.seed),
            control=control,
            **options,
        )
        return _from_search(spec, result)
    if spec.kind == "ga":
        from repro.genetic.engine import GAParameters

        parameters = GAParameters(**options) if options else None
        if measure == "tw":
            from repro.genetic.ga_tw import ga_treewidth

            result = ga_treewidth(
                _primal(instance, measure),
                parameters=parameters,
                seed=spec.seed,
                time_limit=time_limit,
                backend=spec.backend,
                jobs=spec.jobs,
                control=control,
                resume_state=resume_state,
            )
        else:
            from repro.genetic.ga_ghw import ga_ghw

            result = ga_ghw(
                instance,
                parameters=parameters,
                seed=spec.seed,
                time_limit=time_limit,
                backend=spec.backend,
                jobs=spec.jobs,
                control=control,
                resume_state=resume_state,
            )
        return _from_heuristic(spec, result, {"generations": result.generations})
    if spec.kind == "saiga":
        from repro.genetic.saiga import saiga_ghw

        result = saiga_ghw(
            instance,
            seed=spec.seed,
            time_limit=time_limit,
            backend=spec.backend,
            jobs=spec.jobs,
            control=control,
            resume_state=resume_state,
            **options,
        )
        return _from_heuristic(spec, result, {"generations": result.generations})
    if spec.kind == "sa":
        from repro.localsearch.simulated_annealing import (
            AnnealingParameters,
            sa_ghw,
            sa_treewidth,
        )

        parameters = AnnealingParameters(**options) if options else None
        runner = sa_treewidth if measure == "tw" else sa_ghw
        result = runner(
            _primal(instance, measure) if measure == "tw" else instance,
            parameters=parameters,
            seed=spec.seed,
            time_limit=time_limit,
            backend=spec.backend,
            control=control,
            resume_state=resume_state,
        )
        return _from_heuristic(spec, result, {"accepted": result.accepted_moves})
    if spec.kind == "tabu":
        from repro.localsearch.tabu import TabuParameters, tabu_ghw, tabu_treewidth

        parameters = TabuParameters(**options) if options else None
        runner = tabu_treewidth if measure == "tw" else tabu_ghw
        result = runner(
            _primal(instance, measure) if measure == "tw" else instance,
            parameters=parameters,
            seed=spec.seed,
            time_limit=time_limit,
            backend=spec.backend,
            control=control,
            resume_state=resume_state,
        )
        return _from_heuristic(spec, result, {"iterations": result.iterations})
    raise ValueError(f"unknown strategy kind {spec.kind!r}")


def capture_worker_report(
    ins,
    spec: StrategySpec,
    result: WorkerResult,
    instance_name: str,
    measure: str,
) -> RunReport:
    """One nested RunReport for a finished worker."""
    status = result.status if result.status != "stopped" else "heuristic"
    return RunReport.capture(
        ins,
        instance=instance_name,
        solver=spec.name,
        measure=measure,
        status=status,
        value=result.upper_bound if result.status == "optimal" else None,
        lower_bound=result.lower_bound,
        upper_bound=result.upper_bound,
        elapsed_s=result.elapsed,
        meta={
            "kind": spec.kind,
            "seed": spec.seed,
            "backend": spec.backend,
            "jobs": spec.jobs,
        },
    )


def worker_main(
    spec_dict: dict,
    instance,
    instance_name: str,
    measure: str,
    time_limit: float | None,
    queue,
    stop_event,
    shared_upper,
    shared_lower,
    checkpoint_dir: str | None,
    checkpoint_interval: float,
    resume_state: dict | None,
) -> None:
    """Worker-process entry point (fork start method).

    SIGTERM is rerouted to the shared stop event, so an external
    cancellation takes the same graceful path as a scheduler stop: the
    solver loop notices ``should_stop()``, winds down, and the final
    result/report/checkpoint flush below still runs.
    """
    spec = StrategySpec.from_dict(spec_dict)
    signal.signal(signal.SIGTERM, lambda _signum, _frame: stop_event.set())
    checkpointer = (
        Checkpointer(checkpoint_dir, spec.name, interval_s=checkpoint_interval)
        if checkpoint_dir
        else None
    )
    control = BusClient(
        spec.name, queue, stop_event, shared_upper, shared_lower, checkpointer
    )
    started = time.monotonic()
    with obs.instrument() as ins:
        with ins.tracer.span("worker", worker=spec.name, kind=spec.kind):
            try:
                result = run_strategy(
                    spec,
                    instance,
                    measure,
                    time_limit=time_limit,
                    control=control,
                    resume_state=resume_state,
                )
            except Exception as error:  # report, don't crash the race
                result = WorkerResult(
                    name=spec.name,
                    kind=spec.kind,
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                )
        if not result.elapsed:
            result.elapsed = time.monotonic() - started
        report = capture_worker_report(ins, spec, result, instance_name, measure)
    if checkpointer is not None:
        checkpointer.flush()
    queue.put(
        BoundMessage(
            type="result",
            worker=spec.name,
            payload={"result": result.to_dict(), "report": report.to_dict()},
        )
    )
    queue.close()
    queue.join_thread()
