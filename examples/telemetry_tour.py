"""A tour of the observability layer: metrics, spans, telemetry JSONL.

Run with::

    python examples/telemetry_tour.py

Instruments one exact ghw run and one GA run, prints the counters and
span tree each produced, stages a small experiment table with telemetry
enabled, and round-trips the emitted JSON-lines file through the schema
validator — everything ``docs/observability.md`` describes, as running
code.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro import obs
from repro.experiments.runner import ExperimentSpec, run_experiment
from repro.genetic.ga_ghw import ga_ghw
from repro.instances.hypergraphs import grid2d
from repro.obs.render import render_metrics, render_spans
from repro.obs.report import RunReport, read_jsonl
from repro.search import branch_and_bound_ghw


def main() -> None:
    hypergraph = grid2d(3, 3)

    # ------------------------------------------------------------------
    # 1. Instrument an exact search: counters for nodes/prunes/set-cover
    #    work, a span tree for the solver phases.
    # ------------------------------------------------------------------
    with obs.instrument() as ins:
        result = branch_and_bound_ghw(hypergraph)
    print("== bb-ghw on the 3x3 grid hypergraph ==")
    print(f"ghw = {result.value} (optimal={result.optimal})")
    print()
    print(render_metrics(ins.metrics.snapshot()))
    print()
    print(render_spans(ins.tracer.tree()))

    # The result object carries the same snapshot, so metrics stay
    # attributable to the run that produced them.
    assert result.metrics == ins.metrics.snapshot()

    # ------------------------------------------------------------------
    # 2. Heuristics report through the same vocabulary.
    # ------------------------------------------------------------------
    with obs.instrument() as ins:
        ga = ga_ghw(hypergraph, seed=0)
    print()
    print("== GA-ghw, same instance ==")
    print(f"ghw <= {ga.best_fitness} after {ga.generations} generations")
    print(render_metrics(ins.metrics.snapshot()))

    # ------------------------------------------------------------------
    # 3. Capture a structured RunReport by hand...
    # ------------------------------------------------------------------
    report = RunReport.capture(
        ins,
        instance="grid_3x3",
        solver="ga",
        measure="ghw",
        status="heuristic",
        upper_bound=ga.best_fitness,
        elapsed_s=ga.elapsed,
    )
    print()
    print("== RunReport as a JSON line ==")
    print(report.to_json()[:120] + " ...")

    # ------------------------------------------------------------------
    # 4. ...or let the experiment runner emit one per table cell.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "runs.jsonl"
        spec = ExperimentSpec(
            instances=["adder_3"],
            measure="ghw",
            algorithms=["bb", "sa"],
            time_limit=5.0,
        )
        table = run_experiment(spec, telemetry_out=str(path))
        print()
        print("== experiment table ==")
        print(table.to_text())
        reports = read_jsonl(path)  # validates every line on load
        print()
        print(f"telemetry: {len(reports)} validated reports in {path.name}")
        for entry in reports:
            print(
                f"  {entry.instance} / {entry.solver}: {entry.status}, "
                f"{len(entry.counters)} counter series, "
                f"{len(entry.spans)} root span(s)"
            )


if __name__ == "__main__":
    main()
