"""Regression: a worker snapshot of another instance must not be resumed.

The manifest's instance fingerprint only covers the manifest. A ghw race
on adder_4 (ghw 2) and one on clique_8 (ghw 4) each left a checkpoint
directory; with adder_4's ``worker-ga.json`` copied into clique_8's,
``resume_portfolio`` seeded the incumbent from it and returned
``upper_bound=2`` from ``ga:checkpoint`` with an ordering over adder_4's
vertices, and no worker reported an error. Every snapshot's
``best_individual`` must now permute the instance's vertices, or the
resume raises before any worker starts; the anytime loops themselves
refuse resumed orderings of other vertices.
"""

import random
import shutil

import pytest

from repro.genetic.engine import GAParameters, run_ga
from repro.genetic.saiga import saiga_ghw
from repro.instances.registry import instance
from repro.localsearch.simulated_annealing import simulated_annealing
from repro.localsearch.tabu import tabu_search
from repro.obs.control import LocalControl
from repro.portfolio import (
    CheckpointMismatchError,
    PortfolioSpec,
    StrategySpec,
    resume_portfolio,
    run_portfolio,
)


def _race(name, directory):
    spec = PortfolioSpec(
        measure="ghw",
        strategies=[
            StrategySpec(
                name="ga", kind="ga", seed=0,
                options={"population_size": 10, "max_iterations": 5},
            ),
            StrategySpec(name="sa", kind="sa", seed=1, options={"cooling_rate": 0.5}),
        ],
        mode="inline",
        instance_name=name,
        checkpoint_dir=str(directory),
        checkpoint_interval=0.0,
    )
    return run_portfolio(instance(name), spec)


def test_foreign_worker_snapshot_is_refused(tmp_path, monkeypatch):
    adder_dir, clique_dir = tmp_path / "adder", tmp_path / "clique"
    assert _race("adder_4", adder_dir).upper_bound == 2
    assert _race("clique_8", clique_dir).upper_bound == 4
    shutil.copy(adder_dir / "worker-ga.json", clique_dir / "worker-ga.json")

    def no_worker_may_start(*args, **kwargs):
        raise AssertionError("a worker started on a foreign snapshot")

    monkeypatch.setattr(
        "repro.portfolio.scheduler._run_inline", no_worker_may_start
    )
    with pytest.raises(CheckpointMismatchError, match="worker-ga.json"):
        resume_portfolio(instance("clique_8"), str(clique_dir))


def test_own_worker_snapshots_still_resume(tmp_path):
    _race("clique_8", tmp_path)
    assert resume_portfolio(instance("clique_8"), str(tmp_path)).upper_bound == 4


def _snapshot(loop, **options):
    control = LocalControl()
    loop(list(range(6)), sum, seed=0, control=control, **options)
    return control.checkpoints[-1]


@pytest.mark.parametrize("loop", [simulated_annealing, tabu_search])
@pytest.mark.parametrize("key", ["best_individual", "current"])
def test_walks_refuse_foreign_orderings(loop, key):
    state = _snapshot(loop)
    state[key] = [0, 1, 2, 3, 4, 99]
    with pytest.raises(ValueError, match="permute"):
        loop(list(range(6)), sum, seed=0, resume_state=state)


def test_ga_refuses_a_foreign_population():
    parameters = GAParameters(population_size=4, max_iterations=2)
    control = LocalControl()
    run_ga(list(range(6)), sum, parameters, random.Random(0), control=control)
    state = control.checkpoints[-1]
    state["population"][2] = [0, 1, 2, 3, 4, 4]
    with pytest.raises(ValueError, match="permute"):
        run_ga(
            list(range(6)), sum, parameters, random.Random(0),
            resume_state=state,
        )


def test_saiga_refuses_a_foreign_island():
    adder_4 = instance("adder_4")
    control = LocalControl()
    saiga_ghw(adder_4, islands=2, island_population=4, epochs=1,
              epoch_generations=1, control=control)
    state = control.checkpoints[-1]
    state["islands"][1]["population"][0] = sorted(
        instance("clique_8").vertices()
    )
    with pytest.raises(ValueError, match="permute"):
        saiga_ghw(adder_4, islands=2, island_population=4, epochs=2,
                  epoch_generations=1, resume_state=state)
