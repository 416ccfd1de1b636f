"""Regression: resuming a checkpoint on another instance must fail loudly.

``resume_portfolio`` used to trust whatever snapshots it found: a ghw
race checkpointed on adder_4 (ghw 2) and resumed on clique_8 (ghw 4)
seeded the incumbent from adder_4's snapshots and returned
``upper_bound=2`` with adder_4's ordering. The manifest now records a
content fingerprint of the instance, and a mismatch raises a named
``ValueError`` subclass before any worker starts.
"""

import json

import pytest

from repro.instances.registry import instance
from repro.portfolio import (
    CheckpointMismatchError,
    PortfolioSpec,
    StrategySpec,
    resume_portfolio,
    run_portfolio,
)
from repro.portfolio.checkpoint import instance_fingerprint


def _checkpointed_race(directory):
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
        instance_name="adder_4",
        checkpoint_dir=str(directory),
        checkpoint_interval=0.0,
    )
    return run_portfolio(instance("adder_4"), spec)


def test_resume_on_another_instance_is_refused(tmp_path, monkeypatch):
    race = _checkpointed_race(tmp_path)
    assert race.upper_bound == 2

    def no_worker_may_start(*args, **kwargs):
        raise AssertionError("a worker started on a foreign checkpoint")

    monkeypatch.setattr(
        "repro.portfolio.scheduler._run_inline", no_worker_may_start
    )
    with pytest.raises(CheckpointMismatchError, match="adder_4"):
        resume_portfolio(instance("clique_8"), str(tmp_path))
    assert issubclass(CheckpointMismatchError, ValueError)


def test_resume_on_the_same_content_is_accepted(tmp_path):
    race = _checkpointed_race(tmp_path)
    resumed = resume_portfolio(instance("adder_4"), str(tmp_path))
    assert resumed.upper_bound == race.upper_bound == 2
    # A freshly built copy of the same instance carries the same content.
    assert json.loads((tmp_path / "manifest.json").read_text())[
        "fingerprint"
    ] == instance_fingerprint(instance("adder_4"))


def test_manifest_without_fingerprint_is_refused(tmp_path):
    _checkpointed_race(tmp_path)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["fingerprint"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CheckpointMismatchError, match="no instance fingerprint"):
        resume_portfolio(instance("adder_4"), str(tmp_path))


def test_fingerprint_is_content_based():
    assert instance_fingerprint(instance("adder_4")) == instance_fingerprint(
        instance("adder_4")
    )
    assert instance_fingerprint(instance("adder_4")) != instance_fingerprint(
        instance("adder_5")
    )
    graph = instance("adder_4").primal_graph()
    assert instance_fingerprint(graph) == instance_fingerprint(graph.copy())
    assert instance_fingerprint(graph) != instance_fingerprint(
        instance("adder_4")
    )
