"""Cooperative solver control: stop signals, shared bounds, checkpoints.

A :class:`SolverControl` is the solver-facing half of the portfolio's
bound bus (:mod:`repro.portfolio.bus`). Every solver loop in the library
accepts an optional ``control`` and, when one is given,

* polls :meth:`SolverControl.should_stop` at its loop head and winds
  down gracefully (flushing its best-so-far result) when it fires,
* reads :meth:`shared_upper_bound` / :meth:`shared_lower_bound` — the
  portfolio-wide incumbent — and prunes or early-stops against them,
* reports its own improvements through :meth:`publish_upper` /
  :meth:`publish_lower`, and
* offers periodic :meth:`checkpoint` payloads (RNG state plus whatever
  population/ordering snapshot the solver needs to resume).

The base class is deliberately inert: every method is a no-op that
reports "keep going", so solvers can hold a control unconditionally.
:class:`LocalControl` is the in-process implementation used by the
inline scheduler and by tests; the process-mode client lives with the
bus because it owns the multiprocessing primitives.

This lives in :mod:`repro.obs` next to :class:`~repro.obs.budget.Budget`
for the same reason the budget does: it is cross-cutting runtime plumbing
that every solver family shares, with no solver-specific imports, so
solvers can depend on it without cycles.

:class:`AnytimeRun` is the solver side of that contract for the anytime
heuristics (GA, SAIGA, SA, tabu): the incumbent, the resume, the stop
checks, the publishes and the checkpoints that every such loop runs
around its own search step.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence

from repro.obs.budget import Budget
from repro.obs.runtime import current


class SolverControl:
    """No-op control: never stops, shares nothing, records nothing."""

    def should_stop(self) -> bool:
        """``True`` when the solver should wind down and return."""
        return False

    def shared_upper_bound(self) -> int | None:
        """The portfolio-wide incumbent upper bound, if any."""
        return None

    def shared_lower_bound(self) -> int | None:
        """The portfolio-wide proven lower bound, if any."""
        return None

    def publish_upper(self, value: int, ordering: Sequence | None = None) -> None:
        """Report an improved upper bound (with its witness ordering)."""

    def publish_lower(self, value: int) -> None:
        """Report an improved proven lower bound."""

    def checkpoint(self, state: dict) -> None:
        """Offer a resume snapshot; implementations throttle and persist."""


class LocalControl(SolverControl):
    """In-process control backed by plain attributes.

    Used directly in tests and as the building block of the inline
    scheduler: ``stop`` is a flag the owner flips, ``upper_bound`` /
    ``lower_bound`` are injected shared bounds, and published bounds and
    checkpoints are recorded on the instance. Publishing keeps only
    improvements, so ``best_upper``/``best_lower`` are monotone.
    """

    def __init__(
        self,
        upper_bound: int | None = None,
        lower_bound: int | None = None,
        stop_after_publishes: int | None = None,
    ) -> None:
        self.stop = False
        self.upper_bound = upper_bound
        self.lower_bound = lower_bound
        self.best_upper: int | None = None
        self.best_ordering: list | None = None
        self.best_lower: int | None = None
        self.checkpoints: list[dict] = []
        self.publishes = 0
        self._stop_after_publishes = stop_after_publishes

    def should_stop(self) -> bool:
        return self.stop

    def shared_upper_bound(self) -> int | None:
        return self.upper_bound

    def shared_lower_bound(self) -> int | None:
        return self.lower_bound

    def publish_upper(self, value: int, ordering: Sequence | None = None) -> None:
        self.publishes += 1
        if self.best_upper is None or value < self.best_upper:
            self.best_upper = value
            self.best_ordering = list(ordering) if ordering is not None else None
        if (
            self._stop_after_publishes is not None
            and self.publishes >= self._stop_after_publishes
        ):
            self.stop = True

    def publish_lower(self, value: int) -> None:
        self.publishes += 1
        if self.best_lower is None or value > self.best_lower:
            self.best_lower = value

    def checkpoint(self, state: dict) -> None:
        self.checkpoints.append(state)


def permutes(ordering, vertices: set) -> bool:
    """Whether ``ordering`` lists every vertex of ``vertices`` exactly once."""
    try:
        return len(ordering) == len(vertices) and set(ordering) == vertices
    except TypeError:  # None, or an unhashable leaf: no vertex of ours
        return False


class AnytimeRun:
    """The anytime shell around one heuristic's search loop.

    The loop owns its search step and its own snapshot fields; the run
    owns the incumbent (``best_fitness``, ``best_individual``), the
    per-step ``history``, the ``evaluations`` count and every hook call,
    in this order::

        start() or resume()    publish the incumbent, first checkpoint
        while not stop():      target, budget, control stop, shared lb
            <search step>      improved() publishes each new best
            checkpoint()

    ``fields`` returns the family's snapshot fields; a checkpoint adds
    the incumbent, ``history``, ``evaluations`` and the RNG state. It is
    called only when a control is attached. :meth:`finish` sets the
    ``best_fitness`` gauge and returns the result fields all four
    families share.
    """

    def __init__(
        self,
        solver: str,
        elements: Sequence,
        rng: random.Random,
        fields: Callable[[], dict],
        time_limit: float | None = None,
        target: int | None = None,
        control: SolverControl | None = None,
    ) -> None:
        self.solver = solver
        self.elements = elements
        self.rng = rng
        self.fields = fields
        self.target = target
        self.control = control
        self.budget = Budget(time_limit=time_limit)
        self.metrics = current().metrics
        self.best_fitness = 0
        self.best_individual: list = []
        self.history: list[int] = []
        self.evaluations = 0

    def start(self, best_fitness: int, best_individual: list, evaluations: int) -> None:
        """Begin a fresh run from its first incumbent."""
        self.best_fitness = best_fitness
        self.best_individual = best_individual
        self.history = [best_fitness]
        self.evaluations = evaluations
        self._open()

    def resume(self, state: dict, evaluations: int = 0) -> None:
        """Continue from ``state``, a snapshot offered by an earlier run
        (``rng_state`` decoded); ``evaluations`` stands in for a missing
        count. Call it after restoring the family's own fields."""
        if state.get("rng_state") is not None:
            self.rng.setstate(state["rng_state"])
        self.best_individual = self.ordering(state["best_individual"])
        self.best_fitness = int(state["best_fitness"])
        self.history = list(state.get("history", [self.best_fitness]))
        self.evaluations = int(state.get("evaluations", evaluations))
        self._open()

    def ordering(self, ordering: Sequence) -> list:
        """A resumed ``ordering`` as a list; :class:`ValueError` unless it
        permutes the run's elements (a snapshot of another instance)."""
        ordering = list(ordering)
        if not permutes(ordering, set(self.elements)):
            raise ValueError(
                f"resumed {self.solver} ordering does not permute the "
                "instance's vertices; the snapshot belongs to another instance"
            )
        return ordering

    def _open(self) -> None:
        if self.control is not None:
            self.control.publish_upper(self.best_fitness, self.best_individual)
        self.checkpoint()

    def stop(self) -> bool:
        """The loop-head check: ``True`` when the run should end."""
        if self.target is not None and self.best_fitness <= self.target:
            return True
        if self.budget.exhausted():
            return True
        control = self.control
        if control is not None:
            if control.should_stop():
                return True
            shared_lb = control.shared_lower_bound()
            if shared_lb is not None and self.best_fitness <= shared_lb:
                return True
        return False

    def improved(self, fitness: int, ordering: list) -> None:
        """Record and publish a new best (the caller checked it is one)."""
        self.best_fitness = fitness
        self.best_individual = ordering
        if self.control is not None:
            self.control.publish_upper(fitness, ordering)

    def checkpoint(self) -> None:
        """Offer a resume snapshot when a control is attached."""
        if self.control is None:
            return
        self.control.checkpoint({
            "best_fitness": self.best_fitness,
            "best_individual": list(self.best_individual),
            **self.fields(),
            "history": list(self.history),
            "evaluations": self.evaluations,
            "rng_state": self.rng.getstate(),
        })

    def finish(self) -> dict:
        """Set the ``best_fitness`` gauge; the shared result fields."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.gauge("best_fitness", solver=self.solver).set(
                self.best_fitness
            )
        return {
            "best_fitness": self.best_fitness,
            "best_individual": self.best_individual,
            "evaluations": self.evaluations,
            "history": self.history,
            "elapsed": self.budget.elapsed(),
            "metrics": metrics.snapshot() if metrics.enabled else {},
        }
