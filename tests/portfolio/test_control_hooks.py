"""Every solver family honours the SolverControl contract.

Each family must: stop cooperatively when ``should_stop`` fires, publish
upper-bound improvements (with witness orderings), checkpoint resumable
state, and — for the exact searches — prune against an injected shared
upper bound without ever claiming a lower bound it did not prove.
"""

from repro.genetic.ga_ghw import ga_ghw
from repro.genetic.ga_tw import ga_treewidth
from repro.genetic.saiga import saiga_ghw
from repro.localsearch.simulated_annealing import sa_ghw
from repro.localsearch.tabu import tabu_ghw
from repro.obs.control import LocalControl
from repro.search import astar_treewidth, branch_and_bound_treewidth


class TestHeuristicHooks:
    def test_ga_publishes_and_checkpoints(self, figure_2_11):
        control = LocalControl()
        result = ga_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        assert sorted(control.best_ordering) == sorted(figure_2_11.vertices())
        assert control.checkpoints
        last = control.checkpoints[-1]
        assert last["best_fitness"] == result.best_fitness
        assert "rng_state" in last and "population" in last

    def test_ga_stops_cooperatively(self, figure_2_11):
        control = LocalControl(stop_after_publishes=1)
        result = ga_ghw(figure_2_11, seed=0, control=control)
        # wound down early but still returned its best-so-far
        assert result.best_fitness >= 2
        assert control.publishes >= 1

    def test_ga_early_stops_at_shared_lower_bound(self, figure_2_11):
        control = LocalControl(lower_bound=2)
        result = ga_ghw(figure_2_11, seed=0, control=control)
        assert result.best_fitness == 2
        # reaching the proven optimum ends the run well before the
        # generation budget
        assert result.generations < 20

    def test_ga_resumes_from_snapshot(self, figure_2_11):
        control = LocalControl(stop_after_publishes=1)
        ga_ghw(figure_2_11, seed=0, control=control)
        snapshot = control.checkpoints[-1]
        resumed = ga_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= snapshot["best_fitness"]

    def test_sa_hooks(self, figure_2_11):
        control = LocalControl()
        result = sa_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        assert control.checkpoints
        snapshot = control.checkpoints[-1]
        assert snapshot["best_fitness"] == result.best_fitness
        resumed = sa_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= result.best_fitness

    def test_tabu_hooks(self, figure_2_11):
        control = LocalControl()
        result = tabu_ghw(figure_2_11, seed=0, control=control)
        assert control.best_upper == result.best_fitness
        snapshot = control.checkpoints[-1]
        resumed = tabu_ghw(figure_2_11, seed=0, resume_state=snapshot)
        assert resumed.best_fitness <= result.best_fitness

    def test_saiga_hooks(self, figure_2_11):
        control = LocalControl()
        result = saiga_ghw(figure_2_11, seed=0, epochs=2, control=control)
        assert control.best_upper == result.best_fitness
        snapshot = control.checkpoints[-1]
        assert "islands" in snapshot
        resumed = saiga_ghw(
            figure_2_11, seed=0, epochs=1, resume_state=snapshot
        )
        assert resumed.best_fitness <= result.best_fitness

    def test_tw_ga_accepts_control(self, square):
        control = LocalControl()
        result = ga_treewidth(square, seed=0, control=control)
        assert control.best_upper == result.best_fitness == 2


class TestExactHooks:
    def test_bb_publishes_both_bounds(self, square):
        control = LocalControl()
        result = branch_and_bound_treewidth(square, control=control)
        assert result.optimal and result.value == 2
        assert control.best_upper == 2
        assert control.best_lower == 2

    def test_bb_prunes_against_shared_upper_without_fake_lb(self, square):
        # A shared ub below the true optimum: the search exhausts while
        # pruning against it, so it must NOT certify — only lb <= 2 is
        # actually proven.
        control = LocalControl(upper_bound=2)
        result = branch_and_bound_treewidth(square, control=control)
        assert result.lower_bound <= 2
        assert not (result.optimal and result.value > 2)

    def test_bb_stops_cooperatively(self):
        from repro.instances.dimacs_like import queen_graph

        control = LocalControl()
        control.stop = True
        result = branch_and_bound_treewidth(queen_graph(4), control=control)
        # wound down immediately: no search happened, bounds stay sound
        assert result.nodes_expanded == 0
        assert not result.optimal
        assert result.lower_bound <= result.upper_bound

    def test_astar_control(self, square):
        control = LocalControl()
        result = astar_treewidth(square, control=control)
        assert result.optimal and result.value == 2
        assert control.best_lower == 2
