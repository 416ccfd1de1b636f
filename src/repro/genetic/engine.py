"""The generic permutation GA engine behind GA-tw and GA-ghw (Figure 6.1).

Both thesis GAs share every moving part except the fitness function: an
elimination ordering's *width* for GA-tw (Figure 6.2), its greedy *cover
width* for GA-ghw (Figure 7.1). The engine therefore takes the evaluation
as a callable and implements the Figure 6.1 loop verbatim:

  initialise -> evaluate -> [select -> recombine -> mutate -> evaluate]*

Control parameters mirror the thesis: population size ``n``, crossover
rate ``p_c`` (fraction of the population recombined each generation),
mutation rate ``p_m`` (per-individual mutation probability), tournament
group size ``s``, and the iteration budget. The engine also supports a
wall-clock budget and a known-optimum early stop so tests stay fast.
"""

from __future__ import annotations

import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro import obs
from repro.genetic.crossover import CrossoverOperator, get_crossover
from repro.genetic.mutation import MutationOperator, get_mutation
from repro.genetic.selection import best_individual, tournament_selection
from repro.hypergraphs.graph import Vertex
from repro.obs.control import AnytimeRun, SolverControl

Permutation = list[Vertex]
Evaluator = Callable[[Sequence[Vertex]], int]
PopulationEvaluator = Callable[[Sequence[Sequence[Vertex]]], list[int]]


@dataclass
class GAParameters:
    """Control parameters of Figure 6.1 (thesis defaults from Ch. 6.3)."""

    population_size: int = 50
    crossover_rate: float = 1.0
    mutation_rate: float = 0.3
    group_size: int = 3
    max_iterations: int = 200
    crossover: str = "POS"
    mutation: str = "ISM"

    def validated(self) -> "GAParameters":
        if self.population_size < 2:
            raise ValueError("population size must be >= 2")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError("crossover rate must be in [0, 1]")
        if not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must be in [0, 1]")
        if self.group_size < 1:
            raise ValueError("group size must be >= 1")
        if self.max_iterations < 0:
            raise ValueError("iteration budget must be >= 0")
        get_crossover(self.crossover)
        get_mutation(self.mutation)
        return self


@dataclass
class GAResult:
    """Outcome of a GA run."""

    best_fitness: int
    best_individual: Permutation
    generations: int
    evaluations: int
    history: list[int] = field(default_factory=list)
    """Best-so-far fitness after each generation (generation 0 included)."""

    elapsed: float = 0.0

    metrics: dict = field(default_factory=dict)
    """``repro.obs`` snapshot at run end (empty when uninstrumented)."""


def initial_population(
    elements: Sequence[Vertex],
    size: int,
    rng: random.Random,
    seeds: Sequence[Sequence[Vertex]] = (),
) -> list[Permutation]:
    """Random permutations, optionally seeded with heuristic orderings."""
    population: list[Permutation] = [list(seed) for seed in seeds[:size]]
    base = list(elements)
    while len(population) < size:
        individual = base[:]
        rng.shuffle(individual)
        population.append(individual)
    return population


def population_evaluator(
    evaluate: Evaluator, batch_evaluate: PopulationEvaluator | None = None
) -> PopulationEvaluator:
    """Whole-population fitness: ``batch_evaluate`` when given, else
    ``evaluate`` once per individual."""
    if batch_evaluate is not None:
        return lambda population: list(batch_evaluate(population))
    return lambda population: [evaluate(individual) for individual in population]


def run_ga(
    elements: Sequence[Vertex],
    evaluate: Evaluator,
    parameters: GAParameters,
    rng: random.Random,
    seeds: Sequence[Sequence[Vertex]] = (),
    time_limit: float | None = None,
    target: int | None = None,
    batch_evaluate: PopulationEvaluator | None = None,
    control: SolverControl | None = None,
    resume_state: dict | None = None,
) -> GAResult:
    """Run the Figure 6.1 loop and return the best ordering found.

    Parameters
    ----------
    elements:
        The vertices to permute.
    evaluate:
        Fitness of an ordering (smaller is better).
    parameters:
        Control parameters (validated on entry).
    rng:
        Random source — the run is deterministic given the seed.
    seeds:
        Optional heuristic orderings injected into the initial population.
    time_limit:
        Optional wall-clock cutoff checked once per generation.
    target:
        Optional known optimum; the run stops as soon as it is reached.
    batch_evaluate:
        Optional whole-population evaluator (e.g. a
        :class:`~repro.kernels.parallel.ParallelEvaluator`); when given
        it replaces the per-individual ``evaluate`` loop each generation.
    control:
        Optional portfolio control: the loop stops cooperatively, stops
        early when the champion reaches the portfolio-wide lower bound,
        publishes champion improvements, and offers a resume snapshot
        after every generation.
    resume_state:
        A snapshot previously offered to ``control`` (with ``rng_state``
        already decoded to a ``random.Random`` state tuple); the run
        continues from that population and generation instead of
        initialising a fresh one. Orderings that do not permute
        ``elements`` raise :class:`ValueError`.
    """
    parameters = parameters.validated()
    evaluate_population = population_evaluator(evaluate, batch_evaluate)

    def fields() -> dict:
        return {
            "population": [list(ind) for ind in population],
            "fitnesses": list(fitnesses),
            "generation": generation,
        }

    run = AnytimeRun(
        "ga", elements, rng, fields,
        time_limit=time_limit, target=target, control=control,
    )
    ins = obs.current()
    metrics = ins.metrics
    generations_total = metrics.counter("generations", solver="ga")
    evaluations_total = metrics.counter("evaluations", solver="ga")
    generation_seconds = metrics.histogram("generation_seconds", solver="ga")

    with ins.tracer.span(
        "ga",
        population=parameters.population_size,
        crossover=parameters.crossover,
        mutation=parameters.mutation,
    ):
        if resume_state is None:
            with ins.tracer.span("init_population"):
                population = initial_population(
                    elements, parameters.population_size, rng, seeds
                )
                fitnesses = evaluate_population(population)
            evaluations_total.inc(len(population))
            generation = 0
            champion, champion_fitness = best_individual(population, fitnesses)
            run.start(champion_fitness, champion, evaluations=len(population))
        else:
            population = [run.ordering(ind) for ind in resume_state["population"]]
            fitnesses = list(resume_state["fitnesses"])
            generation = int(resume_state.get("generation", 0))
            run.resume(resume_state, evaluations=len(population))
        with ins.tracer.span("evolve"):
            while generation < parameters.max_iterations and not run.stop():
                generation += 1
                generation_started = run.budget.elapsed()
                population = breed(population, fitnesses, parameters, rng)
                fitnesses = evaluate_population(population)
                run.evaluations += len(population)
                generations_total.inc()
                evaluations_total.inc(len(population))
                if metrics.enabled:
                    generation_seconds.observe(
                        run.budget.elapsed() - generation_started
                    )
                generation_best, generation_fitness = best_individual(
                    population, fitnesses
                )
                if generation_fitness < run.best_fitness:
                    run.improved(generation_fitness, generation_best)
                run.history.append(run.best_fitness)
                run.checkpoint()

    return GAResult(generations=generation, **run.finish())


def breed(
    population: list[Permutation],
    fitnesses: Sequence[int],
    parameters: GAParameters,
    rng: random.Random,
) -> list[Permutation]:
    """One Figure 6.1 generation before evaluation: tournament selection,
    then crossover of a ``p_c`` fraction of the population in random
    pairs, then per-individual mutation with probability ``p_m``."""
    crossover: CrossoverOperator = get_crossover(parameters.crossover)
    mutation: MutationOperator = get_mutation(parameters.mutation)
    population = tournament_selection(
        population,
        fitnesses,
        parameters.group_size,
        parameters.population_size,
        rng,
    )
    pair_count = int(parameters.crossover_rate * len(population)) // 2
    if pair_count:
        indices = rng.sample(range(len(population)), 2 * pair_count)
        for k in range(pair_count):
            i, j = indices[2 * k], indices[2 * k + 1]
            population[i], population[j] = crossover(
                population[i], population[j], rng
            )
    for i in range(len(population)):
        if rng.random() < parameters.mutation_rate:
            population[i] = mutation(population[i], rng)
    return population
