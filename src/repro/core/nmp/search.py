"""Pluggable search engine for the Network Mapping Problem (paper Section 4.3).

The search space of the NMP — every layer of every concurrently executing
network may go to any capable processing element at any supported precision —
grows as ``(#precisions * #PEs) ** #layers``, and the paper explores it with
an evolutionary algorithm (Figure 10 compares it against random sampling of
the same number of candidates).  This module generalises that comparison into
a strategy plug-in architecture:

* :class:`SearchStrategy` — the protocol a search strategy implements: it
  proposes an initial population and, given the evaluated previous
  population, the next one.  Strategies never evaluate candidates themselves.
* :class:`MapperEngine` — the shared driver.  It owns ONE
  :class:`~.objective.FitnessEvaluator` (and therefore one fitness cache, one
  flattened schedule and one per-task degradation cache) for any number of
  strategy runs over the same graph, tracks the best candidate, records the
  per-generation convergence history (Figure 10a), enforces an optional
  evaluation budget and stops early when the best fitness stagnates for
  ``patience`` generations.
* Four built-in strategies: :class:`EvolutionaryStrategy` (the paper's
  genetic search of Section 4.3.1, bit-for-bit identical to the pre-engine
  evolutionary mapper for a given seed), :class:`RandomSearchStrategy` (the
  paper's Figure 10b baseline), :class:`SimulatedAnnealingStrategy`
  (parallel Metropolis chains with geometric cooling) and
  :class:`GreedyLayerwiseStrategy` (coordinate descent over layers: sweep
  every (PE, precision) option of one layer per generation).

The engine is the one mapper entry point: the paper's mapper is
``MapperEngine(graph, platform, profile, config).run(EvolutionaryStrategy(),
initial_candidates=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ...frames.sparse import pairwise_mean
from ...hw.pe import Platform
from ...hw.profiler import ProfileTable
from ...nn.accuracy import TaskAccuracyEvaluator
from ...nn.graph import MultiTaskGraph
from .candidate import ChoiceTable, MappingCandidate
from .objective import FitnessBreakdown, FitnessEvaluator

__all__ = [
    "GenerationStats",
    "NMPConfig",
    "NMPResult",
    "SearchContext",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomSearchStrategy",
    "SimulatedAnnealingStrategy",
    "GreedyLayerwiseStrategy",
    "MapperEngine",
    "STRATEGIES",
    "make_strategy",
]


@dataclass(frozen=True)
class GenerationStats:
    """Best / mean fitness of one generation (Figure 10a data point)."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_latency: float


@dataclass(frozen=True)
class NMPConfig:
    """Hyper-parameters shared by every search strategy.

    ``max_evaluations`` bounds the number of candidate evaluations the engine
    *requests* (cached repeats included), so strategies with different
    population shapes can be compared under an equal budget.  ``patience``
    stops a run after that many consecutive generations without improvement
    of the best fitness.  Both default to off, which preserves the seed's
    fixed ``generations x population_size`` schedule.
    """

    population_size: int = 24
    generations: int = 20
    elite_fraction: float = 0.25
    mutation_layers: int = 2
    accuracy_threshold: float = 0.05
    full_precision_only: bool = False
    seed: int = 0
    max_evaluations: Optional[int] = None
    patience: Optional[int] = None

    def __post_init__(self) -> None:
        if self.population_size < 2:
            raise ValueError("population_size must be >= 2")
        if self.generations < 1:
            raise ValueError("generations must be >= 1")
        if not 0.0 < self.elite_fraction <= 1.0:
            raise ValueError("elite_fraction must be in (0, 1]")
        if self.mutation_layers < 0:
            raise ValueError("mutation_layers must be non-negative")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be >= 1 when set")
        if self.patience is not None and self.patience < 1:
            raise ValueError("patience must be >= 1 when set")


@dataclass
class NMPResult:
    """Outcome of one search run.

    ``evaluations`` / ``cache_hits`` count *this run's* scheduler evaluations
    and fitness-cache hits even when several runs share one evaluator;
    ``requested_evaluations`` counts every candidate the engine asked the
    evaluator about (the budget currency).  A search memoized by
    :class:`~repro.runtime.streams.AdaptiveMappingClient` reports what a
    re-run on the same engine would: ``evaluations == 0`` and
    ``cache_hits == requested_evaluations``, everything else unchanged.
    """

    best_candidate: MappingCandidate
    best_breakdown: FitnessBreakdown
    history: List[GenerationStats]
    evaluations: int
    cache_hits: int
    strategy: str = ""
    requested_evaluations: int = 0

    @property
    def best_latency(self) -> float:
        """Maximum task latency of the best mapping found."""
        return self.best_breakdown.max_task_latency

    @property
    def convergence(self) -> List[float]:
        """Best fitness per generation (Figure 10a series)."""
        return [g.best_fitness for g in self.history]


@dataclass
class SearchContext:
    """Everything a strategy may consult while proposing candidates."""

    graph: MultiTaskGraph
    platform: Platform
    config: NMPConfig
    rng: np.random.Generator
    initial_candidates: List[MappingCandidate]


@runtime_checkable
class SearchStrategy(Protocol):
    """Candidate-proposal protocol driven by :class:`MapperEngine`.

    Strategies are stateful across one run (``reset`` is called at the start
    of every run) and must draw all randomness from ``ctx.rng`` so that a
    fixed :attr:`NMPConfig.seed` makes the whole search deterministic.
    """

    name: str

    def reset(self) -> None:
        """Clear any per-run state before a new search starts."""

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        """Propose the first population."""

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        """Propose the next population given the evaluated previous one.

        ``evaluated`` is in population order (NOT ranked); strategies that
        need a ranking sort it themselves.
        """


def _warm_started_population(ctx: SearchContext) -> List[MappingCandidate]:
    """Warm starts truncated to the population size, padded with random candidates.

    Seeding with known-reasonable mappings (all-GPU, round-robin) guarantees
    the search never returns something worse than the heuristics it is
    compared against and speeds up convergence.
    """
    cfg = ctx.config
    population = [c.copy() for c in ctx.initial_candidates[: cfg.population_size]]
    while len(population) < cfg.population_size:
        population.append(
            MappingCandidate.random(
                ctx.graph,
                ctx.platform,
                ctx.rng,
                full_precision_only=cfg.full_precision_only,
            )
        )
    return population


def _ranked(
    evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]]
) -> List[Tuple[MappingCandidate, FitnessBreakdown]]:
    """Stable sort by ascending fitness (ties keep population order)."""
    return sorted(evaluated, key=lambda pair: pair[1].fitness)


class EvolutionaryStrategy:
    """The paper's genetic search (Section 4.3.1).

    The search space grows as ``(#precisions * #PEs) ** #layers``, so the
    mapper explores it with a genetic algorithm:

    1. sample an initial population of mapping candidates (warm starts
       first, padded with random candidates);
    2. evaluate each candidate's fitness (Equation 2) with the list
       scheduler and the (subset-sampled, cached) accuracy evaluators;
    3. keep the fittest candidates as parents ("elitism"), create children
       by the paper's neighbour-pair crossover (one of each neighbouring
       pair of parents survives with equal likelihood) and mutate a fixed
       number of layers per child;
    4. repeat for a configured number of generations, recording the best
       and mean fitness per generation (the convergence curve of Figure
       10a).

    Reproduces the pre-engine evolutionary mapper exactly: for a given
    :attr:`NMPConfig.seed` it consumes the RNG in the same order and
    therefore returns the same best candidate and convergence history.
    """

    name = "evolutionary"

    def reset(self) -> None:
        pass

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        return _warm_started_population(ctx)

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        cfg = ctx.config
        ranked = [c for c, _ in _ranked(evaluated)]
        num_elite = max(int(round(cfg.elite_fraction * cfg.population_size)), 1)
        elites = [c.copy() for c in ranked[:num_elite]]
        children: List[MappingCandidate] = []
        parents = ranked[: max(num_elite * 2, 2)]
        while len(children) < cfg.population_size - num_elite:
            i = int(ctx.rng.integers(len(parents) - 1)) if len(parents) > 1 else 0
            pair = (parents[i], parents[min(i + 1, len(parents) - 1)])
            # Paper crossover: one of the neighbouring parents is chosen as
            # the child with equal likelihood.
            chosen = pair[int(ctx.rng.integers(2))]
            child = chosen.mutate(
                ctx.graph,
                ctx.platform,
                ctx.rng,
                num_mutations=cfg.mutation_layers,
                full_precision_only=cfg.full_precision_only,
            )
            children.append(child)
        return elites + children


class RandomSearchStrategy:
    """Uniform random sampling (Figure 10b): a fresh population every generation.

    Ignores warm starts by design — the comparison against the evolutionary
    strategy isolates the effect of selection/crossover/mutation.
    """

    name = "random"

    def reset(self) -> None:
        pass

    def _sample(self, ctx: SearchContext) -> List[MappingCandidate]:
        cfg = ctx.config
        return [
            MappingCandidate.random(
                ctx.graph,
                ctx.platform,
                ctx.rng,
                full_precision_only=cfg.full_precision_only,
            )
            for _ in range(cfg.population_size)
        ]

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        return self._sample(ctx)

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        return self._sample(ctx)


class SimulatedAnnealingStrategy:
    """Parallel Metropolis chains with geometric cooling.

    Each population slot is one independent annealing chain.  Every
    generation each chain proposes a ``mutation_layers``-neighbour of its
    current state; a worse proposal is accepted with probability
    ``exp(-delta / T)``.  The initial temperature is derived from the spread
    of the initial population's fitness values so the first generations
    accept most moves, and cools by ``cooling`` per generation.
    """

    name = "annealing"
    cooling = 0.85

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._states: Optional[List[Tuple[MappingCandidate, float]]] = None
        self._temperature = 0.0

    def _propose(self, ctx: SearchContext) -> List[MappingCandidate]:
        cfg = ctx.config
        num_mutations = max(cfg.mutation_layers, 1)
        assert self._states is not None
        return [
            state.mutate(
                ctx.graph,
                ctx.platform,
                ctx.rng,
                num_mutations=num_mutations,
                full_precision_only=cfg.full_precision_only,
            )
            for state, _ in self._states
        ]

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        return _warm_started_population(ctx)

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        if self._states is None:
            # The evaluated initial population becomes the chain states.
            self._states = [(c, b.fitness) for c, b in evaluated]
            fitnesses = [b.fitness for _, b in evaluated]
            spread = float(np.std(fitnesses))
            scale = float(np.mean(np.abs(fitnesses)))
            self._temperature = max(spread, 0.05 * scale, 1e-12)
            return self._propose(ctx)
        temperature = max(self._temperature, 1e-300)
        for i, (candidate, breakdown) in enumerate(evaluated):
            _, current_fitness = self._states[i]
            delta = breakdown.fitness - current_fitness
            if delta <= 0.0 or ctx.rng.random() < math.exp(-delta / temperature):
                self._states[i] = (candidate, breakdown.fitness)
        self._temperature *= self.cooling
        return self._propose(ctx)


class GreedyLayerwiseStrategy:
    """Greedy layer-wise local search (coordinate descent over layers).

    Starts from the best of the warm-started initial population and then, one
    layer per generation (cycling through the compute nodes in topological
    order), proposes every (PE, precision) option for that layer while the
    rest of the mapping is held fixed.  The engine's ranking picks the best
    variant, which becomes the incumbent for the next sweep step.  The
    incumbent itself is always among the variants, so the best fitness is
    monotonically non-increasing.
    """

    name = "greedy"

    def reset(self) -> None:
        self._incumbent: Optional[MappingCandidate] = None
        self._incumbent_fitness = float("inf")
        self._nodes: Optional[List[str]] = None
        self._cursor = 0

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        self._nodes = ctx.graph.compute_nodes()
        return _warm_started_population(ctx)

    def _variants(self, ctx: SearchContext) -> List[MappingCandidate]:
        assert self._incumbent is not None and self._nodes
        node = self._nodes[self._cursor % len(self._nodes)]
        self._cursor += 1
        options, highest = ChoiceTable.of(ctx.graph, ctx.platform).choices[node]
        if ctx.config.full_precision_only:
            options = tuple((assignment,) for assignment in highest)
        variants: List[MappingCandidate] = []
        for precisions in options:
            for assignment in precisions:
                variant = self._incumbent.copy()
                variant.assignments[node] = assignment
                variants.append(variant)
        return variants

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        best_candidate, best_breakdown = _ranked(evaluated)[0]
        if best_breakdown.fitness < self._incumbent_fitness:
            self._incumbent = best_candidate.copy()
            self._incumbent_fitness = best_breakdown.fitness
        return self._variants(ctx)


class MapperEngine:
    """Shared driver for every NMP search strategy.

    One engine owns one :class:`FitnessEvaluator` — and therefore one fitness
    cache, one flattened schedule of the graph and one per-task degradation
    cache — for any number of ``run`` calls, so strategy comparisons (Figure
    10) and repeated online remaps reuse each other's work.

    ``evaluator`` lets callers share an existing evaluator across engines;
    warm starts are passed per run.
    """

    def __init__(
        self,
        graph: MultiTaskGraph,
        platform: Platform,
        profile: ProfileTable,
        config: Optional[NMPConfig] = None,
        accuracy_evaluators: Optional[Dict[str, TaskAccuracyEvaluator]] = None,
        sparse: bool = True,
        evaluator: Optional[FitnessEvaluator] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.profile = profile
        self.config = config or NMPConfig()
        self.evaluator = evaluator or FitnessEvaluator(
            graph,
            platform,
            profile,
            accuracy_evaluators=accuracy_evaluators,
            accuracy_threshold=self.config.accuracy_threshold,
            sparse=sparse,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        strategy: SearchStrategy,
        initial_candidates: Optional[Sequence[MappingCandidate]] = None,
        config: Optional[NMPConfig] = None,
    ) -> NMPResult:
        """Drive ``strategy`` to completion and return the best mapping found.

        ``config`` overrides the engine's default configuration for this run
        (e.g. to hand different strategies an equal ``max_evaluations``
        budget); ``initial_candidates`` are the warm starts that strategies
        seed their first population with (none by default).  The
        ``accuracy_threshold`` cannot be overridden per run — it is baked
        into the shared evaluator (and its fitness cache) at engine
        construction, so a differing value raises rather than being
        silently ignored.
        """
        cfg = config or self.config
        if cfg.accuracy_threshold != self.evaluator.accuracy_threshold:
            raise ValueError(
                "accuracy_threshold cannot be overridden per run: the shared "
                f"FitnessEvaluator was built with {self.evaluator.accuracy_threshold}, "
                f"got {cfg.accuracy_threshold}; construct a new MapperEngine instead"
            )
        ctx = SearchContext(
            graph=self.graph,
            platform=self.platform,
            config=cfg,
            rng=np.random.default_rng(cfg.seed),
            initial_candidates=list(initial_candidates or []),
        )
        strategy.reset()
        evaluations_before = self.evaluator.evaluations
        cache_hits_before = self.evaluator.cache_hits
        requested = 0
        best_candidate: Optional[MappingCandidate] = None
        best_breakdown: Optional[FitnessBreakdown] = None
        history: List[GenerationStats] = []
        stale_generations = 0

        population = strategy.initial_population(ctx)
        generation = 0
        while population:
            if cfg.max_evaluations is not None:
                remaining = cfg.max_evaluations - requested
                if remaining <= 0:
                    break
                population = population[:remaining]
            evaluated = [(c, self.evaluator.evaluate(c)) for c in population]
            requested += len(evaluated)
            ranked = _ranked(evaluated)
            gen_best_candidate, gen_best = ranked[0]
            if best_breakdown is None or gen_best.fitness < best_breakdown.fitness:
                best_candidate, best_breakdown = gen_best_candidate.copy(), gen_best
                stale_generations = 0
            else:
                stale_generations += 1
            history.append(
                GenerationStats(
                    generation=generation,
                    best_fitness=best_breakdown.fitness,
                    # Mean over the ranked order in np.mean's pairwise
                    # summation order: it is part of the bit-for-bit
                    # seed-reproduction contract.
                    mean_fitness=pairwise_mean([b.fitness for _, b in ranked]),
                    best_latency=best_breakdown.max_task_latency,
                )
            )
            generation += 1
            if generation >= cfg.generations:
                break
            if cfg.patience is not None and stale_generations >= cfg.patience:
                break
            if cfg.max_evaluations is not None and requested >= cfg.max_evaluations:
                break
            population = strategy.next_population(evaluated, ctx)

        assert best_candidate is not None and best_breakdown is not None
        return NMPResult(
            best_candidate=best_candidate,
            best_breakdown=best_breakdown,
            history=history,
            evaluations=self.evaluator.evaluations - evaluations_before,
            cache_hits=self.evaluator.cache_hits - cache_hits_before,
            strategy=strategy.name,
            requested_evaluations=requested,
        )

    def equal_budget_config(self) -> NMPConfig:
        """The engine's config with ``max_evaluations`` pinned to its schedule.

        Strategies whose population shape differs from the evolutionary
        ``generations x population_size`` grid (e.g. the greedy layer sweep)
        run with this config so every strategy spends the same budget.  The
        generation cap is raised to at least 10,000 so that the evaluation
        budget, not the generation count, ends every run.
        """
        budget = self.config.generations * self.config.population_size
        return replace(
            self.config,
            max_evaluations=budget,
            generations=max(self.config.generations, 10_000),
        )


#: Registry of built-in strategies for name-based construction.
STRATEGIES = {
    "evolutionary": EvolutionaryStrategy,
    "random": RandomSearchStrategy,
    "annealing": SimulatedAnnealingStrategy,
    "greedy": GreedyLayerwiseStrategy,
}


def make_strategy(name: str) -> SearchStrategy:
    """Instantiate a registered strategy by name."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise KeyError(
            f"unknown search strategy '{name}' (available: {sorted(STRATEGIES)})"
        ) from None
    return factory()
