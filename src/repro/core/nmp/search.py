"""Search engine for the Network Mapping Problem (paper Section 4.3).

The search space of the NMP — every layer of every concurrently executing
network may go to any capable processing element at any supported precision —
grows as ``(#precisions * #PEs) ** #layers``.  The paper explores it with an
evolutionary algorithm, and Figure 10b compares that search with random
sampling of the same number of candidates.  This module holds both:

* :class:`SearchStrategy` — the protocol a strategy implements:
  ``initial_population`` proposes the first population and
  ``next_population``, given the evaluated previous one, the next.
  Strategies never evaluate candidates themselves.
* :class:`MapperEngine` — the driver.  It owns ONE
  :class:`~.objective.FitnessEvaluator` (and therefore one fitness cache,
  one flattened schedule and one per-task degradation cache) for any number
  of runs over the same graph.  A run evaluates exactly
  ``generations`` populations of ``population_size`` candidates, tracks the
  best candidate and records the per-generation convergence history
  (Figure 10a).
* :class:`EvolutionaryStrategy` — the paper's genetic search of Section
  4.3.1, bit-for-bit identical to the pre-engine evolutionary mapper for a
  given seed — and :class:`RandomSearchStrategy`, the Figure 10b baseline.

The engine is the one mapper entry point: the paper's mapper is
``MapperEngine(graph, platform, table, config).run(EvolutionaryStrategy(),
initial_candidates=...)``, where ``table`` is the
:class:`~repro.hw.profiler.LayerCostTable` that prices every layer option.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, runtime_checkable

from ..._checks import require_count
from ...frames.sparse import pairwise_mean
from ...hw.pe import Platform
from ...hw.profiler import LayerCostTable
from ...nn.accuracy import TaskAccuracyEvaluator
from ...nn.graph import MultiTaskGraph
from .candidate import Draws, DrawStream, MappingCandidate
from .objective import FitnessBreakdown, FitnessEvaluator

__all__ = [
    "GenerationStats",
    "NMPConfig",
    "NMPResult",
    "SearchContext",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomSearchStrategy",
    "MapperEngine",
]

#: Share of each generation the evolutionary search keeps as elites.
_ELITE_FRACTION = 0.25
#: Layers re-drawn per evolutionary child.
_MUTATION_LAYERS = 2


@dataclass(frozen=True)
class GenerationStats:
    """Best / mean fitness of one generation (Figure 10a data point)."""

    generation: int
    best_fitness: float
    mean_fitness: float
    best_latency: float


@dataclass(frozen=True)
class NMPConfig:
    """Hyper-parameters shared by both search strategies.

    Every run evaluates ``generations`` populations of ``population_size``
    candidates and draws from a stream seeded with ``seed``, a non-negative
    integer: a search is a function of its config, so a remap client may
    memoize it.
    """

    population_size: int = 24
    generations: int = 20
    accuracy_threshold: float = 0.05
    full_precision_only: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        require_count("population_size", self.population_size, 2)
        require_count("generations", self.generations, 1)
        # Written so that NaN fails too: run() compares thresholds, and
        # NaN equals nothing.
        if not self.accuracy_threshold >= 0:
            raise ValueError(
                "accuracy_threshold must be non-negative, "
                f"got {self.accuracy_threshold}"
            )
        # None would seed from OS entropy, so every run would differ.
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass
class NMPResult:
    """Outcome of one search run.

    ``evaluations`` / ``cache_hits`` count *this run's* scheduler evaluations
    and fitness-cache hits even when several runs share one evaluator;
    ``requested_evaluations`` counts every candidate the engine asked the
    evaluator about.  A search memoized by
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
    """Everything a strategy may consult while proposing candidates.

    ``rng`` is the run's :class:`~.candidate.DrawStream`, seeded with
    :attr:`NMPConfig.seed` and private to the run.  It answers
    ``integers(n)`` and ``choice(n, size=k, replace=False)`` with the values
    ``np.random.default_rng(seed)`` would give, so a context built around
    such a generator proposes the same candidates.
    """

    graph: MultiTaskGraph
    platform: Platform
    config: NMPConfig
    rng: Draws
    initial_candidates: List[MappingCandidate]


@runtime_checkable
class SearchStrategy(Protocol):
    """Candidate-proposal protocol driven by :class:`MapperEngine`.

    Strategies keep no state between calls and draw all randomness from
    ``ctx.rng`` through its ``integers`` and ``choice`` calls (the only two
    a :class:`~.candidate.DrawStream` answers), so a fixed
    :attr:`NMPConfig.seed` makes the whole search deterministic.
    """

    name: str

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

    def initial_population(self, ctx: SearchContext) -> List[MappingCandidate]:
        """Warm starts truncated to the population size, padded with random candidates.

        Seeding with known-reasonable mappings (all-GPU, round-robin)
        guarantees the search never returns something worse than the
        heuristics it is compared against and speeds up convergence.
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

    def next_population(
        self,
        evaluated: List[Tuple[MappingCandidate, FitnessBreakdown]],
        ctx: SearchContext,
    ) -> List[MappingCandidate]:
        cfg = ctx.config
        ranked = [c for c, _ in _ranked(evaluated)]
        num_elite = max(int(round(_ELITE_FRACTION * cfg.population_size)), 1)
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
                num_mutations=_MUTATION_LAYERS,
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


class MapperEngine:
    """Shared driver for both NMP search strategies.

    One engine owns one :class:`FitnessEvaluator` — and therefore one fitness
    cache, one flattened schedule of the graph and one per-task degradation
    cache — for any number of ``run`` calls, so the strategy comparison
    (Figure 10) and repeated online remaps reuse each other's work.  Warm
    starts are passed per run.
    """

    def __init__(
        self,
        graph: MultiTaskGraph,
        platform: Platform,
        table: LayerCostTable,
        config: Optional[NMPConfig] = None,
        accuracy_evaluators: Optional[Dict[str, TaskAccuracyEvaluator]] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.table = table
        self.config = config or NMPConfig()
        self.evaluator = FitnessEvaluator(
            graph,
            platform,
            table,
            accuracy_evaluators=accuracy_evaluators,
            accuracy_threshold=self.config.accuracy_threshold,
        )

    # ------------------------------------------------------------------
    def run(
        self,
        strategy: SearchStrategy,
        initial_candidates: Optional[Sequence[MappingCandidate]] = None,
        config: Optional[NMPConfig] = None,
    ) -> NMPResult:
        """Drive ``strategy`` for ``generations`` populations; return the best mapping.

        ``config`` overrides the engine's default configuration for this run
        (e.g. Figure 9's full-precision-only search);
        ``initial_candidates`` are the warm starts that strategies seed
        their first population with (none by default).  The
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
            rng=DrawStream(cfg.seed),
            initial_candidates=list(initial_candidates or []),
        )
        evaluations_before = self.evaluator.evaluations
        cache_hits_before = self.evaluator.cache_hits
        requested = 0
        best_candidate: Optional[MappingCandidate] = None
        best_breakdown: Optional[FitnessBreakdown] = None
        history: List[GenerationStats] = []

        population = strategy.initial_population(ctx)
        for generation in range(cfg.generations):
            evaluated = [(c, self.evaluator.evaluate(c)) for c in population]
            requested += len(evaluated)
            ranked = _ranked(evaluated)
            gen_best_candidate, gen_best = ranked[0]
            if best_breakdown is None or gen_best.fitness < best_breakdown.fitness:
                best_candidate, best_breakdown = gen_best_candidate.copy(), gen_best
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
            if generation + 1 < cfg.generations:
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
