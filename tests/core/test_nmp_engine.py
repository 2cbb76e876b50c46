"""Tests for the NMP search engine, its two strategies and the flat scheduler."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    EvolutionaryStrategy,
    ExecutionScheduler,
    FitnessEvaluator,
    MapperEngine,
    MappingCandidate,
    NMPConfig,
    RandomSearchStrategy,
    SearchContext,
)
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskAccuracyEvaluator, TaskSpec
from repro.runtime import rr_layer_mapping

from oracles.hw import profile_reference
from oracles.nmp import mutate_reference, random_candidate_reference, schedule_reference


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module")
def graph():
    return MultiTaskGraph(
        [
            TaskSpec(build_network("dotie", 64, 64)),
            TaskSpec(build_network("spikeflownet", 64, 64)),
        ]
    )


@pytest.fixture(scope="module")
def table():
    return LayerCostTable()


@pytest.fixture(scope="module")
def reference_profile(platform, graph):
    return profile_reference(platform, graph)


def seed_reference_evolutionary(graph, platform, table, config, initial_candidates=()):
    """The pre-engine evolutionary mapper's ``run`` loop, re-implemented verbatim.

    The refactored engine must reproduce this bit-for-bit for a given seed
    (the Figure-10 regression contract).  Candidates come from the
    graph-walking generators of :mod:`oracles.nmp`, so a change to how the
    production generators draw cannot move the engine and this loop
    together.  The elite fraction (0.25) and the mutated layers per child (2)
    are literals here, so a change to the production constants fails the
    comparison.
    """
    evaluator = FitnessEvaluator(graph, platform, table)
    rng = np.random.default_rng(config.seed)
    population = [c.copy() for c in list(initial_candidates)[: config.population_size]]
    while len(population) < config.population_size:
        population.append(
            random_candidate_reference(
                graph, platform, rng, full_precision_only=config.full_precision_only
            )
        )
    history = []
    best_candidate = None
    best = None
    for _generation in range(config.generations):
        evaluated = [(c, evaluator.evaluate(c)) for c in population]
        evaluated.sort(key=lambda pair: pair[1].fitness)
        gen_best_candidate, gen_best = evaluated[0]
        if best is None or gen_best.fitness < best.fitness:
            best_candidate, best = gen_best_candidate.copy(), gen_best
        history.append(
            (
                gen_best.fitness,
                float(np.mean([b.fitness for _, b in evaluated])),
                gen_best.max_task_latency,
            )
        )
        num_elite = max(int(round(0.25 * config.population_size)), 1)
        ranked = [c for c, _ in evaluated]
        elites = [c.copy() for c in ranked[:num_elite]]
        children = []
        parents = ranked[: max(num_elite * 2, 2)]
        while len(children) < config.population_size - num_elite:
            i = int(rng.integers(len(parents) - 1)) if len(parents) > 1 else 0
            pair = (parents[i], parents[min(i + 1, len(parents) - 1)])
            chosen = pair[int(rng.integers(2))]
            children.append(
                mutate_reference(
                    chosen,
                    graph,
                    platform,
                    rng,
                    num_mutations=2,
                    full_precision_only=config.full_precision_only,
                )
            )
        population = elites + children
    return best_candidate, best, history


def random_search_reference(graph, platform, table, config):
    """Figure 10b's random search: a fresh population every generation.

    Each generation draws ``population_size`` candidates from the
    graph-walking generator of :mod:`oracles.nmp`.  It takes no warm
    starts, because random search ignores them.  Unlike the evolutionary
    loop, a generation's best can be worse than an earlier one, so the
    history records the best so far, with the generation's mean.
    """
    evaluator = FitnessEvaluator(graph, platform, table)
    rng = np.random.default_rng(config.seed)
    history = []
    best_candidate = None
    best = None
    for _generation in range(config.generations):
        population = [
            random_candidate_reference(
                graph, platform, rng, full_precision_only=config.full_precision_only
            )
            for _ in range(config.population_size)
        ]
        evaluated = [(c, evaluator.evaluate(c)) for c in population]
        evaluated.sort(key=lambda pair: pair[1].fitness)
        gen_best_candidate, gen_best = evaluated[0]
        if best is None or gen_best.fitness < best.fitness:
            best_candidate, best = gen_best_candidate.copy(), gen_best
        history.append(
            (
                best.fitness,
                float(np.mean([b.fitness for _, b in evaluated])),
                best.max_task_latency,
            )
        )
    return best_candidate, best, history


class TestSeedReproduction:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_engine_reproduces_pre_refactor_evolutionary_search(
        self, graph, platform, table, seed
    ):
        config = NMPConfig(population_size=10, generations=6, seed=seed)
        expected_candidate, expected_best, expected_history = (
            seed_reference_evolutionary(graph, platform, table, config)
        )
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy()
        )
        assert result.best_candidate.key() == expected_candidate.key()
        assert result.best_breakdown.fitness == expected_best.fitness
        assert [
            (g.best_fitness, g.mean_fitness, g.best_latency) for g in result.history
        ] == expected_history

    def test_engine_reproduces_warm_started_search(self, graph, platform, table):
        config = NMPConfig(population_size=8, generations=4, seed=1)
        seeds = [
            MappingCandidate.uniform(graph, "gpu", Precision.FP32),
            rr_layer_mapping(graph, platform),
        ]
        expected_candidate, _, expected_history = seed_reference_evolutionary(
            graph, platform, table, config, initial_candidates=seeds
        )
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy(), initial_candidates=seeds
        )
        assert result.best_candidate.key() == expected_candidate.key()
        assert [
            (g.best_fitness, g.mean_fitness, g.best_latency) for g in result.history
        ] == expected_history

    @pytest.mark.parametrize("warm_start", [False, True], ids=["cold", "warm"])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_engine_reproduces_random_search(
        self, graph, platform, table, seed, warm_start
    ):
        config = NMPConfig(population_size=10, generations=6, seed=seed)
        expected_candidate, expected_best, expected_history = random_search_reference(
            graph, platform, table, config
        )
        seeds = (
            [
                MappingCandidate.uniform(graph, "gpu", Precision.FP32),
                rr_layer_mapping(graph, platform),
            ]
            if warm_start
            else None
        )
        result = MapperEngine(graph, platform, table, config).run(
            RandomSearchStrategy(), initial_candidates=seeds
        )
        assert result.best_candidate.key() == expected_candidate.key()
        assert result.best_breakdown.fitness == expected_best.fitness
        assert [
            (g.best_fitness, g.mean_fitness, g.best_latency) for g in result.history
        ] == expected_history


STRATEGY_CLASSES = pytest.mark.parametrize(
    "strategy_class",
    [EvolutionaryStrategy, RandomSearchStrategy],
    ids=["evolutionary", "random"],
)


class TestStrategies:
    @STRATEGY_CLASSES
    def test_every_strategy_is_seed_deterministic(
        self, graph, platform, table, strategy_class
    ):
        config = NMPConfig(population_size=8, generations=5, seed=2)
        runs = []
        for _ in range(2):
            engine = MapperEngine(graph, platform, table, config)
            result = engine.run(strategy_class())
            runs.append(result)
        first, second = runs
        assert first.best_candidate.key() == second.best_candidate.key()
        assert first.best_breakdown.fitness == second.best_breakdown.fitness
        assert [
            (g.best_fitness, g.mean_fitness) for g in first.history
        ] == [(g.best_fitness, g.mean_fitness) for g in second.history]
        assert first.strategy == strategy_class.name

    @STRATEGY_CLASSES
    def test_strategy_results_are_valid_mappings(
        self, graph, platform, table, strategy_class
    ):
        config = NMPConfig(population_size=6, generations=4, seed=0)
        result = MapperEngine(graph, platform, table, config).run(strategy_class())
        candidate = result.best_candidate
        assert len(candidate) == len(graph.compute_nodes())
        for node, assignment in candidate.assignments.items():
            pe = platform.pe(assignment.pe)
            assert pe.supports_layer(graph.spec(node))
            assert pe.supports_precision(assignment.precision)
        assert result.best_latency > 0
        # Best-so-far convergence is non-increasing for every strategy.
        conv = result.convergence
        assert all(b <= a + 1e-12 for a, b in zip(conv, conv[1:]))

    def test_both_strategies_share_one_evaluator(self, graph, platform, table):
        config = NMPConfig(population_size=8, generations=4, seed=0)
        engine = MapperEngine(graph, platform, table, config)
        results = {
            strategy.name: engine.run(strategy)
            for strategy in (EvolutionaryStrategy(), RandomSearchStrategy())
        }
        # All runs drew from one shared evaluator: its totals are the sums of
        # the per-run deltas.
        assert engine.evaluator.evaluations == sum(
            r.evaluations for r in results.values()
        )
        assert engine.evaluator.cache_hits == sum(
            r.cache_hits for r in results.values()
        )
        # Repeated candidates are served from the shared fitness cache.
        assert engine.evaluator.cache_hits > 0

    @STRATEGY_CLASSES
    def test_strategy_instance_reruns_identically(
        self, graph, platform, table, strategy_class
    ):
        # Strategies keep no state between runs, so one instance re-run on
        # the same engine proposes the same candidates: the rerun is served
        # wholly from the fitness cache and returns the same result.
        config = NMPConfig(population_size=8, generations=4, seed=1)
        engine = MapperEngine(graph, platform, table, config)
        strategy = strategy_class()
        first = engine.run(strategy)
        second = engine.run(strategy)
        assert second.best_candidate.key() == first.best_candidate.key()
        assert second.history == first.history
        assert second.evaluations == 0
        assert second.cache_hits == second.requested_evaluations
        assert second.requested_evaluations == first.requested_evaluations

    def test_evolutionary_initial_population_truncates_and_pads_warm_starts(
        self, graph, platform
    ):
        warm = [
            MappingCandidate.uniform(graph, "gpu", precision)
            for precision in (Precision.FP32, Precision.FP16, Precision.INT8)
        ] + [rr_layer_mapping(graph, platform)]
        strategy = EvolutionaryStrategy()
        # More warm starts than the population holds: the first ones, copied.
        ctx = SearchContext(
            graph, platform, NMPConfig(population_size=3), np.random.default_rng(0), warm
        )
        population = strategy.initial_population(ctx)
        assert [c.key() for c in population] == [c.key() for c in warm[:3]]
        assert all(c is not w for c, w in zip(population, warm))
        # Fewer: the warm starts, then random candidates drawn from ctx.rng.
        ctx = SearchContext(
            graph, platform, NMPConfig(population_size=6), np.random.default_rng(4), warm[:2]
        )
        population = strategy.initial_population(ctx)
        rng = np.random.default_rng(4)
        padding = [MappingCandidate.random(graph, platform, rng) for _ in range(4)]
        assert [c.key() for c in population] == [c.key() for c in warm[:2] + padding]

    @pytest.mark.parametrize(
        "population_size, num_elite", [(2, 1), (6, 2), (10, 2)]
    )
    def test_evolutionary_next_population_keeps_elites_and_mutates_parents(
        self, graph, platform, table, population_size, num_elite
    ):
        # A quarter of the population, rounded half to even and at least
        # one, survives as copies of the best candidates; every child
        # re-draws at most two layers of one of the best 2 * num_elite.
        config = NMPConfig(population_size=population_size, seed=0)
        ctx = SearchContext(graph, platform, config, np.random.default_rng(0), [])
        strategy = EvolutionaryStrategy()
        evaluator = FitnessEvaluator(graph, platform, table)
        evaluated = [(c, evaluator.evaluate(c)) for c in strategy.initial_population(ctx)]
        ranked = [c for c, _ in sorted(evaluated, key=lambda pair: pair[1].fitness)]
        following = strategy.next_population(evaluated, ctx)
        assert len(following) == population_size
        elites, children = following[:num_elite], following[num_elite:]
        assert [c.key() for c in elites] == [c.key() for c in ranked[:num_elite]]
        assert all(e is not r for e, r in zip(elites, ranked))
        parents = ranked[: max(2 * num_elite, 2)]
        for child in children:
            assert min(
                sum(1 for node in parent.assignments if parent[node] != child[node])
                for parent in parents
            ) <= 2

    def test_evolutionary_beats_random_under_equal_budget(self, graph, platform, table):
        config = NMPConfig(population_size=12, generations=10, seed=0)
        engine = MapperEngine(graph, platform, table, config)
        evolutionary = engine.run(EvolutionaryStrategy())
        random_search = engine.run(RandomSearchStrategy())
        assert evolutionary.requested_evaluations == random_search.requested_evaluations
        assert (
            evolutionary.best_breakdown.fitness
            <= random_search.best_breakdown.fitness + 1e-15
        )


class TestRunConfig:
    @STRATEGY_CLASSES
    def test_every_run_requests_generations_times_population(
        self, graph, platform, table, strategy_class
    ):
        # No budget cap and no early stop: a run evaluates exactly
        # `generations` full populations.
        config = NMPConfig(population_size=7, generations=5, seed=0)
        result = MapperEngine(graph, platform, table, config).run(strategy_class())
        assert result.requested_evaluations == 7 * 5
        assert [g.generation for g in result.history] == list(range(5))
        assert result.evaluations + result.cache_hits == result.requested_evaluations

    def test_run_config_override(self, graph, platform, table):
        engine = MapperEngine(
            graph, platform, table, NMPConfig(population_size=8, generations=10, seed=0)
        )
        result = engine.run(
            RandomSearchStrategy(),
            config=replace(engine.config, generations=2),
        )
        assert len(result.history) == 2

    @pytest.mark.parametrize("field", ["population_size", "generations"])
    @pytest.mark.parametrize("value", [float("nan"), 2.5], ids=["nan", "fraction"])
    def test_count_that_is_not_an_integer_rejected(self, field, value):
        # Either used to construct and fail at the first run with TypeError.
        with pytest.raises(ValueError, match=field):
            NMPConfig(**{field: value})

    @pytest.mark.parametrize("seed", [-1, 1.5, None], ids=["negative", "float", "none"])
    def test_seed_that_is_not_a_non_negative_integer_rejected(self, seed):
        # numpy rejects a negative or fractional seed only at the first run,
        # inside a simulation, and None seeds every run from OS entropy, so
        # no two searches (and no memoized remap) would agree.
        with pytest.raises(ValueError, match="seed"):
            NMPConfig(seed=seed)

    def test_numpy_integer_seed_accepted(self, graph, platform, table):
        config = NMPConfig(population_size=4, generations=2, seed=np.int64(3))
        engine = MapperEngine(graph, platform, table, config)
        result = engine.run(EvolutionaryStrategy())
        expected = engine.run(EvolutionaryStrategy(), config=replace(config, seed=3))
        assert result.best_candidate.key() == expected.best_candidate.key()
        assert result.convergence == expected.convergence


class TestFitnessCacheKey:
    """The fitness cache keys a candidate's mapping of the graph's compute
    nodes, gathered in flat order: not its dict's order or extra nodes."""

    def test_reordered_assignments_hit_the_cache(self, graph, platform, table):
        from repro.core import Assignment

        evaluator = FitnessEvaluator(graph, platform, table)
        candidate = MappingCandidate.random(graph, platform, np.random.default_rng(0))
        first = evaluator.evaluate(candidate)
        evaluations = evaluator.evaluations
        reordered = MappingCandidate(dict(reversed(list(candidate.assignments.items()))))
        assert list(reordered.assignments) != list(candidate.assignments)
        # A node outside the graph never changed the fitness, nor the key.
        extended = candidate.copy()
        extended.assignments["elsewhere.conv"] = Assignment("cpu", Precision.INT8)
        for same in (reordered, extended):
            assert evaluator.key(same) == evaluator.key(candidate)
            assert evaluator.evaluate(same) is first
        assert evaluator.evaluations == evaluations

    def test_candidate_missing_a_compute_node_raises(self, graph, platform, table):
        evaluator = FitnessEvaluator(graph, platform, table)
        candidate = MappingCandidate.uniform(graph, "gpu", Precision.FP16)
        del candidate.assignments[graph.compute_nodes()[-1]]
        with pytest.raises(KeyError):
            evaluator.evaluate(candidate)
        with pytest.raises(KeyError):
            evaluator.key(candidate)

    def test_one_compute_node_graph_runs_and_keys_its_cache(self, platform, table):
        # itemgetter of one key returns the bare item: the row must still
        # be a 1-tuple.
        graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
        (node,) = graph.compute_nodes()
        engine = MapperEngine(
            graph, platform, table, NMPConfig(population_size=6, generations=3)
        )
        result = engine.run(EvolutionaryStrategy())
        best = result.best_candidate
        evaluator = engine.evaluator
        assert evaluator.key(best) == (best[node].key,)
        assert evaluator.evaluate(best) is result.best_breakdown
        assert result.cache_hits > 0
        reference = schedule_reference(
            platform, profile_reference(platform, graph), graph, best
        )
        assert result.best_breakdown.fitness == reference.max_task_latency


class TestFlatScheduler:
    def test_flat_path_matches_reference_exactly(
        self, graph, platform, table, reference_profile
    ):
        scheduler = ExecutionScheduler(platform, table)
        rng = np.random.default_rng(0)
        mappings = [
            MappingCandidate.uniform(graph, "gpu", Precision.FP32),
            rr_layer_mapping(graph, platform),
        ] + [MappingCandidate.random(graph, platform, rng) for _ in range(10)]
        for mapping in mappings:
            flat = scheduler.schedule(graph, mapping)
            reference = schedule_reference(platform, reference_profile, graph, mapping)
            assert flat.task_latencies == reference.task_latencies
            assert flat.energy == reference.energy
            assert flat.makespan == reference.makespan
            assert flat.timeline == reference.timeline

    def test_schedule_metrics_matches_schedule(self, graph, platform, table):
        scheduler = ExecutionScheduler(platform, table)
        rng = np.random.default_rng(1)
        for _ in range(5):
            mapping = MappingCandidate.random(graph, platform, rng)
            task_latencies, energy = scheduler.schedule_metrics(graph, mapping)
            full = scheduler.schedule(graph, mapping)
            assert task_latencies == full.task_latencies
            assert energy == full.energy

    def test_flattening_is_cached_per_graph(self, graph, platform, table):
        scheduler = ExecutionScheduler(platform, table)
        assert scheduler.flatten(graph) is scheduler.flatten(graph)

    def test_unmappable_assignment_raises(
        self, graph, platform, table, reference_profile
    ):
        from repro.core import Assignment
        scheduler = ExecutionScheduler(platform, table)
        mapping = MappingCandidate.uniform(graph, "gpu", Precision.FP32)
        # Spiking layers cannot run on the DLA: the flat options table must
        # reject the assignment just like the reference profile lookup.
        spiking = next(n for n in graph.compute_nodes() if graph.spec(n).is_spiking)
        mapping.assignments[spiking] = Assignment("dla0", Precision.FP16)
        with pytest.raises(KeyError):
            scheduler.schedule(graph, mapping)
        with pytest.raises(KeyError):
            schedule_reference(platform, reference_profile, graph, mapping)


class TestDeltaEvaluation:
    @pytest.fixture(scope="class")
    def accuracy_evaluators(self, graph):
        return {
            task.name: TaskAccuracyEvaluator(
                task.network.task, scale=0.15, num_intervals=3, seed=0
            )
            for task in graph.tasks
        }

    def test_device_move_reuses_cached_degradations(
        self, graph, platform, table, accuracy_evaluators
    ):
        evaluator = FitnessEvaluator(
            graph, platform, table, accuracy_evaluators=accuracy_evaluators
        )
        parent = MappingCandidate.uniform(graph, "gpu", Precision.FP32)
        first = evaluator.evaluate(parent)
        delta_hits_before = evaluator.delta_hits
        # Move one layer to the CPU at the SAME precision: no task's
        # precision tuple changes, so every degradation is a delta hit.
        child = parent.copy()
        node = graph.compute_nodes()[0]
        from repro.core import Assignment

        child.assignments[node] = Assignment("cpu", parent[node].precision)
        second = evaluator.evaluate(child)
        assert evaluator.delta_hits - delta_hits_before == len(graph.task_names)
        assert second.degradations == first.degradations
        # The schedule itself did change.
        assert evaluator.evaluations == 2

    def test_precision_change_reevaluates_only_touched_task(
        self, graph, platform, table, accuracy_evaluators
    ):
        from repro.core import Assignment
        evaluator = FitnessEvaluator(
            graph, platform, table, accuracy_evaluators=accuracy_evaluators
        )
        parent = MappingCandidate.uniform(graph, "gpu", Precision.FP16)
        evaluator.evaluate(parent)
        child = parent.copy()
        touched = next(
            n for n in graph.compute_nodes() if graph.network_of(n) == "dotie"
        )
        child.assignments[touched] = Assignment("gpu", Precision.INT8)
        before = evaluator.delta_hits
        breakdown = evaluator.evaluate(child)
        # The untouched task reuses its cached degradation; the touched one
        # is re-measured.
        assert evaluator.delta_hits - before == len(graph.task_names) - 1
        assert set(breakdown.degradations) == set(graph.task_names)

    def test_flat_and_reference_fitness_agree(
        self, graph, platform, table, reference_profile
    ):
        evaluator = FitnessEvaluator(graph, platform, table)
        scheduler = evaluator.scheduler
        rng = np.random.default_rng(2)
        for _ in range(8):
            candidate = MappingCandidate.random(graph, platform, rng)
            latencies, energy = scheduler.schedule_metrics(graph, candidate)
            reference = schedule_reference(platform, reference_profile, graph, candidate)
            assert latencies == dict(reference.task_latencies)
            assert energy == reference.energy
            # No accuracy evaluators: the fitness is the reference makespan.
            assert evaluator.evaluate(candidate).fitness == max(
                reference.task_latencies.values()
            )

