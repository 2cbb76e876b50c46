"""Tests for the pluggable NMP search engine, its strategies and the flat scheduler."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import (
    EvolutionaryStrategy,
    ExecutionScheduler,
    FitnessEvaluator,
    GreedyLayerwiseStrategy,
    MapperEngine,
    MappingCandidate,
    NMPConfig,
    RandomSearchStrategy,
    STRATEGIES,
    make_strategy,
)
from repro.hw import PlatformProfiler, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, TaskAccuracyEvaluator, TaskSpec
from repro.runtime import all_gpu_mapping, rr_layer_mapping

from oracles.nmp import schedule_reference


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
def profile(platform, graph):
    return PlatformProfiler(platform).profile(graph)


def seed_reference_evolutionary(graph, platform, profile, config, initial_candidates=()):
    """The pre-engine evolutionary mapper's ``run`` loop, re-implemented verbatim.

    The refactored engine must reproduce this bit-for-bit for a given seed
    (the Figure-10 regression contract).
    """
    evaluator = FitnessEvaluator(
        graph, platform, profile, accuracy_threshold=config.accuracy_threshold, sparse=True
    )
    rng = np.random.default_rng(config.seed)
    population = [c.copy() for c in list(initial_candidates)[: config.population_size]]
    while len(population) < config.population_size:
        population.append(
            MappingCandidate.random(
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
        num_elite = max(int(round(config.elite_fraction * config.population_size)), 1)
        ranked = [c for c, _ in evaluated]
        elites = [c.copy() for c in ranked[:num_elite]]
        children = []
        parents = ranked[: max(num_elite * 2, 2)]
        while len(children) < config.population_size - num_elite:
            i = int(rng.integers(len(parents) - 1)) if len(parents) > 1 else 0
            pair = (parents[i], parents[min(i + 1, len(parents) - 1)])
            chosen = pair[int(rng.integers(2))]
            children.append(
                chosen.mutate(
                    graph,
                    platform,
                    rng,
                    num_mutations=config.mutation_layers,
                    full_precision_only=config.full_precision_only,
                )
            )
        population = elites + children
    return best_candidate, best, history


class TestSeedReproduction:
    @pytest.mark.parametrize("seed", [0, 3])
    def test_engine_reproduces_pre_refactor_evolutionary_search(
        self, graph, platform, profile, seed
    ):
        config = NMPConfig(population_size=10, generations=6, seed=seed)
        expected_candidate, expected_best, expected_history = (
            seed_reference_evolutionary(graph, platform, profile, config)
        )
        result = MapperEngine(graph, platform, profile, config).run(
            EvolutionaryStrategy()
        )
        assert result.best_candidate.key() == expected_candidate.key()
        assert result.best_breakdown.fitness == expected_best.fitness
        assert [
            (g.best_fitness, g.mean_fitness, g.best_latency) for g in result.history
        ] == expected_history

    def test_engine_reproduces_warm_started_search(self, graph, platform, profile):
        config = NMPConfig(population_size=8, generations=4, seed=1)
        seeds = [all_gpu_mapping(graph, platform), rr_layer_mapping(graph, platform)]
        expected_candidate, _, expected_history = seed_reference_evolutionary(
            graph, platform, profile, config, initial_candidates=seeds
        )
        result = MapperEngine(graph, platform, profile, config).run(
            EvolutionaryStrategy(), initial_candidates=seeds
        )
        assert result.best_candidate.key() == expected_candidate.key()
        assert [
            (g.best_fitness, g.mean_fitness, g.best_latency) for g in result.history
        ] == expected_history


class TestStrategies:
    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_every_strategy_is_seed_deterministic(self, graph, platform, profile, name):
        config = NMPConfig(population_size=8, generations=5, seed=2)
        runs = []
        for _ in range(2):
            engine = MapperEngine(graph, platform, profile, config)
            result = engine.run(make_strategy(name))
            runs.append(result)
        first, second = runs
        assert first.best_candidate.key() == second.best_candidate.key()
        assert first.best_breakdown.fitness == second.best_breakdown.fitness
        assert [
            (g.best_fitness, g.mean_fitness) for g in first.history
        ] == [(g.best_fitness, g.mean_fitness) for g in second.history]
        assert first.strategy == name

    @pytest.mark.parametrize("name", sorted(STRATEGIES))
    def test_strategy_results_are_valid_mappings(self, graph, platform, profile, name):
        config = NMPConfig(population_size=6, generations=4, seed=0)
        result = MapperEngine(graph, platform, profile, config).run(make_strategy(name))
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

    def test_four_strategies_share_one_evaluator(self, graph, platform, profile):
        config = NMPConfig(population_size=8, generations=4, seed=0)
        engine = MapperEngine(graph, platform, profile, config)
        results = {
            name: engine.run(make_strategy(name)) for name in sorted(STRATEGIES)
        }
        # All runs drew from one shared evaluator: its totals are the sums of
        # the per-run deltas.
        assert engine.evaluator.evaluations == sum(
            r.evaluations for r in results.values()
        )
        assert engine.evaluator.cache_hits == sum(
            r.cache_hits for r in results.values()
        )
        # Later runs benefit from earlier runs' cached evaluations.
        assert engine.evaluator.cache_hits > 0

    def test_evolutionary_beats_random_under_equal_budget(self, graph, platform, profile):
        config = NMPConfig(population_size=12, generations=10, seed=0)
        engine = MapperEngine(graph, platform, profile, config)
        evolutionary = engine.run(EvolutionaryStrategy())
        random_search = engine.run(RandomSearchStrategy())
        assert evolutionary.requested_evaluations == random_search.requested_evaluations
        assert (
            evolutionary.best_breakdown.fitness
            <= random_search.best_breakdown.fitness + 1e-15
        )

    def test_greedy_descends_from_warm_start(self, graph, platform, profile):
        config = NMPConfig(population_size=4, generations=30, seed=0)
        seed_candidate = all_gpu_mapping(graph, platform)
        engine = MapperEngine(graph, platform, profile, config)
        seed_fitness = engine.evaluator.evaluate(seed_candidate).fitness
        result = engine.run(
            GreedyLayerwiseStrategy(), initial_candidates=[seed_candidate]
        )
        assert result.best_breakdown.fitness <= seed_fitness + 1e-15

    def test_make_strategy_unknown_name(self):
        with pytest.raises(KeyError):
            make_strategy("gradient_descent")


class TestBudgetAndPatience:
    def test_max_evaluations_caps_requested(self, graph, platform, profile):
        config = NMPConfig(
            population_size=10, generations=50, seed=0, max_evaluations=35
        )
        result = MapperEngine(graph, platform, profile, config).run(
            RandomSearchStrategy()
        )
        assert result.requested_evaluations == 35
        # 3 full generations of 10 plus one truncated generation of 5.
        assert len(result.history) == 4

    def test_patience_stops_stagnant_search(self, graph, platform, profile):
        # A patience-1 run stops right after the first non-improving
        # generation; random search with a tiny population stalls quickly.
        config = NMPConfig(population_size=4, generations=200, seed=0, patience=1)
        result = MapperEngine(graph, platform, profile, config).run(
            RandomSearchStrategy()
        )
        assert len(result.history) < 200

    def test_config_validation(self):
        with pytest.raises(ValueError):
            NMPConfig(max_evaluations=0)
        with pytest.raises(ValueError):
            NMPConfig(patience=0)

    def test_run_config_override(self, graph, platform, profile):
        engine = MapperEngine(
            graph, platform, profile, NMPConfig(population_size=8, generations=10, seed=0)
        )
        result = engine.run(
            RandomSearchStrategy(),
            config=replace(engine.config, generations=2),
        )
        assert len(result.history) == 2

    def test_accuracy_threshold_override_rejected(self, graph, platform, profile):
        # The threshold is baked into the shared evaluator's fitness cache,
        # so a per-run override must fail loudly instead of being ignored.
        engine = MapperEngine(
            graph, platform, profile, NMPConfig(population_size=8, generations=2, seed=0)
        )
        with pytest.raises(ValueError, match="accuracy_threshold"):
            engine.run(
                RandomSearchStrategy(),
                config=replace(engine.config, accuracy_threshold=0.2),
            )

    def test_equal_budget_config(self, graph, platform, profile):
        engine = MapperEngine(
            graph, platform, profile, NMPConfig(population_size=8, generations=5, seed=0)
        )
        budget_config = engine.equal_budget_config()
        assert budget_config.max_evaluations == 40
        result = engine.run(GreedyLayerwiseStrategy(), config=budget_config)
        assert result.requested_evaluations <= 40


class TestFlatScheduler:
    @pytest.mark.parametrize("sparse", [False, True])
    def test_flat_path_matches_reference_exactly(self, graph, platform, profile, sparse):
        scheduler = ExecutionScheduler(platform, profile, sparse=sparse)
        rng = np.random.default_rng(0)
        mappings = [
            all_gpu_mapping(graph, platform),
            rr_layer_mapping(graph, platform),
        ] + [MappingCandidate.random(graph, platform, rng) for _ in range(10)]
        for mapping in mappings:
            flat = scheduler.schedule(graph, mapping)
            reference = schedule_reference(scheduler, graph, mapping)
            assert flat.task_latencies == reference.task_latencies
            assert flat.energy == reference.energy
            assert flat.makespan == reference.makespan
            assert flat.timeline == reference.timeline

    def test_schedule_metrics_matches_schedule(self, graph, platform, profile):
        scheduler = ExecutionScheduler(platform, profile, sparse=True)
        rng = np.random.default_rng(1)
        for _ in range(5):
            mapping = MappingCandidate.random(graph, platform, rng)
            task_latencies, energy = scheduler.schedule_metrics(graph, mapping)
            full = scheduler.schedule(graph, mapping)
            assert task_latencies == full.task_latencies
            assert energy == full.energy

    def test_flattening_is_cached_per_graph(self, graph, platform, profile):
        scheduler = ExecutionScheduler(platform, profile, sparse=True)
        assert scheduler.flatten(graph) is scheduler.flatten(graph)

    def test_unmappable_assignment_raises(self, graph, platform, profile):
        from repro.core import Assignment
        from repro.nn import Precision

        scheduler = ExecutionScheduler(platform, profile, sparse=True)
        mapping = all_gpu_mapping(graph, platform)
        # Spiking layers cannot run on the DLA: the flat options table must
        # reject the assignment just like the reference profile lookup.
        spiking = next(n for n in graph.compute_nodes() if graph.spec(n).is_spiking)
        mapping.assignments[spiking] = Assignment("dla0", Precision.FP16)
        with pytest.raises(KeyError):
            scheduler.schedule(graph, mapping)
        with pytest.raises(KeyError):
            schedule_reference(scheduler, graph, mapping)


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
        self, graph, platform, profile, accuracy_evaluators
    ):
        evaluator = FitnessEvaluator(
            graph, platform, profile, accuracy_evaluators=accuracy_evaluators
        )
        parent = all_gpu_mapping(graph, platform)
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
        self, graph, platform, profile, accuracy_evaluators
    ):
        from repro.core import Assignment
        from repro.nn import Precision

        evaluator = FitnessEvaluator(
            graph, platform, profile, accuracy_evaluators=accuracy_evaluators
        )
        parent = all_gpu_mapping(graph, platform, Precision.FP16)
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

    def test_flat_and_reference_fitness_agree(self, graph, platform, profile):
        evaluator = FitnessEvaluator(graph, platform, profile)
        scheduler = evaluator.scheduler
        rng = np.random.default_rng(2)
        for _ in range(8):
            candidate = MappingCandidate.random(graph, platform, rng)
            latencies, energy = scheduler.schedule_metrics(graph, candidate)
            reference = schedule_reference(scheduler, graph, candidate)
            assert latencies == dict(reference.task_latencies)
            assert energy == reference.energy
            # No accuracy evaluators: the fitness is the reference makespan.
            assert evaluator.evaluate(candidate).fitness == max(
                reference.task_latencies.values()
            )

