"""Tests for the Network Mapper: candidates, scheduler, fitness and searches."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    Assignment,
    EvolutionaryStrategy,
    ExecutionScheduler,
    FitnessEvaluator,
    MapperEngine,
    MappingCandidate,
    NMPConfig,
    RandomSearchStrategy,
)
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import rr_layer_mapping, rr_network_mapping


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


class TestMappingCandidate:
    def test_random_candidate_is_valid(self, graph, platform):
        rng = np.random.default_rng(0)
        candidate = MappingCandidate.random(graph, platform, rng)
        assert len(candidate) == len(graph.compute_nodes())
        for node, assignment in candidate.assignments.items():
            pe = platform.pe(assignment.pe)
            assert pe.supports_layer(graph.spec(node))
            assert pe.supports_precision(assignment.precision)

    def test_full_precision_only_candidates(self, graph, platform):
        rng = np.random.default_rng(0)
        candidate = MappingCandidate.random(graph, platform, rng, full_precision_only=True)
        for node, assignment in candidate.assignments.items():
            pe = platform.pe(assignment.pe)
            assert assignment.precision == pe.highest_supported_precision()

    def test_uniform_candidate(self, graph, platform):
        candidate = MappingCandidate.uniform(graph, "gpu", Precision.FP16)
        assert all(a.pe == "gpu" for a in candidate.assignments.values())
        assert candidate.pe_utilisation() == {"gpu": len(candidate)}

    def test_mutation_changes_at_most_n_layers(self, graph, platform):
        rng = np.random.default_rng(1)
        parent = MappingCandidate.random(graph, platform, rng)
        child = parent.mutate(graph, platform, rng, num_mutations=2)
        changed = sum(
            1 for node in parent.assignments if parent[node] != child[node]
        )
        assert changed <= 2
        # Parent unchanged (mutation returns a copy).
        assert parent.key() != child.key() or changed == 0

    def test_key_is_stable(self, graph, platform):
        rng = np.random.default_rng(2)
        candidate = MappingCandidate.random(graph, platform, rng)
        assert candidate.key() == candidate.copy().key()


class TestScheduler:
    def test_all_gpu_schedule_is_serial(self, graph, platform, table):
        mapping = MappingCandidate.uniform(graph, "gpu", Precision.FP32)
        result = ExecutionScheduler(platform, table).schedule(graph, mapping)
        busy = result.device_busy_time()
        assert set(busy) == {"gpu"}
        assert result.makespan == pytest.approx(busy["gpu"], rel=1e-6)

    def test_task_latencies_bounded_by_makespan(self, graph, platform, table):
        mapping = rr_layer_mapping(graph, platform)
        result = ExecutionScheduler(platform, table).schedule(graph, mapping)
        for latency in result.task_latencies.values():
            assert latency <= result.makespan + 1e-12

    def test_cross_device_mapping_adds_transfers(self, graph, platform, table):
        mapping = rr_layer_mapping(graph, platform)
        result = ExecutionScheduler(platform, table).schedule(graph, mapping)
        assert any(entry.kind == "transfer" for entry in result.timeline)

    def test_multi_pe_mapping_can_run_tasks_in_parallel(self, graph, platform, table):
        # Put one network on the GPU and the other on the CPU: the makespan
        # should be below the sum of the two serial latencies.
        assignments = {}
        for node in graph.compute_nodes():
            pe = "gpu" if graph.network_of(node) == "spikeflownet" else "cpu"
            assignments[node] = Assignment(pe, Precision.FP16)
        mapping = MappingCandidate(assignments)
        result = ExecutionScheduler(platform, table).schedule(graph, mapping)
        total_serial = sum(result.device_busy_time().values())
        assert result.makespan < total_serial


class TestFitnessAndSearch:
    def test_fitness_caches_repeated_candidates(self, graph, platform, table):
        evaluator = FitnessEvaluator(graph, platform, table)
        candidate = MappingCandidate.uniform(graph, "gpu", Precision.FP32)
        first = evaluator.evaluate(candidate)
        second = evaluator.evaluate(candidate.copy())
        assert first.fitness == second.fitness
        assert evaluator.cache_hits >= 1
        assert evaluator.evaluations == 1

    def test_fitness_feasible_without_accuracy_models(self, graph, platform, table):
        evaluator = FitnessEvaluator(graph, platform, table)
        breakdown = evaluator.evaluate(MappingCandidate.uniform(graph, "gpu", Precision.FP32))
        assert breakdown.feasible
        assert breakdown.fitness == pytest.approx(breakdown.max_task_latency)

    def test_nmp_improves_over_generations(self, graph, platform, table):
        config = NMPConfig(population_size=10, generations=6, seed=0)
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy()
        )
        assert result.convergence[-1] <= result.convergence[0]
        assert result.best_latency > 0
        assert len(result.history) == 6

    def test_nmp_with_seeds_never_worse_than_seed(self, graph, platform, table):
        seed_candidate = MappingCandidate.uniform(graph, "gpu", Precision.FP16)
        evaluator_reference = FitnessEvaluator(graph, platform, table)
        seed_fitness = evaluator_reference.evaluate(seed_candidate).fitness
        config = NMPConfig(population_size=8, generations=4, seed=0)
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy(), initial_candidates=[seed_candidate]
        )
        assert result.best_breakdown.fitness <= seed_fitness + 1e-12

    def test_nmp_beats_round_robin(self, graph, platform, table):
        config = NMPConfig(population_size=16, generations=10, seed=1)
        seeds = [rr_network_mapping(graph, platform), rr_layer_mapping(graph, platform)]
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy(), initial_candidates=seeds
        )
        scheduler = ExecutionScheduler(platform, table)
        rr_latency = scheduler.schedule(graph, rr_network_mapping(graph, platform)).max_task_latency
        assert result.best_latency <= rr_latency

    def test_full_precision_search_uses_only_highest_precision(self, graph, platform, table):
        config = NMPConfig(population_size=8, generations=3, full_precision_only=True, seed=0)
        result = MapperEngine(graph, platform, table, config).run(
            EvolutionaryStrategy()
        )
        for node, assignment in result.best_candidate.assignments.items():
            pe = platform.pe(assignment.pe)
            assert assignment.precision == pe.highest_supported_precision()

    def test_random_search_runs(self, graph, platform, table):
        config = NMPConfig(population_size=8, generations=4, seed=0)
        result = MapperEngine(graph, platform, table, config).run(
            RandomSearchStrategy()
        )
        assert result.best_latency > 0
        # Best-so-far curve is non-increasing by construction.
        assert all(b <= a + 1e-12 for a, b in zip(result.convergence, result.convergence[1:]))

    def test_invalid_nmp_config(self):
        with pytest.raises(ValueError):
            NMPConfig(population_size=1)
        with pytest.raises(ValueError):
            NMPConfig(generations=0)
