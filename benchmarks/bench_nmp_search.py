"""Benchmark: NMP search engine — scheduler throughput and strategy race.

Two measurements on the Figure-10 ``mixed_snn_ann`` workload:

1. **Schedules/sec** of the flattened list scheduler
   (``ExecutionScheduler.schedule_metrics``, the fitness hot path), timed
   directly on the scheduler.  Bit-identity to the graph-walking reference
   scheduler is pinned by the tier-1 tests, not here.
2. **Time-to-target-fitness** per strategy: how many requested evaluations
   each search strategy spends before first reaching within 5% of the best
   fitness any strategy finds under the shared budget.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import write_bench_json
from repro.core import ExecutionScheduler, MappingCandidate, NMPConfig
from repro.experiments import run_fig10
from repro.experiments.fig9_multi_task import MULTI_TASK_CONFIGS
from repro.hw import PlatformProfiler, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, TaskSpec


def _mixed_graph(settings):
    return MultiTaskGraph(
        [
            TaskSpec(build_network(name, *settings.network_resolution))
            for name in MULTI_TASK_CONFIGS["mixed_snn_ann"]
        ]
    )


def test_nmp_flattened_scheduler_throughput(settings):
    """Schedules/sec of the flattened scheduler's metrics-only fast path."""
    platform = jetson_xavier_agx()
    graph = _mixed_graph(settings)
    profile = PlatformProfiler(platform).profile(graph)
    rng = np.random.default_rng(0)
    candidates = [MappingCandidate.random(graph, platform, rng) for _ in range(150)]

    scheduler = ExecutionScheduler(platform, profile, sparse=True)
    # Warm up: the flat path builds its arrays once per graph.
    scheduler.schedule_metrics(graph, candidates[0])
    start = time.perf_counter()
    for candidate in candidates[1:]:
        scheduler.schedule_metrics(graph, candidate)
    flat_rate = (len(candidates) - 1) / (time.perf_counter() - start)

    print("\n=== NMP search: schedules/sec (fig10 mixed_snn_ann) ===")
    print(f"flattened scheduler: {flat_rate:10.0f} sched/s")
    write_bench_json(
        "nmp_scheduler",
        [{"flat_eval_per_s": flat_rate}],
        meta={"candidates": len(candidates) - 1},
    )


def test_nmp_strategy_time_to_target(settings, benchmark):
    """Race the four strategies to within 5% of the best fitness found."""
    config = NMPConfig(population_size=20, generations=15, seed=settings.seed)
    result = benchmark.pedantic(
        run_fig10, args=(settings,), kwargs={"nmp_config": config}, iterations=1, rounds=1
    )
    strategies = result["strategies"]
    target = 1.05 * min(stats["fitness"] for stats in strategies.values())

    print("\n=== NMP search: time-to-target-fitness (5% of best) ===")
    print(f"{'strategy':14s} {'best_ms':>9s} {'evals':>7s} {'to-target':>10s}")
    strategy_rows = []
    for name, stats in strategies.items():
        convergence = stats["convergence"]
        per_generation = stats["requested_evaluations"] / max(len(convergence), 1)
        to_target = next(
            (
                int((i + 1) * per_generation)
                for i, fitness in enumerate(convergence)
                if fitness <= target
            ),
            None,
        )
        print(
            f"{name:14s} {stats['latency_ms']:9.3f} {stats['requested_evaluations']:7d} "
            f"{to_target if to_target is not None else '-':>10}"
        )
        strategy_rows.append(
            {
                "strategy": name,
                "best_latency_ms": stats["latency_ms"],
                "requested_evaluations": stats["requested_evaluations"],
                "evals_to_target": to_target,
            }
        )
    write_bench_json(
        "nmp_strategy_race",
        strategy_rows,
        meta={"evaluation_budget": result["evaluation_budget"]},
    )

    # Every strategy spends (at most) the shared budget.
    budget = result["evaluation_budget"]
    for stats in strategies.values():
        assert stats["requested_evaluations"] <= budget
    # The evolutionary strategy beats random search under the equal budget.
    assert result["evolutionary_vs_random_speedup"] >= 1.0
    # The refactored evolutionary search still converges (Figure 10a shape).
    convergence = result["evolutionary_convergence"]
    assert all(b <= a + 1e-12 for a, b in zip(convergence, convergence[1:]))
    assert convergence[-1] < convergence[0]
