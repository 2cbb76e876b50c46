"""Benchmark: throughput of the NMP list scheduler.

Schedules/sec of the flattened list scheduler
(``ExecutionScheduler.schedule_metrics``, the fitness hot path) on the
Figure-10 ``mixed_snn_ann`` workload, timed directly on the scheduler.
Bit-identity to the graph-walking reference scheduler is pinned by the
tier-1 tests, not here.  The evolutionary-vs-random comparison lives in
``bench_fig10_convergence.py``.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import write_bench_json
from repro.core import ExecutionScheduler, MappingCandidate
from repro.experiments.fig9_multi_task import MULTI_TASK_CONFIGS
from repro.hw import LayerCostTable, jetson_xavier_agx
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
    rng = np.random.default_rng(0)
    candidates = [MappingCandidate.random(graph, platform, rng) for _ in range(150)]

    scheduler = ExecutionScheduler(platform, LayerCostTable())
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
