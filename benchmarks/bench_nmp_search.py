"""Benchmark: throughput of the NMP list scheduler and of a whole search.

On the Figure-10 ``mixed_snn_ann`` workload:

* schedules/sec of the flattened list scheduler
  (``ExecutionScheduler.schedule_metrics``), timed directly on the
  scheduler;
* requested evaluations/sec of one warm-started evolutionary search
  (``MapperEngine.run(EvolutionaryStrategy())``), which adds candidate
  generation, the fitness cache and the ranking to the scheduler: the
  scheduler is under a fifth of a search's time;
* bounded draws/sec of the search's ``DrawStream`` and of numpy's
  ``Generator.integers`` over one bound sequence (50,000 draws cycling
  through bounds 1-12, the PE and precision counts the mapper draws over),
  which must draw the same values.

Bit-identity to the graph-walking reference scheduler is pinned by the
tier-1 tests, not here.  The evolutionary-vs-random comparison lives in
``bench_fig10_convergence.py``.
"""

from __future__ import annotations

import time

import numpy as np

from bench_utils import write_bench_json
from repro.core import (
    EvolutionaryStrategy,
    ExecutionScheduler,
    MapperEngine,
    MappingCandidate,
)
from repro.core.nmp.candidate import DrawStream
from repro.experiments.fig9_multi_task import MULTI_TASK_CONFIGS
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import rr_layer_mapping


def _mixed_graph(settings):
    return MultiTaskGraph(
        [
            TaskSpec(build_network(name, *settings.network_resolution))
            for name in MULTI_TASK_CONFIGS["mixed_snn_ann"]
        ]
    )


def _draw_rate(integers, bounds):
    """Draws/sec of ``integers`` over ``bounds``, and the values drawn."""
    start = time.perf_counter()
    values = [int(integers(n)) for n in bounds]
    return len(bounds) / (time.perf_counter() - start), values


def test_nmp_scheduler_and_search_throughput(settings):
    """Schedules/sec of the scheduler, evaluations/sec of a search, draws/sec."""
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

    # The engine flattens its graph when it is built, so the run times the
    # search alone, warm-started as an online remap is.
    engine = MapperEngine(graph, platform, LayerCostTable())
    seeds = [
        MappingCandidate.uniform(graph, "gpu", Precision.FP16),
        rr_layer_mapping(graph, platform),
    ]
    start = time.perf_counter()
    result = engine.run(EvolutionaryStrategy(), initial_candidates=seeds)
    search_rate = result.requested_evaluations / (time.perf_counter() - start)

    bounds = [1 + i % 12 for i in range(50_000)]
    stream_rate, stream_values = _draw_rate(DrawStream(0).integers, bounds)
    generator_rate, generator_values = _draw_rate(
        np.random.default_rng(0).integers, bounds
    )
    assert stream_values == generator_values

    print("\n=== NMP search: schedules/sec (fig10 mixed_snn_ann) ===")
    print(f"flattened scheduler: {flat_rate:10.0f} sched/s")
    print(
        f"mapper search:       {search_rate:10.0f} eval/s "
        f"({result.requested_evaluations} requested, {result.evaluations} scheduled)"
    )
    print(
        f"mapper draws:        {stream_rate:10.0f} draws/s from the stream, "
        f"{generator_rate:.0f} from Generator.integers ({len(bounds)} draws)"
    )
    write_bench_json(
        "nmp_scheduler",
        [
            {
                "flat_eval_per_s": flat_rate,
                "search_eval_per_s": search_rate,
                "stream_draws_per_s": stream_rate,
                "generator_draws_per_s": generator_rate,
            }
        ],
        meta={
            "candidates": len(candidates) - 1,
            "search_requested": result.requested_evaluations,
            "search_scheduled": result.evaluations,
            "draws": len(bounds),
        },
    )
