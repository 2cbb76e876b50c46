"""Ablation benches for the design choices of E2SF, DSFA and NMP.

* E2SF bin count ``nB`` — temporal resolution vs. per-bin occupancy;
* DSFA merge-bucket size ``MBsize`` — number of inferences vs. latency;
* DSFA merge modes (cAdd / cAverage / cBatch);
* NMP population size — search quality for a fixed generation budget.
"""

import pytest

from repro.core import (
    DSFAConfig,
    DynamicSparseFrameAggregator,
    EvEdgeConfig,
    EvEdgePipeline,
    Event2SparseFrameConverter,
    EvolutionaryStrategy,
    MapperEngine,
    MergeMode,
    NMPConfig,
    OptimizationLevel,
)
from repro.events import generate_sequence
from repro.experiments import ExperimentSettings
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, TaskSpec


def test_ablation_e2sf_bin_count(benchmark, settings):
    """More bins -> finer temporal resolution -> sparser individual frames."""
    sequence = generate_sequence(
        "indoor_flying1", scale=settings.scale, duration=settings.duration, seed=settings.seed
    )
    t0, t1 = sequence.frames[0].timestamp, sequence.frames[1].timestamp

    def sweep():
        occupancies = {}
        for bins in (1, 5, 10, 20):
            converter = Event2SparseFrameConverter(bins)
            frames = converter.convert(sequence.events, t0, t1)
            occupancies[bins] = converter.mean_occupancy(frames)
        return occupancies

    occupancies = benchmark(sweep)
    print("\n=== Ablation: E2SF bin count vs mean frame occupancy ===")
    for bins, occ in occupancies.items():
        print(f"  nB={bins:3d}  occupancy={occ:.4%}")
    assert occupancies[20] <= occupancies[5] <= occupancies[1]


def test_ablation_dsfa_bucket_size(benchmark, settings):
    """Larger merge buckets consolidate more frames into fewer inferences."""
    network = build_network("adaptive_spikenet", *settings.network_resolution)
    platform = jetson_xavier_agx()
    sequence = generate_sequence(
        "indoor_flying2", scale=settings.scale, duration=settings.duration, seed=settings.seed
    )

    def sweep():
        results = {}
        for bucket in (1, 2, 4, 8):
            config = EvEdgeConfig(
                num_bins=settings.num_bins,
                dsfa=DSFAConfig(event_buffer_size=8, merge_bucket_size=bucket),
                optimization=OptimizationLevel.E2SF_DSFA,
            )
            report = EvEdgePipeline(network, platform, config).run(sequence)
            results[bucket] = (report.num_inferences, report.mean_latency)
        return results

    results = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\n=== Ablation: DSFA merge bucket size (MBsize) ===")
    for bucket, (inferences, latency) in results.items():
        print(f"  MBsize={bucket}  inferences={inferences}  mean latency={latency * 1e3:.2f} ms")
    # Every configuration processes the sequence; the bucket size trades the
    # number of inferences against per-inference latency.
    for inferences, latency in results.values():
        assert inferences > 0
        assert latency > 0


def test_ablation_dsfa_merge_modes(benchmark, settings):
    """cAdd and cAverage compact the buffer; cBatch preserves every frame."""
    sequence = generate_sequence(
        "high_speed_disk", scale=settings.scale, duration=min(settings.duration, 0.5), seed=settings.seed
    )
    converter = Event2SparseFrameConverter(settings.num_bins)
    t0, t1 = sequence.frames[0].timestamp, sequence.frames[-1].timestamp
    stack = converter.convert_stack(sequence.events, [t0, t1])

    def sweep():
        out = {}
        for mode in MergeMode:
            aggregator = DynamicSparseFrameAggregator(
                DSFAConfig(event_buffer_size=8, merge_bucket_size=4, merge_mode=mode)
            )
            for i in range(len(stack)):
                aggregator.push_index(stack, i)
            batch = aggregator.flush()
            out[mode.value] = len(batch) if batch is not None else 0
        return out

    sizes = benchmark(sweep)
    print("\n=== Ablation: DSFA merge modes ===")
    for mode, size in sizes.items():
        print(f"  {mode}: dispatched batch of {size} merged frames")
    assert sizes["cBatch"] >= sizes["cAdd"]


def test_ablation_nmp_population_size(benchmark, settings):
    """Bigger populations find better mappings for a fixed generation count."""
    graph = MultiTaskGraph(
        [TaskSpec(build_network(n, *settings.network_resolution)) for n in ("dotie", "halsie")]
    )
    platform = jetson_xavier_agx()
    table = LayerCostTable()

    def sweep():
        latencies = {}
        for population in (4, 16, 32):
            result = MapperEngine(
                graph,
                platform,
                table,
                NMPConfig(population_size=population, generations=8, seed=settings.seed),
            ).run(EvolutionaryStrategy())
            latencies[population] = result.best_latency
        return latencies

    latencies = benchmark.pedantic(sweep, iterations=1, rounds=1)
    print("\n=== Ablation: NMP population size ===")
    for population, latency in latencies.items():
        print(f"  population={population:3d}  best latency={latency * 1e3:.2f} ms")
    assert latencies[32] <= latencies[4] * 1.2
