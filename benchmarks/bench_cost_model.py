"""Benchmark: flat vs per-layer-occupancy profile cost stacks.

Runs one mixed-density DSFA fleet — many streams sharing a single network
signature but fed from scenes spanning a wide event-density range, so DSFA
merges and cross-stream batches hit the cost stack at many distinct input
occupancies — under both production cost modes:

* ``flat`` — the pre-profile scalar path (``cost_mode="flat"``): measured
  input occupancy on the first layer, static modelled sparsity deeper.
* ``profile`` — per-layer occupancy propagation with per-layer bucketing
  (``cost_mode="profile"``): mixed-density inputs converge onto shared
  deep-layer cache cells within a few layers.

Each row records events/sec and the ``LayerCostTable`` cache hit-rate, so
the trajectory tracks the cost of propagation against the flat path.

A second **DAG-fleet tier** (:func:`test_cost_model_dag_fleet`) runs the
same comparison on a fleet spanning the skip-connection networks of the
zoo (Spike-FlowNet, Fusion-FlowNet, E2Depth, HALSIE), where skip
connections re-inject input-dependent occupancies deep into the decoders
and propagation does the most work.

The layered-vs-scalar-keyed hit-rate gates of both tiers are tier-1 tests
against the scalar-keyed oracle (``tests/runtime/test_cost_profile.py``).
Both tiers append their rows (tagged ``tier``) to the same
``BENCH_cost_model.json`` trajectory.

Environment knobs (used by the CI smoke job):

* ``COST_MODEL_STREAMS`` — mixed-density fleet size (default 32; CI smokes 12).
* ``COST_MODEL_DAG_STREAMS`` — DAG fleet size (default 16; CI smokes 8).
* ``COST_MODEL_REPEATS`` — timing repeats per stack (default 3).
"""

from __future__ import annotations

import os
import time

from bench_utils import write_bench_json
from repro.core import DSFAConfig, EvEdgeConfig, OptimizationLevel
from repro.events import generate_sequence
from repro.experiments import format_table
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import MultiStreamSimulator, StreamSource

NUM_STREAMS = int(os.environ.get("COST_MODEL_STREAMS", "32"))
NUM_DAG_STREAMS = int(os.environ.get("COST_MODEL_DAG_STREAMS", "16"))
REPEATS = int(os.environ.get("COST_MODEL_REPEATS", "3"))

# Skip-connection networks: graph propagation combines occupancies at the
# decoder joins, so their deep layers stay input-dependent.
_DAG_NETWORKS = ("spikeflownet", "fusionflownet", "e2depth", "halsie")

# Rows from every tier that ran in this session, written together so the
# committed trajectory holds the whole benchmark regardless of tier count.
_TIER_ROWS = []


def _publish_rows(rows):
    _TIER_ROWS.extend(rows)
    write_bench_json(
        "cost_model",
        list(_TIER_ROWS),
        meta={
            "streams": NUM_STREAMS,
            "dag_streams": NUM_DAG_STREAMS,
            "repeats": REPEATS,
        },
    )

# Scenes chosen to span the density spectrum: calibration bars are nearly
# empty, the drone scenes are bursty, the driving scenes moderately dense.
_SCENES = (
    "calibration_bars",
    "indoor_flying1",
    "outdoor_day1",
    "high_speed_disk",
    "town10",
    "indoor_flying2",
)


def _mixed_density_fleet(num_streams: int):
    """N DSFA streams on one network signature, densities all over the map."""
    network = build_network("spikeflownet", 64, 64)
    config = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=4),
    )
    sources = []
    for i in range(num_streams):
        sequence = generate_sequence(
            _SCENES[i % len(_SCENES)], scale=0.08, duration=0.25, seed=11 + i
        )
        sources.append(
            StreamSource(
                name=f"mix{i:03d}",
                sequence=sequence,
                network=network,
                config=config,
                start_offset=0.0004 * i,
            )
        )
    return sources


def _timed_run(platform, sources, repeats=REPEATS, **sim_kwargs):
    best = float("inf")
    report = None
    cache_info = None
    for _ in range(repeats):
        simulator = MultiStreamSimulator(platform, sources, **sim_kwargs)
        start = time.perf_counter()
        report = simulator.run()
        best = min(best, time.perf_counter() - start)
        cache_info = report.cache_info
    return report, cache_info, best


def _stack_rows(tier, platform, sources):
    """Time ``sources`` under both cost modes; print and check one row per mode."""
    for source in sources:
        source.generate_stack()  # warm the shared render and arrivals
    rows = []
    reports = {}
    for mode in ("flat", "profile"):
        report, cache, elapsed = _timed_run(platform, sources, cost_mode=mode)
        reports[mode] = report
        rows.append(
            {
                "tier": tier,
                "stack": mode,
                "events": report.events_processed,
                "ev_per_s": report.events_processed / elapsed,
                "inferences": report.total_inferences,
                "mean_latency_ms": report.mean_latency * 1e3,
                "table_entries": cache["entries"],
                "cache_hit_rate": cache["hit_rate"],
            }
        )
    print(
        format_table(
            rows,
            [
                "stack",
                "events",
                "ev_per_s",
                "inferences",
                "mean_latency_ms",
                "table_entries",
                "cache_hit_rate",
            ],
        )
    )
    flat, profile = rows
    print(
        f"{tier} cost stacks: profile/flat ev/s = "
        f"{profile['ev_per_s'] / flat['ev_per_s']:.2f}, "
        f"LayerCostTable hit-rate flat={flat['cache_hit_rate']:.3f} "
        f"profile={profile['cache_hit_rate']:.3f}"
    )
    # The fleet must actually mix densities and merge, or the comparison is
    # vacuous.
    assert reports["profile"].total_inferences > 0
    occupancies = {
        round(r.occupancy, 4)
        for stream in reports["profile"].reports.values()
        for r in stream.records
    }
    assert len(occupancies) > 4, f"{tier} fleet does not exercise mixed densities"
    # Identical traffic shape under both cost modes.
    assert reports["flat"].frames_generated == reports["profile"].frames_generated
    for row in rows:
        assert row["ev_per_s"] > 0
    return rows


def test_cost_model_stacks(benchmark):
    platform = jetson_xavier_agx()
    sources = _mixed_density_fleet(NUM_STREAMS)
    benchmark.pedantic(
        lambda: MultiStreamSimulator(platform, sources, cost_mode="profile").run(),
        iterations=1,
        rounds=1,
    )
    print(f"\n=== Cost stacks on a mixed-density DSFA fleet ({NUM_STREAMS} streams) ===")
    _publish_rows(_stack_rows("mixed-density", platform, sources))


def _dag_fleet(num_streams: int):
    """Streams spread across the zoo's skip-connection networks.

    Streams sharing a network signature still merge/batch; the tier's
    point is the cache behaviour when graph propagation is doing real
    join work, so every DAG network in the zoo contributes a slice of
    the fleet at mixed densities.
    """
    networks = {name: build_network(name, 64, 64) for name in _DAG_NETWORKS}
    config = EvEdgeConfig(
        num_bins=8,
        optimization=OptimizationLevel.E2SF_DSFA,
        dsfa=DSFAConfig(inference_queue_depth=4),
    )
    sources = []
    for i in range(num_streams):
        name = _DAG_NETWORKS[i % len(_DAG_NETWORKS)]
        sequence = generate_sequence(
            _SCENES[i % len(_SCENES)], scale=0.08, duration=0.25, seed=37 + i
        )
        sources.append(
            StreamSource(
                name=f"dag{i:03d}",
                sequence=sequence,
                network=networks[name],
                config=config,
                start_offset=0.0004 * i,
            )
        )
    return sources


def test_cost_model_dag_fleet(benchmark):
    platform = jetson_xavier_agx()
    sources = _dag_fleet(NUM_DAG_STREAMS)
    benchmark.pedantic(
        lambda: MultiStreamSimulator(platform, sources, cost_mode="profile").run(),
        iterations=1,
        rounds=1,
    )
    print(
        f"\n=== Cost stacks on a DAG fleet ({NUM_DAG_STREAMS} streams over "
        f"{len(_DAG_NETWORKS)} skip-connection networks) ==="
    )
    _publish_rows(_stack_rows("dag-fleet", platform, sources))
