"""Benchmark: fleet-scale kernel hot path — events-processed/sec vs fleet size.

Runs steady and churn fleets (compiled through the scenario registry) at
64/256/1024 streams on the production runtime — O(1) event routing, indexed
``SignatureServer`` pending queues, coalesced wake-ups, arrivals merged
once from per-stream columns, same-time dispatches and evictions delivered
inline — and records events-processed/sec per tier.  Every source's render
(one shared stack per sequence, plus the source's arrivals) is warmed before
timing, so the rows measure the runtime, not E2SF.

The sharded tiers (``test_kernel_scaling_sharded``) push past the single
process: 4096- and 10240-stream steady fleets partitioned by signature
across worker-process shards (see :mod:`repro.runtime.shard`), with a
single-process baseline at the smallest sharded tier.  On a >=4-core
runner the 4-shard aggregate events/sec must be >= 2x the single-process
kernel at equal stream count; on smaller machines the ratio is reported
but not asserted — worker processes cannot conjure cores.

The memory-attribution tier (``test_kernel_memory_attribution``) records
tracemalloc peak allocations and the kernel heap's high-water mark at each
tier (``record_limit=0``, so queued events dominate) and gates the heap
bound of the arrival columns: the heap holds at most four events per
stream, and doubling the horizon leaves it flat.  Its rows land in the same
``BENCH_kernel_scaling.json`` trajectory under ``section="memory"``.

Environment knobs (used by the CI smoke job):

* ``KERNEL_SCALING_TIERS`` — comma-separated fleet sizes (default
  ``64,256,1024``).  CI runs the smallest tier only.
* ``KERNEL_SCALING_REPEATS`` — timing repeats per cell (default 3).
* ``KERNEL_SCALING_SHARD_TIERS`` — comma-separated sharded fleet sizes
  (default ``4096,10240``; empty skips the sharded benchmark).
* ``KERNEL_SCALING_SHARDS`` — worker shard count (default 4).
* ``KERNEL_MEMORY_TIERS`` — comma-separated fleet sizes of the
  memory-attribution tier (default ``1024,4096``; empty skips it).
"""

from __future__ import annotations

import dataclasses
import os
import time
import tracemalloc

import pytest

from bench_utils import write_bench_json
from repro.core import DSFAConfig
from repro.experiments import format_table
from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.scenarios.registry import default_registry
from repro.scenarios.spec import ScenarioSpec


def _tiers(env_var: str, default: str):
    return tuple(
        int(tier)
        for tier in os.environ.get(env_var, default).split(",")
        if tier.strip()
    )


TIERS = _tiers("KERNEL_SCALING_TIERS", "64,256,1024")
REPEATS = int(os.environ.get("KERNEL_SCALING_REPEATS", "3"))
SHARD_TIERS = _tiers("KERNEL_SCALING_SHARD_TIERS", "4096,10240")
SHARDS = int(os.environ.get("KERNEL_SCALING_SHARDS", "4"))
MEMORY_TIERS = _tiers("KERNEL_MEMORY_TIERS", "1024,4096")
# A loose heap budget per stream.  The heap holds only in-flight executions
# and server wake-ups (arrivals and every event scheduled before the run
# wait in the merged column, and same-time dispatches and evictions are
# processed in place), a few entries per signature server at any fleet size.
MEMORY_HEAP_FACTOR = 4
# Horizon-independence slack: doubling the horizon may jiggle the
# high-water by a few in-flight events, never track the doubled frame count.
MEMORY_HORIZON_SLACK = 1.25
FAMILIES = ("steady", "churn")
QUEUE_DEPTH = 16
SHARD_SPEEDUP_GATE = 2.0


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def _fleet(family: str, num_streams: int, duration: float = 0.2):
    """Compile one benchmark fleet through the scenario registry.

    The no-DSFA (``e2sf``) level sends every frame through the
    dispatch/backlog path — the kernel-bound regime this benchmark stresses
    — and a deeper inference queue keeps the pending queues populated.
    """
    spec = ScenarioSpec(
        name=f"kernel-scaling-{family}-{num_streams}-{duration}",
        family=family,
        num_streams=num_streams,
        duration=duration,
        scale=0.06,
        seed=7,
        params={"optimization": "e2sf"},
    )
    sources = default_registry().compile(spec)
    return [
        dataclasses.replace(
            source,
            config=dataclasses.replace(
                source.config, dsfa=DSFAConfig(inference_queue_depth=QUEUE_DEPTH)
            ),
        )
        for source in sources
    ]


def _timed_run(platform, sources, repeats=REPEATS, **sim_kwargs):
    """Best-of-``repeats`` wall-clock of one fleet simulation."""
    best = float("inf")
    report = None
    for _ in range(repeats):
        simulator = MultiStreamSimulator(platform, sources, **sim_kwargs)
        start = time.perf_counter()
        report = simulator.run()
        best = min(best, time.perf_counter() - start)
    return report, best


def test_kernel_scaling(benchmark):
    platform = jetson_xavier_agx()
    rows = []
    for family in FAMILIES:
        for num_streams in TIERS:
            sources = _fleet(family, num_streams)
            for source in sources:
                source.generate_stack()  # warm the shared render and arrivals
            if family == FAMILIES[0] and TIERS and num_streams == max(TIERS):
                benchmark.pedantic(
                    lambda: MultiStreamSimulator(platform, sources).run(),
                    iterations=1,
                    rounds=1,
                )
            # Every row's events/sec is measured the same way (best of
            # REPEATS, simulator construction outside the timed region).
            report, elapsed = _timed_run(platform, sources)
            rows.append(
                {
                    "family": family,
                    "streams": num_streams,
                    "events": report.events_processed,
                    "ev_per_s": report.events_processed / elapsed,
                    "dropped": report.frames_dropped,
                }
            )

    print("\n=== Fleet-scale kernel hot path: events-processed/sec ===")
    print(format_table(rows, ["family", "streams", "events", "dropped", "ev_per_s"]))

    # Every tier must simulate real traffic.
    for row in rows:
        assert row["events"] > 0
        assert row["ev_per_s"] > 0
    write_bench_json(
        "kernel_scaling",
        rows,
        meta={"tiers": list(TIERS), "repeats": REPEATS, "families": list(FAMILIES)},
        section="scaling",
    )


def test_kernel_scaling_sharded(benchmark):
    """Sharded fleet tiers: aggregate events/sec past the single process.

    The smallest sharded tier also runs single-process to measure the
    shard speedup; larger tiers run sharded only (a 10k-stream
    single-process run is exactly what the shards exist to avoid timing).
    """
    if not SHARD_TIERS:
        pytest.skip("KERNEL_SCALING_SHARD_TIERS is empty")
    platform = jetson_xavier_agx()
    cores = _available_cores()

    rows = []
    for num_streams in SHARD_TIERS:
        sources = _fleet("steady", num_streams)
        for source in sources:
            source.generate_stack()  # warm the renders before the workers fork
        if num_streams == max(SHARD_TIERS):
            benchmark.pedantic(
                lambda: MultiStreamSimulator(
                    platform, sources, shards=SHARDS
                ).run(),
                iterations=1,
                rounds=1,
            )
        sharded_report, t_sharded = _timed_run(platform, sources, shards=SHARDS)
        assert sharded_report.shards > 1
        assert sharded_report.total_inferences > 0
        row = {
            "family": "steady",
            "streams": num_streams,
            "shards": sharded_report.shards,
            "events": sharded_report.events_processed,
            "sharded_ev_per_s": sharded_report.events_processed / t_sharded,
            "dropped": sharded_report.frames_dropped,
        }
        if num_streams == min(SHARD_TIERS):
            single_report, t_single = _timed_run(platform, sources)
            row["single_ev_per_s"] = single_report.events_processed / t_single
            # Equal frames in, equal work out: sharding repartitions the
            # fleet, it must not change how much traffic gets simulated.
            assert sharded_report.frames_generated == single_report.frames_generated
            row["shard_speedup"] = (
                row["sharded_ev_per_s"] / row["single_ev_per_s"]
            )
        rows.append(row)

    print(f"\n=== Sharded kernel: {SHARDS}-shard aggregate events/sec ===")
    print(
        format_table(
            rows,
            [
                "family",
                "streams",
                "shards",
                "events",
                "dropped",
                "sharded_ev_per_s",
                "single_ev_per_s",
                "shard_speedup",
            ],
        )
    )
    print(f"cores={cores} (speedup gate applies at >= {SHARDS} cores)")

    for row in rows:
        assert row["events"] > 0
        assert row["sharded_ev_per_s"] > 0
    # Acceptance gate: on a machine with enough cores to actually run the
    # shards, aggregate events/sec must be >= 2x the single process at
    # equal stream count.
    gated = [row for row in rows if "shard_speedup" in row]
    if cores >= SHARDS:
        for row in gated:
            assert row["shard_speedup"] >= SHARD_SPEEDUP_GATE, (
                f"steady@{row['streams']}: {row['shard_speedup']:.2f}x "
                f"< {SHARD_SPEEDUP_GATE}x with {SHARDS} shards on {cores} cores"
            )
    write_bench_json(
        "kernel_scaling_sharded",
        rows,
        meta={
            "shard_tiers": list(SHARD_TIERS),
            "shards": SHARDS,
            "repeats": REPEATS,
            "cores": cores,
            "speedup_gate": SHARD_SPEEDUP_GATE,
            "gate_enforced": cores >= SHARDS,
        },
    )


def _traced_run(platform, sources, **sim_kwargs):
    """One warmed, tracemalloc-attributed fleet run.

    The warmup run renders every sequence's shared stack (flat buffers and
    density columns included) and every source's arrival list, so the
    measured run's peak attributes the *runtime* — queued events, heap,
    pending queues — not the one-time render.
    """
    MultiStreamSimulator(platform, sources, **sim_kwargs).run()
    tracemalloc.start()
    try:
        report = MultiStreamSimulator(platform, sources, **sim_kwargs).run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return report, peak


def test_kernel_memory_attribution():
    """Memory attribution of the arrival columns.

    Gates: every tier's heap high-water stays O(active streams) — at most
    ``MEMORY_HEAP_FACTOR`` events per stream — and doubling the horizon at
    the smallest tier leaves it flat.
    """
    if not MEMORY_TIERS:
        pytest.skip("KERNEL_MEMORY_TIERS is empty")
    platform = jetson_xavier_agx()
    sim_kwargs = dict(record_limit=0)
    base_duration = 0.2

    rows = []
    for num_streams in MEMORY_TIERS:
        sources = _fleet("steady", num_streams, duration=base_duration)
        report, peak = _traced_run(platform, sources, **sim_kwargs)
        rows.append(
            {
                "family": "steady",
                "streams": num_streams,
                "horizon_s": base_duration,
                "events": report.events_processed,
                "frames": report.frames_generated,
                "tracemalloc_peak_bytes": peak,
                "heap_high_water": report.heap_high_water,
            }
        )
    # Horizon-independence probe: double the horizon at the smallest tier
    # (heap high-water only — no warmup/tracemalloc pass needed).
    horizon_streams = min(MEMORY_TIERS)
    long_duration = base_duration * 2
    sources = _fleet("steady", horizon_streams, duration=long_duration)
    report = MultiStreamSimulator(platform, sources, **sim_kwargs).run()
    rows.append(
        {
            "family": "steady",
            "streams": horizon_streams,
            "horizon_s": long_duration,
            "events": report.events_processed,
            "frames": report.frames_generated,
            "tracemalloc_peak_bytes": None,
            "heap_high_water": report.heap_high_water,
        }
    )

    columns = [
        "family",
        "streams",
        "horizon_s",
        "events",
        "frames",
        "tracemalloc_peak_bytes",
        "heap_high_water",
    ]
    print("\n=== Memory attribution: arrival columns ===")
    print(format_table(rows, columns))
    marks = {(row["streams"], row["horizon_s"]): row for row in rows}
    top = marks[max(MEMORY_TIERS), base_duration]
    print(
        f"{top['streams']}-stream tracemalloc peak: {top['tracemalloc_peak_bytes']} B, "
        f"heap high-water {top['heap_high_water']}"
    )

    # Gate 1: heap high-water is O(active streams) at every tier, far
    # below the fleet's frame count.
    for num_streams in MEMORY_TIERS:
        row = marks[num_streams, base_duration]
        assert row["heap_high_water"] <= MEMORY_HEAP_FACTOR * num_streams, (
            f"heap high-water {row['heap_high_water']} exceeds "
            f"{MEMORY_HEAP_FACTOR}x{num_streams} streams"
        )
        assert row["heap_high_water"] < row["frames"]
    # Gate 2: doubling the horizon leaves the high-water flat.
    base_mark = marks[horizon_streams, base_duration]["heap_high_water"]
    doubled_mark = marks[horizon_streams, long_duration]["heap_high_water"]
    assert doubled_mark <= base_mark * MEMORY_HORIZON_SLACK, (
        f"heap high-water grew with the horizon: {base_mark} -> {doubled_mark}"
    )
    write_bench_json(
        "kernel_scaling",
        rows,
        meta={
            "tiers": list(MEMORY_TIERS),
            "heap_factor": MEMORY_HEAP_FACTOR,
            "horizon_slack": MEMORY_HORIZON_SLACK,
            "record_limit": 0,
        },
        section="memory",
    )
