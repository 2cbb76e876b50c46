#!/usr/bin/env python
"""Quickstart: convert events with E2SF, merge with DSFA, run the pipeline.

Generates a small MVSEC-like drone sequence, converts the raw event stream to
sparse frames, aggregates them dynamically and compares the all-GPU dense
baseline against the Ev-Edge pipeline on the Jetson Xavier AGX model.

Run with:  python examples/quickstart.py
"""

from repro.core import (
    DSFAConfig,
    DynamicSparseFrameAggregator,
    EvEdgeConfig,
    EvEdgePipeline,
    Event2SparseFrameConverter,
    OptimizationLevel,
)
from repro.events import generate_sequence
from repro.frames import FrameStack
from repro.hw import jetson_xavier_agx
from repro.models import build_network


def main() -> None:
    # 1. A synthetic stand-in for the MVSEC indoor_flying1 recording.
    sequence = generate_sequence("indoor_flying1", scale=0.25, duration=1.0, seed=0)
    print(f"sequence: {sequence.name}  events: {len(sequence.events)}  "
          f"grayscale frames: {len(sequence.frames)}")

    # 2. E2SF: raw events -> per-bin two-channel sparse frames.
    converter = Event2SparseFrameConverter(num_bins=5)
    t0, t1 = sequence.frames[0].timestamp, sequence.frames[1].timestamp
    frames, report = converter.convert_with_report(sequence.events, t0, t1)
    print(f"E2SF: {report.num_events} events -> {len(frames)} sparse frames, "
          f"mean occupancy {converter.mean_occupancy(frames):.3%}, "
          f"{report.operation_saving:.1f}x fewer conversion operations than the dense path")

    # 3. DSFA: merge sparse frames while respecting time/density thresholds.
    #    Frames travel as (stack, index) references into one FrameStack.
    stack = FrameStack.from_frames(frames)
    aggregator = DynamicSparseFrameAggregator(DSFAConfig(event_buffer_size=4, merge_bucket_size=2))
    for i in range(len(stack)):
        aggregator.push_index(stack, i)
    batch = aggregator.flush()
    print(f"DSFA: merged {len(frames)} frames into a batch of {len(batch)} "
          f"({aggregator.merge_statistics()})")

    # 4. Full pipeline on the Jetson Xavier AGX model: baseline vs Ev-Edge.
    platform = jetson_xavier_agx()
    network = build_network("spikeflownet")
    baseline = EvEdgePipeline(
        network, platform, EvEdgeConfig(optimization=OptimizationLevel.BASELINE)
    ).run(sequence)
    ev_edge = EvEdgePipeline(
        network, platform, EvEdgeConfig(optimization=OptimizationLevel.E2SF_DSFA)
    ).run(sequence)
    print(f"all-GPU dense baseline: {baseline.mean_latency * 1e3:.2f} ms / inference, "
          f"{baseline.total_energy:.2f} J")
    print(f"Ev-Edge (E2SF + DSFA):  {ev_edge.mean_latency * 1e3:.2f} ms / inference, "
          f"{ev_edge.total_energy:.2f} J")
    print(f"speedup: {baseline.mean_latency / ev_edge.mean_latency:.2f}x, "
          f"energy gain: {baseline.total_energy / ev_edge.total_energy:.2f}x")


if __name__ == "__main__":
    main()
