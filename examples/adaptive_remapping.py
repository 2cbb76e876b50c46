#!/usr/bin/env python
"""Online traffic-adaptive remapping: latency recovery after a traffic-mix change.

A depth-estimation stream (E2Depth) owns the platform alone; midway through,
an optical-flow stream (EV-FlowNet) joins and both contend for the same PEs.
Two operating points are compared:

* static    — both streams keep the default all-GPU deployment; the join
              doubles the GPU's load and the resident stream's latency spikes.
* adaptive  — a :class:`~repro.runtime.streams.RemapPolicy` re-runs a
              budgeted NMP search at every join/leave; the search spreads the
              two networks across GPU/DLA/CPU and the resident stream's
              latency recovers.

Run with:  python examples/adaptive_remapping.py
"""

import numpy as np

from repro.core import EvEdgeConfig, NMPConfig, OptimizationLevel
from repro.events import generate_sequence
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.runtime import MultiStreamSimulator, RemapPolicy, StreamSource


def phase_latencies(report, stream, split_time):
    """Mean inference latency of ``stream`` before/after ``split_time`` (ms)."""
    records = report.reports[stream].records
    before = [r.latency for r in records if r.dispatch_time < split_time]
    after = [r.latency for r in records if r.dispatch_time >= split_time]
    mean = lambda xs: float(np.mean(xs)) * 1e3 if xs else float("nan")
    return mean(before), mean(after)


def main() -> None:
    platform = jetson_xavier_agx()
    config = EvEdgeConfig(num_bins=8, optimization=OptimizationLevel.FULL)
    resident_seq = generate_sequence("town10", scale=0.2, duration=1.2, seed=0)
    joining_seq = generate_sequence("indoor_flying1", scale=0.2, duration=0.6, seed=1)
    join_time = 0.5

    def sources():
        return [
            StreamSource(
                "resident:e2depth",
                resident_seq,
                build_network("e2depth", 128, 128),
                config,
            ),
            StreamSource(
                "joiner:evflownet",
                joining_seq,
                build_network("evflownet", 128, 128),
                config,
                start_offset=join_time,
            ),
        ]

    policy = RemapPolicy(
        nmp_config=NMPConfig(population_size=12, generations=8, seed=0)
    )
    static = MultiStreamSimulator(platform, sources()).run()
    adaptive = MultiStreamSimulator(platform, sources(), remap_policy=policy).run()

    print(f"platform: {platform.name}   join at t={join_time * 1e3:.0f} ms")
    print()
    print("remap log (adaptive):")
    for record in adaptive.remaps:
        print(
            f"  t={record.time * 1e3:7.1f} ms  {record.reason:5s} "
            f"active={','.join(record.active_streams):40s} "
            f"search best={record.best_latency * 1e3:.2f} ms "
            f"({record.evaluations} evaluations, {record.strategy})"
        )
    print()
    print("resident-stream latency (ms):    solo     contended")
    for label, report in (("static", static), ("adaptive", adaptive)):
        before, after = phase_latencies(report, "resident:e2depth", join_time)
        print(f"  {label:9s}                  {before:7.3f}   {after:9.3f}")
    print()
    static_after = phase_latencies(static, "resident:e2depth", join_time)[1]
    adaptive_after = phase_latencies(adaptive, "resident:e2depth", join_time)[1]
    print(
        f"latency recovery under contention: {static_after / adaptive_after:.2f}x "
        f"({static_after:.3f} ms -> {adaptive_after:.3f} ms)"
    )
    print(
        f"total energy: static {static.total_energy:.3f} J, "
        f"adaptive {adaptive.total_energy:.3f} J"
    )


if __name__ == "__main__":
    main()
