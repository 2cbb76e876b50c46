#!/usr/bin/env python
"""Multi-task study: concurrent perception stack for autonomous navigation.

An autonomous platform typically runs several event-vision networks at once
(optical flow + segmentation + tracking + depth).  This example builds the
paper's mixed SNN-ANN configuration, maps it onto the Jetson Xavier AGX with
the Network Mapper and compares against the round-robin baselines, printing a
Gantt view of where each layer executes (paper Figure 9 style).

Run with:  python examples/multi_task_navigation.py
"""

from repro.core import EvolutionaryStrategy, MapperEngine, NMPConfig
from repro.hw import jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import (
    MappedExecutor,
    format_gantt,
    rr_layer_mapping,
    rr_network_mapping,
    utilisation,
)


def main() -> None:
    platform = jetson_xavier_agx()
    networks = ["fusionflownet", "halsie", "dotie", "e2depth"]
    graph = MultiTaskGraph([TaskSpec(build_network(name)) for name in networks])
    print(f"multi-task graph: {graph.task_names}, {len(graph.compute_nodes())} layers total")

    executor = MappedExecutor(graph, platform, occupancy=0.1)

    rr_net = executor.execute(
        rr_network_mapping(graph, platform, precision=Precision.FP16, devices=["gpu", "dla0"]),
        sparse=True,
    )
    rr_layer = executor.execute(
        rr_layer_mapping(graph, platform, precision=Precision.FP16, devices=["gpu", "dla0"]),
        sparse=True,
    )

    engine = MapperEngine(
        graph,
        platform,
        executor.profile,
        NMPConfig(population_size=24, generations=15, seed=0),
    )
    nmp_result = engine.run(
        EvolutionaryStrategy(), initial_candidates=[rr_layer.mapping, rr_net.mapping]
    )
    nmp = executor.execute(nmp_result.best_candidate, sparse=True)

    print()
    print(f"RR-Network latency: {rr_net.latency * 1e3:8.2f} ms")
    print(f"RR-Layer latency:   {rr_layer.latency * 1e3:8.2f} ms")
    print(f"Ev-Edge NMP latency:{nmp.latency * 1e3:8.2f} ms "
          f"({rr_net.latency / nmp.latency:.2f}x vs RR-Network, "
          f"{rr_layer.latency / nmp.latency:.2f}x vs RR-Layer)")
    print(f"NMP search: {nmp_result.evaluations} evaluations, "
          f"{nmp_result.cache_hits} cache hits, convergence "
          f"{[round(v * 1e3, 2) for v in nmp_result.convergence[:8]]} ... ms")

    print()
    print("per-task latencies under the NMP mapping:")
    for task, latency in nmp.task_latencies.items():
        print(f"  {task:16s} {latency * 1e3:8.2f} ms")

    print()
    print("device utilisation under the NMP mapping:")
    for device, fraction in utilisation(nmp.schedule).items():
        print(f"  {device:16s} {fraction:6.1%}")

    print()
    print("execution timeline (first rows per device):")
    print(format_gantt(nmp.schedule, width=48, max_rows=6))


if __name__ == "__main__":
    main()
