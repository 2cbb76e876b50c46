#!/usr/bin/env python
"""Multi-task study: concurrent perception stack for autonomous navigation.

An autonomous platform typically runs several event-vision networks at once
(optical flow + segmentation + tracking + depth).  This example builds the
paper's mixed SNN-ANN configuration, maps it onto the Jetson Xavier AGX with
the Network Mapper and compares against the round-robin baselines, printing a
Gantt view of where each layer executes (paper Figure 9 style).

Run with:  python examples/multi_task_navigation.py
"""

from repro.core import EvolutionaryStrategy, ExecutionScheduler, MapperEngine, NMPConfig
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec
from repro.runtime import (
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

    table = LayerCostTable()
    scheduler = ExecutionScheduler(platform, table)

    rr_net_candidate = rr_network_mapping(
        graph, platform, precision=Precision.FP16, devices=["gpu", "dla0"]
    )
    rr_layer_candidate = rr_layer_mapping(
        graph, platform, precision=Precision.FP16, devices=["gpu", "dla0"]
    )
    rr_net = scheduler.schedule(graph, rr_net_candidate)
    rr_layer = scheduler.schedule(graph, rr_layer_candidate)

    engine = MapperEngine(
        graph,
        platform,
        table,
        NMPConfig(population_size=24, generations=15, seed=0),
    )
    nmp_result = engine.run(
        EvolutionaryStrategy(), initial_candidates=[rr_layer_candidate, rr_net_candidate]
    )
    nmp = scheduler.schedule(graph, nmp_result.best_candidate)

    rr_net_latency = rr_net.max_task_latency
    rr_layer_latency = rr_layer.max_task_latency
    nmp_latency = nmp.max_task_latency
    print()
    print(f"RR-Network latency: {rr_net_latency * 1e3:8.2f} ms")
    print(f"RR-Layer latency:   {rr_layer_latency * 1e3:8.2f} ms")
    print(f"Ev-Edge NMP latency:{nmp_latency * 1e3:8.2f} ms "
          f"({rr_net_latency / nmp_latency:.2f}x vs RR-Network, "
          f"{rr_layer_latency / nmp_latency:.2f}x vs RR-Layer)")
    print(f"NMP search: {nmp_result.evaluations} evaluations, "
          f"{nmp_result.cache_hits} cache hits, convergence "
          f"{[round(v * 1e3, 2) for v in nmp_result.convergence[:8]]} ... ms")

    print()
    print("per-task latencies under the NMP mapping:")
    for task, latency in nmp.task_latencies.items():
        print(f"  {task:16s} {latency * 1e3:8.2f} ms")

    print()
    print("device utilisation under the NMP mapping:")
    for device, fraction in utilisation(nmp).items():
        print(f"  {device:16s} {fraction:6.1%}")

    print()
    print("execution timeline (first rows per device):")
    print(format_gantt(nmp, width=48, max_rows=6))


if __name__ == "__main__":
    main()
