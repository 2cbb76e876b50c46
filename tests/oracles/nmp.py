"""Graph-walking reference for the NMP list scheduler.

:class:`~repro.core.nmp.scheduler.ExecutionScheduler` flattens a multi-task
graph once into index arrays and schedules every candidate over them.
:func:`schedule_reference` is the scheduler it replaced: it walks the graph
per candidate, resolving ``graph.spec()`` / ``graph.predecessors()``,
querying the profile table and pricing transfers with
:meth:`~repro.hw.pe.Platform.transfer_time` for every node.  The scheduler
and fitness tests require the flat path to reproduce it bit for bit.  Like
the other oracles, it is deliberately unoptimized verification code.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.nmp.candidate import MappingCandidate
from repro.core.nmp.scheduler import ExecutionScheduler, ScheduledNode, ScheduleResult
from repro.nn.graph import MultiTaskGraph

__all__ = ["schedule_reference"]

_MEMORY_QUEUE = "unified_memory"


def schedule_reference(
    scheduler: ExecutionScheduler, graph: MultiTaskGraph, mapping: MappingCandidate
) -> ScheduleResult:
    """Schedule ``mapping`` on ``scheduler``'s platform and profile (Eq. 3).

    Every device plus the unified-memory link gets a queue; nodes run in
    the graph's topological order, a transfer node is inserted whenever a
    compute parent sits on another device, and sparse profile entries are
    preferred where ``scheduler.sparse`` is set and one exists.
    """
    platform = scheduler.platform
    profile = scheduler.profile
    queue_ready: Dict[str, float] = {pe.name: 0.0 for pe in platform}
    queue_ready[_MEMORY_QUEUE] = 0.0
    end_time: Dict[str, float] = {}
    timeline: List[ScheduledNode] = []
    task_latencies: Dict[str, float] = {name: 0.0 for name in graph.task_names}
    total_energy = 0.0

    for node in graph.nodes():
        spec = graph.spec(node)
        if not spec.kind.is_compute:
            parents = graph.predecessors(node)
            end_time[node] = max((end_time[p] for p in parents), default=0.0)
            continue
        assignment = mapping[node]
        pe_name = assignment.pe
        precision = assignment.precision

        ready = 0.0
        for parent in graph.predecessors(node):
            parent_end = end_time.get(parent, 0.0)
            parent_spec = graph.spec(parent)
            if not parent_spec.kind.is_compute or parent not in mapping:
                ready = max(ready, parent_end)
                continue
            parent_assignment = mapping[parent]
            if parent_assignment.pe == pe_name:
                ready = max(ready, parent_end)
                continue
            transfer_time = platform.transfer_time(
                parent_spec.output_bytes(parent_assignment.precision),
                parent_assignment.pe,
                pe_name,
            )
            start = max(parent_end, queue_ready[_MEMORY_QUEUE])
            finish = start + transfer_time
            queue_ready[_MEMORY_QUEUE] = finish
            timeline.append(
                ScheduledNode(
                    node=f"{parent}->{node}",
                    queue=_MEMORY_QUEUE,
                    start=start,
                    end=finish,
                    kind="transfer",
                )
            )
            ready = max(ready, finish)

        use_sparse = scheduler.sparse and profile.has(node, pe_name, precision, True)
        entry = profile.lookup(node, pe_name, precision, use_sparse)
        start = max(ready, queue_ready[pe_name])
        finish = start + entry.latency
        queue_ready[pe_name] = finish
        end_time[node] = finish
        total_energy += entry.energy
        timeline.append(ScheduledNode(node=node, queue=pe_name, start=start, end=finish))
        task = graph.network_of(node)
        task_latencies[task] = max(task_latencies[task], finish)

    return ScheduleResult(
        timeline=timeline, task_latencies=task_latencies, energy=total_energy
    )
