"""Graph-walking references for the NMP list scheduler and candidate generation.

:class:`~repro.core.nmp.scheduler.ExecutionScheduler` flattens a multi-task
graph once into index arrays and schedules every candidate over them.
:func:`schedule_reference` is the scheduler it replaced: it walks the graph
per candidate, resolving ``graph.spec()`` / ``graph.predecessors()``,
reading each layer's cost from an offline profile
(:func:`~oracles.hw.profile_reference`, not the scheduler's own cost table)
and pricing transfers with :meth:`~repro.hw.pe.Platform.transfer_time` for
every node.  The scheduler and fitness tests require the flat path to
reproduce it bit for bit.

:func:`random_candidate_reference` and :func:`mutate_reference` are the
candidate generators that walked the graph per call, resolving each node's
capable PEs and their precisions from the platform for every draw.  The
production generators read a :class:`~repro.core.nmp.candidate.ChoiceTable`
compiled once per (graph, platform) and must return equal assignments in
the same order while consuming the RNG identically.  Like the other
oracles, these are deliberately unoptimized verification code.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.core.nmp.candidate import Assignment, MappingCandidate
from repro.core.nmp.scheduler import ScheduledNode, ScheduleResult
from repro.hw.pe import Platform
from repro.nn.graph import MultiTaskGraph
from repro.nn.quantization import Precision

__all__ = ["schedule_reference", "random_candidate_reference", "mutate_reference"]

_MEMORY_QUEUE = "unified_memory"


def schedule_reference(
    platform: Platform,
    profile: Dict[Tuple[str, str, Precision, bool], Tuple[float, float]],
    graph: MultiTaskGraph,
    mapping: MappingCandidate,
) -> ScheduleResult:
    """Schedule ``mapping`` on ``platform`` with ``profile``'s costs (Eq. 3).

    ``profile`` is :func:`~oracles.hw.profile_reference` of ``graph``.
    Every device plus the unified-memory link gets a queue; nodes run in
    the graph's topological order, a transfer node is inserted whenever a
    compute parent sits on another device, and a node runs sparse where its
    PE has a sparse entry.  An assignment the profile lacks raises
    ``KeyError``.
    """
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

        sparse = (node, pe_name, precision, True) in profile
        latency, energy = profile[node, pe_name, precision, sparse]
        start = max(ready, queue_ready[pe_name])
        finish = start + latency
        queue_ready[pe_name] = finish
        end_time[node] = finish
        total_energy += energy
        timeline.append(ScheduledNode(node=node, queue=pe_name, start=start, end=finish))
        task = graph.network_of(node)
        task_latencies[task] = max(task_latencies[task], finish)

    return ScheduleResult(
        timeline=timeline, task_latencies=task_latencies, energy=total_energy
    )


def random_candidate_reference(
    graph: MultiTaskGraph,
    platform: Platform,
    rng: np.random.Generator,
    full_precision_only: bool = False,
) -> MappingCandidate:
    """A uniformly random candidate, drawn node by node from the graph.

    Per compute node in topological order: one draw picks a capable PE, and
    one more (unless ``full_precision_only``) a precision it supports.
    """
    assignments: Dict[str, Assignment] = {}
    for node in graph.compute_nodes():
        spec = graph.spec(node)
        candidates = platform.candidates_for(spec)
        pe = candidates[rng.integers(len(candidates))]
        if full_precision_only:
            precision = pe.highest_supported_precision()
        else:
            precisions = list(pe.supported_precisions)
            precision = precisions[rng.integers(len(precisions))]
        assignments[node] = Assignment(pe.name, precision)
    return MappingCandidate(assignments)


def mutate_reference(
    candidate: MappingCandidate,
    graph: MultiTaskGraph,
    platform: Platform,
    rng: np.random.Generator,
    num_mutations: int = 2,
    full_precision_only: bool = False,
) -> MappingCandidate:
    """A copy of ``candidate`` with ``num_mutations`` random layers redrawn.

    One ``choice`` draw picks the layers among the candidate's nodes in its
    insertion order; each is then redrawn as in
    :func:`random_candidate_reference`.
    """
    child = candidate.copy()
    nodes = list(child.assignments)
    if not nodes:
        return child
    num_mutations = min(max(num_mutations, 0), len(nodes))
    chosen = rng.choice(len(nodes), size=num_mutations, replace=False)
    for idx in np.atleast_1d(chosen):
        node = nodes[int(idx)]
        spec = graph.spec(node)
        candidates = platform.candidates_for(spec)
        pe = candidates[rng.integers(len(candidates))]
        if full_precision_only:
            precision = pe.highest_supported_precision()
        else:
            precisions = list(pe.supported_precisions)
            precision = precisions[rng.integers(len(precisions))]
        child.assignments[node] = Assignment(pe.name, precision)
    return child
