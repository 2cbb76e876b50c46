"""List scheduling and latency estimation for mapping candidates.

Implements the paper's Section 4.3.2: every device (plus the unified memory
link used for inter-device transfers) gets an execution queue; nodes are
serialised within their queues following the topological order of the
multi-task graph; the end time of every node obeys

    End_T(node) = max(End_T(parent_1) ... End_T(parent_N), CurDeviceQ_T)
                  + Exec_T(node)                                     (Eq. 3)

and the candidate's latency is the critical-path maximum of the end times.
Data-transfer nodes are inserted automatically whenever a producer/consumer
pair is mapped to different devices.

Each node's execution time and energy on a (PE, precision) come from the
platform's per-layer cost table (:class:`~repro.hw.profiler.LayerCostTable`,
the table the runtime cost stack reads): a PE with sparse kernels runs the
layer sparse at :data:`PROFILE_OCCUPANCY`, any other PE runs it dense.

The scheduler sits on the search's hot path — it runs once per candidate
evaluation — so the multi-task graph is **flattened once per graph** into
index-based arrays (:class:`FlatGraph`): topological node order, parent
indices, compute mask, per-precision output bytes and the cost of every
(PE, precision) option.  A layer's priced options and output bytes are
compiled once per cost table (:meth:`LayerCostTable.compiled
<repro.hw.profiler.LayerCostTable.compiled>`), so graphs that share a layer
share its prices.  A candidate enters the loop as one *row*: its compute
nodes' assignments gathered in flat order (:attr:`FlatGraph.gather`), read
by position, with each parent's assignment read from the run's own list.
``schedule`` / ``schedule_metrics`` gather the row and run that loop
instead of re-resolving ``graph.spec()`` / ``graph.predecessors()`` and
re-pricing layers for every node of every candidate; the fitness evaluator
gathers the row once and hands it to the loop directly.  That loop is the
only scheduler in the library; the graph-walking implementation it
replaced is kept as a bit-for-bit oracle in the test suite.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...hw.pe import Platform
from ...hw.profiler import LayerCost, LayerCostTable
from ...nn.graph import MultiTaskGraph
from ...nn.layers import LayerSpec
from .candidate import Assignment, MappingCandidate

__all__ = [
    "ScheduledNode",
    "ScheduleResult",
    "FlatGraph",
    "ExecutionScheduler",
    "PROFILE_OCCUPANCY",
]

_MEMORY_QUEUE = "unified_memory"

# Activation occupancy at which every sparse layer execution is priced: the
# mapper searches offline (and between inference batches online), before
# the incoming frames' density is known.
PROFILE_OCCUPANCY = 0.1


@dataclass(frozen=True)
class ScheduledNode:
    """One entry of the execution timeline."""

    node: str
    queue: str
    start: float
    end: float
    kind: str = "compute"  # "compute" or "transfer"

    @property
    def duration(self) -> float:
        """Execution time of this entry."""
        return self.end - self.start


@dataclass
class ScheduleResult:
    """Outcome of scheduling one mapping candidate."""

    timeline: List[ScheduledNode]
    task_latencies: Dict[str, float]
    energy: float

    @property
    def makespan(self) -> float:
        """Critical-path latency across all tasks (max node end time)."""
        if not self.timeline:
            return 0.0
        return max(entry.end for entry in self.timeline)

    @property
    def max_task_latency(self) -> float:
        """The objective of Equation 2: the slowest task's latency."""
        if not self.task_latencies:
            return 0.0
        return max(self.task_latencies.values())

    def device_busy_time(self) -> Dict[str, float]:
        """Total busy time per execution queue (for utilisation plots)."""
        busy: Dict[str, float] = {}
        for entry in self.timeline:
            busy[entry.queue] = busy.get(entry.queue, 0.0) + entry.duration
        return busy


# A layer's priced options, ``(pe_name, precision value) -> LayerCost``, and
# its output bytes per precision value.
_LayerPrices = Tuple[Dict[Tuple[str, str], LayerCost], Dict[str, int]]
# A candidate's compute-node assignments, in flat order.
_Row = Tuple[Assignment, ...]


def _price_layer(
    table: LayerCostTable, spec: LayerSpec, platform: Platform
) -> _LayerPrices:
    """Every (PE, precision) option of ``spec``, priced from ``table``.

    Options follow the :class:`~.candidate.ChoiceTable` order: the PEs that
    can run the layer in platform order, each at its supported precisions.
    Output bytes are computed for those precisions only.
    """
    occupancy = table.bucket(PROFILE_OCCUPANCY)
    options: Dict[Tuple[str, str], LayerCost] = {}
    output_bytes: Dict[str, int] = {}
    for pe in platform.candidates_for(spec):
        for precision in pe.supported_precisions:
            value = precision.value
            cell = table.cell(spec, pe, precision, pe.supports_sparse)
            options[pe.name, value] = table.cell_cost(cell, occupancy, 1)
            if value not in output_bytes:
                output_bytes[value] = spec.output_bytes(precision)
    return options, output_bytes


def _row_getter(nodes: Sequence[str]) -> Callable[[Dict[str, Assignment]], _Row]:
    """A function gathering ``nodes``' assignments, in order, as a tuple.

    ``itemgetter`` of several keys returns a tuple, but of one key the bare
    item (and it takes no zero keys), so those graphs gather by hand.
    """
    if len(nodes) > 1:
        return itemgetter(*nodes)
    return lambda assignments: tuple([assignments[node] for node in nodes])


class FlatGraph:
    """A multi-task graph flattened to index-based arrays for scheduling.

    Built once per (graph, cost table) and reused for every candidate
    evaluation.  Per node ``i`` in topological order:

    * ``names[i]`` — the global node id;
    * ``is_compute[i]`` — pseudo layers forward their parents' end times;
    * ``parents[i]`` — flat indices of the data-dependency parents, in the
      graph's predecessor order (transfer insertion order matters);
    * ``task_index[i]`` — index into ``task_names`` (compute nodes only);
    * ``options[i]`` — ``(pe_name, precision value) -> LayerCost`` over the
      node's :class:`~.candidate.ChoiceTable` choices, each read from
      ``table`` sparse at :data:`PROFILE_OCCUPANCY` where the PE has sparse
      kernels and dense elsewhere (compute nodes only);
    * ``output_bytes[i]`` — ``precision value -> bytes`` of the node's
      output activation at each precision of its options (compute nodes
      only; consumed when inserting transfers, after the producer's own
      option lookup has accepted its precision).

    Both are keyed by :attr:`~.candidate.Assignment.key` parts (plain
    strings) rather than :class:`~repro.nn.quantization.Precision`
    members, whose hash runs in Python.  They are compiled once per layer
    spec and platform on ``table`` and shared, read-only, by every graph
    flattened on it.

    ``compute_names`` holds the compute nodes in flat order, and
    ``gather(assignments)`` returns their assignments as a tuple in that
    order: a candidate's *row*.  It raises ``KeyError`` for a missing
    compute node and ignores nodes outside the graph.
    """

    __slots__ = (
        "names",
        "is_compute",
        "parents",
        "task_index",
        "task_names",
        "options",
        "output_bytes",
        "num_nodes",
        "compute_names",
        "gather",
    )

    def __init__(
        self, graph: MultiTaskGraph, platform: Platform, table: LayerCostTable
    ) -> None:
        nodes = graph.nodes()
        index = {name: i for i, name in enumerate(nodes)}
        self.num_nodes = len(nodes)
        self.names: List[str] = nodes
        self.is_compute: List[bool] = []
        self.parents: List[Tuple[int, ...]] = []
        self.task_names: List[str] = list(graph.task_names)
        task_index = {name: i for i, name in enumerate(self.task_names)}
        self.task_index: List[int] = []
        self.options: List[Optional[Dict[Tuple[str, str], LayerCost]]] = []
        self.output_bytes: List[Optional[Dict[str, int]]] = []
        for name in nodes:
            spec = graph.spec(name)
            compute = spec.kind.is_compute
            self.is_compute.append(compute)
            self.parents.append(tuple(index[p] for p in graph.predecessors(name)))
            self.task_index.append(task_index[graph.network_of(name)])
            if not compute:
                self.options.append(None)
                self.output_bytes.append(None)
                continue
            options, output_bytes = table.compiled(_price_layer, spec, platform)
            self.options.append(options)
            self.output_bytes.append(output_bytes)
        self.compute_names: Tuple[str, ...] = tuple(graph.compute_nodes())
        self.gather = _row_getter(self.compute_names)


class ExecutionScheduler:
    """Estimate the latency of a mapping candidate with per-device queues.

    Layer costs come from ``table``, sparse where a PE has sparse kernels
    (see :class:`FlatGraph`).
    """

    def __init__(self, platform: Platform, table: LayerCostTable) -> None:
        self.platform = platform
        self.table = table
        # Flattenings are keyed on graph identity; WeakKey so long-dead
        # graphs do not pin their arrays.
        self._flat: "weakref.WeakKeyDictionary[MultiTaskGraph, FlatGraph]" = (
            weakref.WeakKeyDictionary()
        )

    # ------------------------------------------------------------------
    def flatten(self, graph: MultiTaskGraph) -> FlatGraph:
        """The (cached) flattened form of ``graph`` for this scheduler."""
        flat = self._flat.get(graph)
        if flat is None:
            flat = FlatGraph(graph, self.platform, self.table)
            self._flat[graph] = flat
        return flat

    def schedule(self, graph: MultiTaskGraph, mapping: MappingCandidate) -> ScheduleResult:
        """Schedule every compute node of ``graph`` per ``mapping`` (Eq. 3)."""
        flat = self.flatten(graph)
        timeline: List[ScheduledNode] = []
        task_latencies, energy = self._run(
            flat, flat.gather(mapping.assignments), timeline
        )
        return ScheduleResult(
            timeline=timeline, task_latencies=task_latencies, energy=energy
        )

    def schedule_metrics(
        self, graph: MultiTaskGraph, mapping: MappingCandidate
    ) -> Tuple[Dict[str, float], float]:
        """Fast path: ``(task_latencies, energy)`` without building a timeline.

        Numerically identical to :meth:`schedule` (same operations in the
        same order); used by the fitness evaluator, whose objective needs
        only the per-task end times and the energy total.
        """
        flat = self.flatten(graph)
        return self._run(flat, flat.gather(mapping.assignments), None)

    # ------------------------------------------------------------------
    def _run(
        self,
        flat: FlatGraph,
        row: _Row,
        timeline: Optional[List[ScheduledNode]],
    ) -> Tuple[Dict[str, float], float]:
        """Schedule one candidate given as its row (``flat.gather``)."""
        names = flat.names
        is_compute = flat.is_compute
        parents = flat.parents
        options = flat.options
        output_bytes = flat.output_bytes
        task_index = flat.task_index
        transfer_latency = self.platform.transfer_latency
        bandwidth = self.platform.unified_memory_bandwidth

        end: List[float] = [0.0] * flat.num_nodes
        # Each compute node's assignment once placed; None for pseudo layers.
        placed: List[Optional[Assignment]] = [None] * flat.num_nodes
        queue_ready: Dict[str, float] = {pe.name: 0.0 for pe in self.platform}
        memory_ready = 0.0
        task_end = [0.0] * len(flat.task_names)
        total_energy = 0.0
        k = 0

        for i in range(flat.num_nodes):
            node_parents = parents[i]
            if not is_compute[i]:
                # Pseudo layers take no time; they simply forward their parents' end.
                latest = 0.0
                for p in node_parents:
                    if end[p] > latest:
                        latest = end[p]
                end[i] = latest
                continue
            assignment = row[k]
            k += 1
            placed[i] = assignment
            pe_name = assignment.pe

            # Insert transfer nodes for parents mapped to a different device.
            ready = 0.0
            for p in node_parents:
                parent_end = end[p]
                parent_assignment = placed[p]
                if parent_assignment is None or parent_assignment.pe == pe_name:
                    if parent_end > ready:
                        ready = parent_end
                    continue
                num_bytes = output_bytes[p][parent_assignment.key[1]]
                if num_bytes <= 0:
                    transfer_time = transfer_latency
                else:
                    transfer_time = transfer_latency + 2.0 * num_bytes / bandwidth
                start = parent_end if parent_end > memory_ready else memory_ready
                finish = start + transfer_time
                memory_ready = finish
                if timeline is not None:
                    timeline.append(
                        ScheduledNode(
                            node=f"{names[p]}->{names[i]}",
                            queue=_MEMORY_QUEUE,
                            start=start,
                            end=finish,
                            kind="transfer",
                        )
                    )
                if finish > ready:
                    ready = finish

            entry = options[i][assignment.key]
            device_ready = queue_ready[pe_name]
            start = ready if ready > device_ready else device_ready
            finish = start + entry.latency
            queue_ready[pe_name] = finish
            end[i] = finish
            total_energy += entry.energy
            if timeline is not None:
                timeline.append(
                    ScheduledNode(node=names[i], queue=pe_name, start=start, end=finish)
                )
            t = task_index[i]
            if finish > task_end[t]:
                task_end[t] = finish

        task_latencies = dict(zip(flat.task_names, task_end))
        return task_latencies, total_energy
