"""Sharded multiprocess runtime: a fleet run as N independent platform replicas.

One Python heap and one GIL cap how many streams a single
:class:`~repro.runtime.sim.SimulationKernel` can sustain regardless of
per-event cost.  ``shards=N`` scales past that by simulating the fleet on
*N replicas of the platform*, in three steps:

1. :func:`partition_sources` splits the fleet's stream sources into at
   most N shards;
2. each shard runs to completion on its own
   :class:`~repro.runtime.streams.MultiStreamSimulator` — its own kernel,
   signature servers, cost models and
   :class:`~repro.runtime.sim.LayerCostTable` — in a worker process or
   inline;
3. :meth:`~repro.runtime.streams.MultiStreamReport.merged` folds the shard
   reports into one.

**Partitioning.**  The unit of partitioning is the *signature group* —
every stream sharing one (network, mapping, config) signature — because
:class:`SignatureServer` only ever merges dispatches within a signature.
Signature groups are greedily balanced across the requested shard count
(largest group first onto the lightest shard; deterministic), so shards
never exchange an event: a sharded report equals, bit for bit, the merge
of independent single-process runs of the partitions.

**Replica semantics.**  Each shard tracks busy time on its own kernel, so
signatures that share a PE but land on different shards stop contending:
the merged report describes N platforms (a fleet of fleets), not one.
Only when the shards' signatures occupy disjoint PEs is it bit-identical
to the single-process run.  With one effective shard the run *is* the
single-process run.

**Execution.**  ``mode="process"`` starts one worker process per shard;
each sends its report (or its traceback) as the only message over a
one-way pipe.  Under the fork start method the workers inherit the fleet —
rendered frame stacks included — without pickling; under spawn the
fleet is pickled to each worker.  Daemonic processes (e.g.
``multiprocessing.Pool`` workers) may not have children, so there the run
falls back to ``mode="inline"``, which runs the shards one after another in
this process with identical results.  Sweep workers are not daemonic and
start shard processes.  Traces do not compose across kernels, so sharded runs do not
accept a trace.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .streams import (
    SHARD_MODES,
    MultiStreamReport,
    MultiStreamSimulator,
    StreamSource,
    signature_groups,
)

__all__ = [
    "ShardPlan",
    "ShardSummary",
    "partition_sources",
    "ShardedSimulator",
]


# ----------------------------------------------------------------------
# partitioning
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ShardPlan:
    """Deterministic fleet partition: source indices per shard.

    ``assignments[s]`` are the (ascending) indices into the source list
    owned by shard ``s``; every source appears in exactly one shard and
    streams sharing a signature always land together.  ``num_shards`` can
    be smaller than ``requested`` when there are fewer signature groups
    than shards asked for.
    """

    assignments: Tuple[Tuple[int, ...], ...]
    requested: int

    @property
    def num_shards(self) -> int:
        return len(self.assignments)

    @property
    def shard_sizes(self) -> Tuple[int, ...]:
        return tuple(len(indices) for indices in self.assignments)


def partition_sources(sources: Sequence[StreamSource], shards: int) -> ShardPlan:
    """Partition a fleet into at most ``shards`` balanced, disjoint shards.

    Signature groups are assigned largest-first onto the currently lightest
    shard — a pure function of the source list, so the same fleet always
    shards the same way in every process.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    units = signature_groups(sources)
    num_shards = min(shards, len(units))
    order = sorted(range(len(units)), key=lambda u: (-len(units[u]), u))
    loads = [0] * num_shards
    buckets: List[List[int]] = [[] for _ in range(num_shards)]
    for u in order:
        target = min(range(num_shards), key=lambda s: (loads[s], s))
        buckets[target].extend(units[u])
        loads[target] += len(units[u])
    return ShardPlan(
        assignments=tuple(tuple(sorted(bucket)) for bucket in buckets),
        requested=shards,
    )


@dataclass(frozen=True)
class ShardSummary:
    """One shard's closing counters, read from that shard's own report.

    ``t_end`` is the shard kernel's final time; ``heap_high_water`` its peak
    event-heap population.
    """

    shard: int
    t_end: float
    events_processed: int
    inferences: int
    frames_dropped: int
    heap_high_water: int

    @classmethod
    def of(cls, shard: int, report: MultiStreamReport) -> "ShardSummary":
        return cls(
            shard=shard,
            t_end=report.end_time,
            events_processed=report.events_processed,
            inferences=report.total_inferences,
            frames_dropped=report.frames_dropped,
            heap_high_water=report.heap_high_water,
        )


def _shard_worker(conn, platform, sources, sim_kwargs) -> None:
    """Worker-process entry point: run one shard to completion and send its
    report — or its traceback — as the pipe's only message.

    Module-level so it is picklable under spawn start methods; under fork
    the sources arrive without any serialisation cost.
    """
    try:
        report = MultiStreamSimulator(platform, sources, **sim_kwargs).run()
        conn.send(("report", report))
    except Exception:  # pragma: no cover - exercised via the parent's error path
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


# ----------------------------------------------------------------------
# orchestration
# ----------------------------------------------------------------------
class ShardedSimulator:
    """Partition a fleet, run each shard to completion, merge the reports.

    Parameters
    ----------
    platform:
        The platform model.  Every shard receives the same object (fork) or
        an identical copy (spawn) and tracks its own busy time on it: each
        shard is a replica of the platform.
    sources:
        The full fleet; partitioned by :func:`partition_sources`.
    shards:
        Requested shard count.  The effective count may be lower (see
        :class:`ShardPlan`); with one effective shard the run collapses to a
        plain in-process :class:`MultiStreamSimulator` — bit-identical to
        the unsharded kernel.
    mode:
        ``"process"`` — one worker process per shard (falls back to inline
        inside daemonic processes, which may not fork children — e.g.
        ``multiprocessing.Pool`` workers).  ``"inline"`` — the shards run one after another in
        this process: identical results, no parallelism, no pickling.
    **sim_kwargs:
        Forwarded verbatim to every shard's :class:`MultiStreamSimulator`.
    """

    def __init__(
        self,
        platform,
        sources: Sequence[StreamSource],
        shards: int = 2,
        mode: str = "process",
        **sim_kwargs,
    ) -> None:
        if mode not in SHARD_MODES:
            raise ValueError(f"unknown shard mode {mode!r}; expected one of {SHARD_MODES}")
        self.platform = platform
        self.sources = list(sources)
        self.plan = partition_sources(self.sources, shards)
        self.mode = mode
        self.sim_kwargs = dict(sim_kwargs)

    def _simulator(self, fleet: Sequence[StreamSource]) -> MultiStreamSimulator:
        return MultiStreamSimulator(self.platform, fleet, **self.sim_kwargs)

    def run(self) -> MultiStreamReport:
        """Simulate every shard to completion and merge the shard reports."""
        if self.plan.num_shards == 1:
            return self._simulator(self.sources).run()
        fleets = [
            [self.sources[i] for i in indices] for indices in self.plan.assignments
        ]
        mode = self.mode
        if mode == "process" and multiprocessing.current_process().daemon:
            # Daemonic workers (e.g. multiprocessing.Pool processes) may not
            # have children; inline runs produce identical results.
            mode = "inline"
        if mode == "inline":
            reports = [self._simulator(fleet).run() for fleet in fleets]
        else:
            reports = self._run_process(fleets)
        merged = MultiStreamReport.merged(reports)
        merged.epochs = [
            ShardSummary.of(shard, report) for shard, report in enumerate(reports)
        ]
        return merged

    def _run_process(
        self, fleets: List[List[StreamSource]]
    ) -> List[MultiStreamReport]:
        """One worker process per shard, one report per one-way pipe."""
        ctx = multiprocessing.get_context()
        processes = []
        connections = []
        try:
            for shard_id, fleet in enumerate(fleets):
                reader, writer = ctx.Pipe(duplex=False)
                process = ctx.Process(
                    target=_shard_worker,
                    args=(writer, self.platform, fleet, self.sim_kwargs),
                    name=f"shard-{shard_id}",
                    daemon=True,
                )
                process.start()
                writer.close()  # EOF in the parent when the worker dies
                processes.append(process)
                connections.append(reader)
            reports = [
                self._recv(conn, shard_id) for shard_id, conn in enumerate(connections)
            ]
            for process in processes:
                process.join(timeout=60.0)
            return reports
        finally:
            for conn in connections:
                conn.close()
            for process in processes:
                if process.is_alive():
                    process.terminate()
                    process.join(timeout=5.0)

    @staticmethod
    def _recv(conn, shard_id: int) -> MultiStreamReport:
        """Receive a worker's report, surfacing worker failures."""
        try:
            kind, payload = conn.recv()
        except EOFError:
            raise RuntimeError(
                f"shard {shard_id} worker exited without a result"
            ) from None
        if kind == "error":
            raise RuntimeError(f"shard {shard_id} worker failed:\n{payload}")
        return payload
