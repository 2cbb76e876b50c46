"""Kernel dispatch executors: the objects a stream client hands its batches to.

* :class:`SerialExecutor` models the whole platform as one serial
  accelerator (the seed pipeline's scalar ``busy_until``).
* :class:`SignatureServer` serves every stream sharing one (network,
  mapping, config) signature with indexed per-client pending queues,
  cross-stream batching and O(1) amortized dispatch/evict/merge — the
  fleet-scale hot path of :class:`~repro.runtime.streams.
  MultiStreamSimulator`.

Both run an inference through one function, :func:`execute`: the
executors differ only in when they call it, on which resources and with
how many members.
"""

from __future__ import annotations

import heapq
import itertools
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from ..frames.sparse import SparseFrameBatch, pairwise_mean
from .sim import InferenceRecord, NetworkCostModel, SimulationKernel

__all__ = ["SerialExecutor", "SignatureServer", "execute"]


# ----------------------------------------------------------------------
# kernel dispatch executors
# ----------------------------------------------------------------------
class SerialExecutor:
    """Whole-platform serial accelerator (the seed's scalar ``busy_until``).

    Every dispatch is queued immediately: it starts at
    ``max(dispatch_time, busy_until)`` and occupies the single shared
    resource until it completes, regardless of which PEs the mapping uses —
    single-task execution is serial end to end.
    """

    resource = "platform"

    def __init__(self, kernel: SimulationKernel) -> None:
        self.kernel = kernel

    def busy_until(self, client: Optional["object"] = None) -> float:
        """Time the accelerator frees up: one lookup in the kernel's busy map."""
        return self.kernel.busy.get(self.resource, 0.0)

    def backlog_estimate(self, client, time: float) -> float:
        """Backlog behind ``client``'s next dispatch at ``time``.

        A serial executor has no pending queue — every dispatch is placed on
        the busy timeline immediately — so the backlog is exactly the busy
        frontier's lead over ``time`` (the seed pipeline's drop-rule input).
        """
        return self.busy_until(client) - time

    def dispatch(self, client, batch: SparseFrameBatch, time: float) -> None:
        """Execute ``batch`` for ``client``, queuing behind earlier work."""
        execute(
            self.kernel,
            client.cost_model,
            (self.resource,),
            [_PendingDispatch(client, batch, time)],
            time,
        )


class _PendingDispatch:
    """One queued dispatch: who sent it, what it carries, when, and its
    position in the server's aggregate FIFO order (``seq``).

    ``service_estimate`` is the sender's per-dispatch service-time estimate
    stamped at enqueue time; the server keeps a running sum of these so the
    no-DSFA backlog drop rule can include queued work without scanning.
    """

    __slots__ = ("client", "batch", "time", "seq", "service_estimate")

    def __init__(self, client, batch, time, seq=0, service_estimate=0.0) -> None:
        self.client = client
        self.batch = batch
        self.time = time
        self.seq = seq
        self.service_estimate = service_estimate


def execute(
    kernel: SimulationKernel,
    cost_model: NetworkCostModel,
    resources: Sequence[str],
    members: List[_PendingDispatch],
    ready_time: float,
    drain: Optional[tuple] = None,
) -> None:
    """Run ``members`` as one inference on ``resources``, from ``ready_time``.

    The members' density columns drive the costing directly: no
    concatenated batch (and no per-frame view) is built for a cross-stream
    merge.  Flattening the columns keeps the values and order a
    concatenated batch would expose, so the mean and the profile are
    bit-identical to it.  One density is its own mean (``np.mean`` over one
    element returns it unchanged), and longer columns keep ``np.mean``'s
    pairwise summation order (:func:`~repro.frames.sparse.pairwise_mean`).
    Each member gets its record and its share of the batched latency and
    energy, and the kernel gets the members' completions, in order, then
    ``drain`` (a completion of the caller's own, if any), as one entry.
    """
    sparse = cost_model.uses_sparse
    num_frames = sum(len(m.batch) for m in members)
    if sparse:
        densities = [d for m in members for d in m.batch.frame_densities()]
        if len(densities) == 1:
            occupancy = float(densities[0])
        else:
            occupancy = pairwise_mean(densities) if densities else 0.0
    else:
        densities = []
        occupancy = 1.0
    # The cost stack takes a per-layer occupancy profile, not a scalar:
    # under ``cost_mode="profile"`` a merged batch's profile is the
    # column-wise mean of its members' bucketed rows (flat mode reduces to
    # the scalar path).
    profile = cost_model.densities_profile(densities, occupancy)
    total_frames = 1 if num_frames < 1 else num_frames
    latency, energy = cost_model.profile_cost(profile, total_frames)
    start, end = kernel.acquire(resources, ready_time, latency)
    completions = []
    for member in members:
        client = member.client
        share = len(member.batch) / total_frames
        record = InferenceRecord(
            member.time,
            start,
            end,
            len(member.batch),
            member.batch.mean_density if sparse else 1.0,
            energy * share,
        )
        # Attribute each member its *share* of the batched latency: the
        # full latency would inflate every member's per-dispatch service
        # estimate (StreamClient._last_duration) after a cross-stream
        # merge and distort the backlog drop rule.
        client.note_dispatch(latency * share)
        completions.append((client.name, (record,), profile, client._on_done))
    if drain is not None:
        completions.append(drain)
    kernel.schedule_completions(end, completions)


class SignatureServer:
    """Serial server for all streams sharing one network signature.

    The server occupies the PEs its cost model's mapping uses.  A dispatch
    arriving while the server is idle executes immediately; otherwise it
    waits in a pending queue bounded per stream by that stream's
    ``inference_queue_depth`` (the oldest pending entry is evicted when the
    bound is exceeded).  When an inference completes, the oldest pending
    dispatch of each of up to ``max_merge_streams`` *distinct* streams is
    concatenated into one batched inference — cross-stream batching amortises
    kernel-launch and weight-traffic costs exactly like DSFA's within-stream
    merging, and no single stream can consume more than one slot of the merge
    budget (``max_merge_streams=1`` disables merging entirely).

    **Fleet-scale hot path.**  Pending work lives in one deque per client
    plus a lazy min-heap over each queue's head sequence number (the
    aggregate FIFO order), so enqueue, per-stream eviction and the
    distinct-stream merge selection are all O(1) amortized instead of the
    O(queue) list scans of the original implementation.  Wake-ups are
    coalesced: instead of scheduling one kernel event per enqueued dispatch,
    the server keeps at most one outstanding wake-up (the earliest busy
    frontier it needs to re-examine), which removes the event-count blow-up
    a backlogged 1000-stream fleet used to generate.  An execution hands the
    kernel its members' completions and the server's own drain as one group
    (:meth:`~repro.runtime.sim.SimulationKernel.schedule_completions`), and
    a wake-up is a group of the drain alone: both reach :meth:`_on_done`.
    """

    def __init__(
        self,
        kernel: SimulationKernel,
        cost_model: NetworkCostModel,
        name: str,
        max_merge_streams: int = 4,
    ) -> None:
        if max_merge_streams < 1:
            raise ValueError("max_merge_streams must be >= 1")
        self.kernel = kernel
        self.cost_model = cost_model
        self.name = name
        self.max_merge_streams = max_merge_streams
        # The completion that drains the pending queues: it ends every
        # execution and is the whole of a wake-up.
        self._drain = (name, (), None, self._on_done)
        # client name -> that client's pending dispatches (FIFO).
        self._queues: Dict[str, Deque[_PendingDispatch]] = {}
        # Lazy min-heap of (head seq, client) pairs: one live entry per
        # non-empty queue; stale entries (their seq no longer heads the
        # queue) are discarded when popped.
        self._order: List[Tuple[int, object]] = []
        self._seq = itertools.count()
        self._pending_count = 0
        self._pending_service = 0.0
        self._next_wakeup: Optional[float] = None

    # ------------------------------------------------------------------
    def busy_until(self, client: Optional["object"] = None) -> float:
        """Time every PE of this server's mapping frees up.

        The cost model's ``pes_used`` always names the PEs of the active
        mapping (each rebind resets it), so a single-PE mapping's frontier
        is one lookup in the kernel's ``busy`` map; a mapping over several
        PEs takes the latest of them.
        """
        pes = self.cost_model.pes_used
        if len(pes) == 1:
            return self.kernel.busy.get(pes[0], 0.0)
        return self.kernel.busy_until(*pes)

    def backlog_estimate(self, client, time: float) -> float:
        """Backlog behind ``client``'s next dispatch at ``time``.

        The busy frontier's lead over ``time`` *plus* the estimated service
        time of the work already sitting in the pending queues: a dispatch
        enqueued now runs after both, so a drop rule that looked only at
        ``busy_until`` systematically under-dropped under contention.  Every
        no-DSFA arrival asks, so a one-PE frontier is read here with one
        lookup, and a comparison clamps a frontier in the past to no lead.
        """
        pes = self.cost_model.pes_used
        if len(pes) == 1:
            lead = self.kernel.busy.get(pes[0], 0.0) - time
        else:
            lead = self.kernel.busy_until(*pes) - time
        if lead < 0.0:
            return self._pending_service
        return lead + self._pending_service

    def dispatch(self, client, batch: SparseFrameBatch, time: float) -> None:
        """Execute immediately when idle, else enqueue (bounded per stream)."""
        busy = self.busy_until(client)
        if self._pending_count == 0 and busy <= time:
            execute(
                self.kernel,
                self.cost_model,
                self.cost_model.pes_used,
                [_PendingDispatch(client, batch, time)],
                time,
                self._drain,
            )
            return
        queue = self._queues.get(client.name)
        if queue is None:
            queue = self._queues[client.name] = deque()
        if len(queue) >= client.queue_depth:
            oldest = queue.popleft()
            self._pending_count -= 1
            self._pending_service -= oldest.service_estimate
            client.report.frames_dropped += len(oldest.batch)
            # Processed now: a server with pending work is busy past
            # ``time``, so no same-time wake-up can precede the eviction.
            self.kernel.evict(time, client.name, len(oldest.batch), "queue-full")
            if queue:
                # The evicted head's heap entry is now stale; the next
                # entry becomes this queue's head candidate.
                heapq.heappush(self._order, (queue[0].seq, client))
        # What max(estimate, 0.0) would pick, without the call.
        estimate = client.last_duration
        entry = _PendingDispatch(
            client, batch, time, next(self._seq), 0.0 if estimate < 0.0 else estimate
        )
        if not queue:
            heapq.heappush(self._order, (entry.seq, client))
        queue.append(entry)
        self._pending_count += 1
        self._pending_service += entry.service_estimate
        # The PEs may be held by a *different* server (shared devices), whose
        # completions never call this server — make sure a wake-up exists
        # at the busy frontier so the queue always drains.
        self._schedule_wakeup(time if time > busy else busy)

    # ------------------------------------------------------------------
    def _schedule_wakeup(self, time: float) -> None:
        """Keep at most one outstanding wake-up, at the earliest frontier."""
        if self._next_wakeup is not None and self._next_wakeup <= time:
            return
        self._next_wakeup = time
        self.kernel.schedule_completions(time, [self._drain])

    def _take_members(self) -> List[_PendingDispatch]:
        """Pop the merge set: the oldest pending dispatch of each of the
        first ``max_merge_streams`` distinct streams, in aggregate FIFO
        order over each stream's oldest entry."""
        members: List[_PendingDispatch] = []
        taken_clients: List[object] = []
        order = self._order
        while order and len(members) < self.max_merge_streams:
            seq, client = order[0]
            queue = self._queues.get(client.name)
            if not queue or queue[0].seq != seq:
                heapq.heappop(order)  # stale head candidate
                continue
            heapq.heappop(order)
            entry = queue.popleft()
            self._pending_count -= 1
            self._pending_service -= entry.service_estimate
            members.append(entry)
            taken_clients.append(client)
        # Only after the selection is complete may a taken stream's next
        # entry become a head candidate — pushing it inside the loop would
        # let one stream fill several slots of the distinct-stream budget.
        for client in taken_clients:
            queue = self._queues.get(client.name)
            if queue:
                heapq.heappush(order, (queue[0].seq, client))
        return members

    def _on_done(self, time: float, records: tuple) -> None:
        """The server's own completion or a wake-up at ``time`` (it carries
        no ``records``): drain the pending queues if the devices are free,
        else wake up again when they are."""
        if self._next_wakeup is not None and time >= self._next_wakeup - 1e-15:
            self._next_wakeup = None
        if self._pending_count == 0:
            return
        busy = self.busy_until()
        if busy > time:
            # A server sharing one of our PEs is still running; retry when
            # the devices free up.
            self._schedule_wakeup(busy)
            return
        execute(
            self.kernel,
            self.cost_model,
            self.cost_model.pes_used,
            self._take_members(),
            time,
            self._drain,
        )
