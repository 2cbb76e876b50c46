"""The benchmark's workloads, driven through the production paths.

Every workload is a :class:`~repro.scenarios.spec.ScenarioSpec` compiled by
``default_registry()`` with 0.4 s of footage at spatial scale 0.12 and the
seed given on the command line.  One *simulation* is one whole scenario run
to completion, report included; a run repeats simulations back to back
(a closed loop with one client, in one process).

* The fleets go through the path of the ``run`` CLI:
  ``simulate_cell(SweepCell(spec, policy=...))`` with the built-in
  ``batched`` policy (profile costs).  The traced run of ``evict_fleet``
  also simulates the fleet on 2 shards: in worker processes with
  ``shards=2`` set on that policy by ``dataclasses.replace``, as
  ``run --shards 2`` does, and inline for its spans.
* ``remap_churn`` drives ``MultiStreamSimulator(..., remap_policy=
  RemapPolicy(), cost_mode="profile")`` over the compiled sources, with a
  fresh simulator (and therefore fresh remap engines) per simulation.

No oracle-only knob (``dataplane``, ``schedule_mode``, ``*_factory``) is
passed anywhere.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.config import OptimizationLevel
from repro.hw.jetson import jetson_xavier_agx
from repro.runtime.streams import MultiStreamSimulator, RemapPolicy
from repro.scenarios import default_registry
from repro.scenarios.sweep import BUILTIN_POLICIES, SweepCell, simulate_cell

DURATION_S = 0.4
SCALE = 0.12


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    num_streams: int
    optimization: Optional[str]  # None keeps the family default (e2sf+dsfa)
    # Distinct rendered sequences the streams draw from (None = the family
    # default of 8).  The fleets use 64: every stream renders its own stack
    # from its sequence, so with 8 sequences each one is copied 32-128 times
    # and the seed alone moved peak memory by 20%.
    sequence_pool: Optional[int] = None
    remap: bool = False
    # Shard count of the extra sharded simulations the traced run makes of
    # this workload's fleet (0 = none): the shard runtime's layer metrics.
    trace_shards: int = 0

    def spec(self, seed: int):
        params = {}
        if self.optimization is not None:
            params["optimization"] = self.optimization
        if self.sequence_pool is not None:
            params["sequence_pool"] = self.sequence_pool
        return default_registry().resolve(
            self.family,
            num_streams=self.num_streams,
            duration=DURATION_S,
            scale=SCALE,
            seed=seed,
            params=params,
        )

    @property
    def uses_dsfa(self) -> bool:
        level = OptimizationLevel(self.optimization or OptimizationLevel.E2SF_DSFA.value)
        return level.uses_dsfa


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("dsfa_fleet", "steady", 256, None, sequence_pool=64),
        Workload("evict_fleet", "steady", 1024, "e2sf", sequence_pool=64, trace_shards=2),
        Workload("remap_churn", "churn", 64, "e2sf+dsfa+nmp", remap=True),
    )
}


class Runner:
    """Builds the simulation calls of one workload at one seed.

    Each ``simulate*`` method runs one whole simulation and returns its
    report, read through ``capture`` (the outermost
    ``MultiStreamSimulator.run`` call of the simulation).
    """

    def __init__(self, workload: Workload, seed: int, capture) -> None:
        self.workload = workload
        self.seed = seed
        self.capture = capture
        self.spec = workload.spec(seed)
        self.cell = SweepCell(self.spec, policy=BUILTIN_POLICIES["batched"])
        self.sources = None

    def setup(self):
        """Compile, then run the first (cold) simulation, which renders
        every source.  The fleets compile inside ``simulate_cell`` (which
        memoizes compiled sources per spec); ``remap_churn`` compiles here."""
        if self.workload.remap:
            self.sources = default_registry().compile(self.spec)
        self._simulate()
        self.sources = list(self.capture.simulator.sources)
        return self.capture.take()

    def simulate(self):
        """The workload's production path."""
        self._simulate()
        return self.capture.take()

    def _simulate(self) -> None:
        if self.workload.remap:
            MultiStreamSimulator(
                jetson_xavier_agx(),
                self.sources,
                remap_policy=RemapPolicy(),
                cost_mode="profile",
            ).run()
        else:
            simulate_cell(self.cell)

    def simulate_sharded(self):
        """The fleet on ``trace_shards`` worker processes, as ``run --shards``."""
        policy = dataclasses.replace(self.cell.policy, shards=self.workload.trace_shards)
        simulate_cell(SweepCell(self.spec, policy=policy))
        return self.capture.take()

    def simulate_sharded_inline(self):
        """The same sharded simulation with its shards run in this process."""
        policy = self.cell.policy
        MultiStreamSimulator(
            jetson_xavier_agx(),
            self.sources,
            occupancy_resolution=policy.occupancy_resolution,
            max_merge_streams=policy.max_merge_streams,
            cost_mode=policy.cost_mode,
            shards=self.workload.trace_shards,
            shard_mode="inline",
        ).run()
        return self.capture.take()


class Capture:
    """Records the outermost ``MultiStreamSimulator.run`` call and report.

    Installed for the whole run: it adds one function call per simulation
    and lets the checks read the report the CLI path builds its row from.
    :meth:`take` hands the report over and drops both references, so the
    previous simulation is never freed inside the next one's timed region.
    """

    def __init__(self) -> None:
        self.simulator = None
        self.report = None
        self._depth = 0

    def install(self) -> None:
        original = MultiStreamSimulator.run
        capture = self

        def run(simulator, *args, **kwargs):
            capture._depth += 1
            try:
                report = original(simulator, *args, **kwargs)
            finally:
                capture._depth -= 1
            if capture._depth == 0:
                capture.simulator = simulator
                capture.report = report
            return report

        MultiStreamSimulator.run = run

    def take(self):
        report = self.report
        self.simulator = self.report = None
        return report
