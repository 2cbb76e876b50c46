"""Integrated Ev-Edge inference pipeline (paper Figure 4).

:class:`EvEdgePipeline` stitches the three optimizations together and
simulates the processing of a whole recorded sequence on the platform model:

1. E2SF converts each grayscale-frame interval's events into ``nB`` sparse
   frames as they are produced;
2. DSFA (when enabled) buffers and merges those frames, adapting to the
   event density and to whether the accelerator is still busy;
3. each dispatched batch is executed with the configured layer mapping
   (all-GPU for the baseline levels, the Network Mapper's mapping for the
   full configuration), using the measured occupancy of the merged frames to
   scale the sparse execution time.

The simulation is event-driven over frame arrival times, so back-pressure
effects are captured: during event bursts the baseline accumulates a backlog
(raising per-frame latency), which is exactly the behaviour DSFA removes.

The pipeline itself is a thin single-stream client of the shared simulation
kernel (:mod:`repro.runtime.sim`): the sequence becomes a
:class:`~repro.runtime.streams.StreamSource`, the frame/DSFA protocol runs
in a :class:`~repro.runtime.streams.StreamClient`, and execution costs come
from a memoized :class:`~repro.runtime.sim.NetworkCostModel`.  The
multi-stream traffic simulator reuses the same pieces.
"""

from __future__ import annotations

from typing import Optional

from ..events.datasets import EventSequence
from ..hw.pe import Platform
from ..nn.graph import LayerGraph
from ..runtime.sim import (
    InferenceRecord,
    LayerCostTable,
    NetworkCostModel,
    PipelineReport,
    SimulationKernel,
)
from ..runtime.executor import SerialExecutor
from ..runtime.streams import StreamClient, StreamSource
from .config import EvEdgeConfig
from .nmp.candidate import MappingCandidate

__all__ = ["InferenceRecord", "PipelineReport", "EvEdgePipeline"]


class EvEdgePipeline:
    """Simulate the Ev-Edge inference pipeline for one network and sequence."""

    def __init__(
        self,
        network: LayerGraph,
        platform: Platform,
        config: Optional[EvEdgeConfig] = None,
        mapping: Optional[MappingCandidate] = None,
        cost_mode: str = "flat",
    ) -> None:
        """``cost_mode`` selects the cost-stack semantics
        (:data:`~repro.runtime.sim.COST_MODES`): ``"flat"`` keeps the
        seed-identical scalar path; ``"profile"`` propagates each input's
        occupancy through the layers (per-layer occupancy profiles)."""
        self.network = network
        self.platform = platform
        self.config = config or EvEdgeConfig()
        self.mapping = mapping
        self.cost_model = NetworkCostModel(
            network,
            platform,
            config=self.config,
            mapping=mapping,
            table=LayerCostTable(),
            cost_mode=cost_mode,
        )

    # ------------------------------------------------------------------
    def run(self, sequence: EventSequence, trace: Optional[object] = None) -> PipelineReport:
        """Process ``sequence`` end to end and return the timing report.

        Pass a :class:`~repro.runtime.tracer.KernelTrace` as ``trace`` to
        record the kernel's event timeline alongside the report.
        """
        source = StreamSource(
            name=sequence.name,
            sequence=sequence,
            network=self.network,
            config=self.config,
            mapping=self.mapping,
        )
        kernel = SimulationKernel(trace=trace)
        client = StreamClient(
            source,
            kernel,
            executor=SerialExecutor(kernel),
            cost_model=self.cost_model,
        )
        client.prime()
        kernel.run()
        return client.report
