"""Runtime execution engine: simulation kernel, traffic streams, schedulers."""

# repro.core re-exports EvEdgePipeline, a client of this package, while the
# modules below import from repro.core.  Loading core first keeps either
# package from being seen half-initialised, whichever one a process imports
# first (a spawned shard worker starts with repro.runtime.shard).
from .. import core as _core  # noqa: F401
from .executor import SerialExecutor, SignatureServer
from .schedulers import rr_layer_mapping, rr_network_mapping
from .sim import (
    COST_MODES,
    DispatchBatch,
    FrameReady,
    InferenceDone,
    InferenceRecord,
    LayerCost,
    LayerCostTable,
    NetworkCostModel,
    OccupancyProfile,
    PipelineReport,
    QueueEvict,
    RemapTriggered,
    SimEvent,
    SimulationKernel,
    StreamEnd,
)
from .shard import (
    ShardedSimulator,
    ShardPlan,
    ShardSummary,
    partition_sources,
    signature_groups,
)
from .streams import (
    AdaptiveMappingClient,
    MultiStreamReport,
    MultiStreamSimulator,
    RemapPolicy,
    RemapRecord,
    StreamClient,
    StreamSource,
)
from .tracer import (
    KernelTrace,
    TraceEntry,
    format_gantt,
    timeline_by_device,
    utilisation,
)

__all__ = [
    "rr_network_mapping",
    "rr_layer_mapping",
    "SimEvent",
    "FrameReady",
    "DispatchBatch",
    "InferenceDone",
    "QueueEvict",
    "StreamEnd",
    "RemapTriggered",
    "SimulationKernel",
    "LayerCost",
    "LayerCostTable",
    "NetworkCostModel",
    "OccupancyProfile",
    "COST_MODES",
    "InferenceRecord",
    "PipelineReport",
    "StreamSource",
    "StreamClient",
    "SerialExecutor",
    "SignatureServer",
    "RemapPolicy",
    "RemapRecord",
    "AdaptiveMappingClient",
    "MultiStreamReport",
    "MultiStreamSimulator",
    "ShardPlan",
    "ShardSummary",
    "ShardedSimulator",
    "signature_groups",
    "partition_sources",
    "KernelTrace",
    "TraceEntry",
    "timeline_by_device",
    "utilisation",
    "format_gantt",
]
