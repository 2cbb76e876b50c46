"""Ev-Edge core: E2SF, DSFA and the Network Mapper, plus the integrated pipeline."""

from .config import EvEdgeConfig, OptimizationLevel
from .dsfa import (
    DSFAConfig,
    DynamicSparseFrameAggregator,
    MergeMode,
    PlacementPlan,
    placement_plan,
)
from .e2sf import E2SFReport, Event2SparseFrameConverter
from .nmp import (
    Assignment,
    EvolutionaryStrategy,
    ExecutionScheduler,
    FitnessBreakdown,
    FitnessEvaluator,
    FlatGraph,
    GenerationStats,
    MapperEngine,
    MappingCandidate,
    NMPConfig,
    NMPResult,
    RandomSearchStrategy,
    ScheduleResult,
    ScheduledNode,
    SearchContext,
    SearchStrategy,
)
from .pipeline import EvEdgePipeline, InferenceRecord, PipelineReport

__all__ = [
    "Event2SparseFrameConverter",
    "E2SFReport",
    "DynamicSparseFrameAggregator",
    "DSFAConfig",
    "MergeMode",
    "PlacementPlan",
    "placement_plan",
    "Assignment",
    "MappingCandidate",
    "ExecutionScheduler",
    "ScheduleResult",
    "ScheduledNode",
    "FitnessEvaluator",
    "FitnessBreakdown",
    "NMPConfig",
    "NMPResult",
    "GenerationStats",
    "MapperEngine",
    "SearchContext",
    "SearchStrategy",
    "EvolutionaryStrategy",
    "RandomSearchStrategy",
    "FlatGraph",
    "EvEdgeConfig",
    "OptimizationLevel",
    "EvEdgePipeline",
    "PipelineReport",
    "InferenceRecord",
]
