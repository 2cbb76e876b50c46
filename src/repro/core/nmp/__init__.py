"""Network Mapper (NMP): layer-to-PE mapping search with precision choice."""

from .candidate import Assignment, MappingCandidate
from .objective import FitnessBreakdown, FitnessEvaluator
from .scheduler import ExecutionScheduler, FlatGraph, ScheduledNode, ScheduleResult
from .search import (
    EvolutionaryStrategy,
    GenerationStats,
    MapperEngine,
    NMPConfig,
    NMPResult,
    RandomSearchStrategy,
    SearchContext,
    SearchStrategy,
)

__all__ = [
    "Assignment",
    "MappingCandidate",
    "ExecutionScheduler",
    "FlatGraph",
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
]
