"""Network Mapper (NMP): pluggable layer-to-PE mapping search with precision choice."""

from .candidate import Assignment, MappingCandidate
from .objective import FitnessBreakdown, FitnessEvaluator
from .scheduler import ExecutionScheduler, FlatGraph, ScheduledNode, ScheduleResult
from .search import (
    EvolutionaryStrategy,
    GenerationStats,
    GreedyLayerwiseStrategy,
    MapperEngine,
    NMPConfig,
    NMPResult,
    RandomSearchStrategy,
    STRATEGIES,
    SearchContext,
    SearchStrategy,
    SimulatedAnnealingStrategy,
    make_strategy,
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
    "SimulatedAnnealingStrategy",
    "GreedyLayerwiseStrategy",
    "STRATEGIES",
    "make_strategy",
]
