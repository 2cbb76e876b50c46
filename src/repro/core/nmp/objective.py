"""Fitness evaluation for mapping candidates (paper Equation 2).

The objective minimises the maximum task latency subject to every task's
accuracy degradation staying below a threshold:

    min  max_i Latency(T_i)
    s.t. dA_1, dA_2, ..., dA_n <= dA

Latency comes from the list scheduler (:mod:`.scheduler`), which prices
each layer from the platform's per-layer cost table
(:class:`~repro.hw.profiler.LayerCostTable`); the accuracy
degradation of a task is measured by quantizing its surrogate per the
candidate's layer precisions and evaluating it on a sampled subset of the
validation set (:class:`~repro.nn.accuracy.TaskAccuracyEvaluator`).
Infeasible candidates are penalised proportionally to their constraint
violation rather than rejected, which keeps the evolutionary search able to
traverse the boundary of the feasible region.

Two caches keep the search cheap, mirroring the paper's caching
optimisation:

* whole-candidate fitness, keyed on the candidate's *row key*: its compute
  nodes' ``(pe, precision value)`` pairs in the flattened graph's order
  (:meth:`FitnessEvaluator.key`).  A lookup gathers the row once
  (:attr:`~.scheduler.FlatGraph.gather`) and hashes it — no sort and no
  node names — and a miss hands the same row to the list scheduler;
* **delta evaluation** of the accuracy term: per-task degradations are keyed
  on the task's layer-precision tuple, so a child that mutates only a few
  assignments re-measures accuracy only for the tasks it actually touched
  (and only when it changed their *precisions* — device moves never
  re-trigger accuracy evaluation).  ``delta_hits`` counts the reuses.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, NamedTuple, Optional, Tuple

from ...hw.pe import Platform
from ...hw.profiler import LayerCostTable
from ...nn.accuracy import TaskAccuracyEvaluator, map_layer_precisions_to_stages
from ...nn.graph import MultiTaskGraph
from .candidate import MappingCandidate
from .scheduler import ExecutionScheduler

__all__ = ["FitnessBreakdown", "FitnessEvaluator"]

# The per-task accuracy-degradation bound dA of Equation 2.
_ACCURACY_THRESHOLD = 0.05
# Latency units of penalty per unit of accuracy-constraint violation.
_PENALTY_WEIGHT = 10.0
# Validation intervals sampled per accuracy evaluation.
_ACCURACY_SUBSET = 2

_assignment_key = attrgetter("key")


class FitnessBreakdown(NamedTuple):
    """Everything the search needs to know about one evaluated candidate."""

    fitness: float
    max_task_latency: float
    task_latencies: Dict[str, float]
    degradations: Dict[str, float]
    energy: float
    feasible: bool


class FitnessEvaluator:
    """Evaluate candidates against Equation 2 with caching.

    Parameters
    ----------
    graph, platform, table:
        The multi-task graph, the platform and the per-layer cost table the
        scheduler prices layers from.
    accuracy_evaluators:
        Optional per-task :class:`TaskAccuracyEvaluator`; tasks without one
        are treated as having zero degradation (useful to keep unit tests and
        latency-only studies fast).

    Layers run on sparse inputs (E2SF enabled), each task's degradation is
    bounded by ``dA = _ACCURACY_THRESHOLD``, an infeasible candidate's
    latency is scaled by ``1 + _PENALTY_WEIGHT * violation``, and each
    accuracy evaluation samples ``_ACCURACY_SUBSET`` validation intervals
    (the paper evaluates on a random subset to reduce search cost).
    """

    def __init__(
        self,
        graph: MultiTaskGraph,
        platform: Platform,
        table: LayerCostTable,
        accuracy_evaluators: Optional[Dict[str, TaskAccuracyEvaluator]] = None,
    ) -> None:
        self.graph = graph
        self.platform = platform
        self.table = table
        self.scheduler = ExecutionScheduler(platform, table)
        # Flattened once, here: every evaluation gathers its row from it.
        self._flat = self.scheduler.flatten(graph)
        self.accuracy_evaluators = accuracy_evaluators or {}
        # Task names, the tasks with an accuracy evaluator, and per-task
        # compute nodes in topological order, resolved once: the degradation
        # keys and per-task precision lists are on the hot path.
        self._task_names: Tuple[str, ...] = tuple(graph.task_names)
        self._measured_tasks: Tuple[str, ...] = tuple(
            name for name in self._task_names if name in self.accuracy_evaluators
        )
        self._task_nodes: Dict[str, Tuple[str, ...]] = {
            name: tuple(
                n for n in graph.compute_nodes() if graph.network_of(n) == name
            )
            for name in self._task_names
        }
        self._cache: Dict[tuple, FitnessBreakdown] = {}
        self._degradation_cache: Dict[tuple, float] = {}
        self.evaluations = 0
        self.cache_hits = 0
        self.delta_hits = 0

    # ------------------------------------------------------------------
    def _task_degradation(self, candidate: MappingCandidate, task_name: str) -> float:
        evaluator = self.accuracy_evaluators[task_name]
        assignments = candidate.assignments
        layer_precisions = tuple(
            assignments[node].precision for node in self._task_nodes[task_name]
        )
        key = (task_name, layer_precisions)
        cached = self._degradation_cache.get(key)
        if cached is not None:
            self.delta_hits += 1
            return cached
        task = self.graph.task(task_name)
        surrogate_stages = 3 if task.network.task != "object_tracking" else 2
        stage_precisions = map_layer_precisions_to_stages(
            list(layer_precisions), surrogate_stages
        )
        value = evaluator.degradation(stage_precisions, subset=_ACCURACY_SUBSET)
        self._degradation_cache[key] = value
        return value

    def key(self, candidate: MappingCandidate) -> tuple:
        """The fitness-cache key of ``candidate``: its row's assignment keys.

        Raises ``KeyError`` when ``candidate`` lacks a compute node of the
        graph; nodes outside the graph do not change the key (nor the
        fitness).
        """
        return tuple(map(_assignment_key, self._flat.gather(candidate.assignments)))

    def evaluate(self, candidate: MappingCandidate) -> FitnessBreakdown:
        """Return (cached) fitness details for ``candidate``."""
        flat = self._flat
        row = flat.gather(candidate.assignments)
        key = tuple(map(_assignment_key, row))
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.evaluations += 1
        task_latencies, energy = self.scheduler._run(flat, row, None)
        # Tasks without an accuracy evaluator have zero degradation, and
        # with none at all the violation is the 0.0 their sum would give.
        degradations = dict.fromkeys(self._task_names, 0.0)
        violation = 0.0
        if self._measured_tasks:
            for name in self._measured_tasks:
                degradations[name] = self._task_degradation(candidate, name)
            violation = sum(
                max(d - _ACCURACY_THRESHOLD, 0.0) for d in degradations.values()
            )
        feasible = violation == 0.0
        latency = max(task_latencies.values()) if task_latencies else 0.0
        fitness = latency * (1.0 + _PENALTY_WEIGHT * violation)
        breakdown = FitnessBreakdown(
            fitness=fitness,
            max_task_latency=latency,
            task_latencies=task_latencies,
            degradations=degradations,
            energy=energy,
            feasible=feasible,
        )
        self._cache[key] = breakdown
        return breakdown
