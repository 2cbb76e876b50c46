"""Mapping candidates for the Network Mapper's evolutionary search.

A candidate assigns every compute layer of the multi-task graph to one
processing element and one precision supported by that element (paper
Section 4.3.1).  Candidates know how to generate themselves randomly, mutate
and produce a hashable key for fitness caching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ...hw.pe import Platform
from ...nn.graph import MultiTaskGraph
from ...nn.quantization import Precision

__all__ = ["Assignment", "MappingCandidate"]


@dataclass(frozen=True)
class Assignment:
    """Placement of one layer: which device and at which precision."""

    pe: str
    precision: Precision


class MappingCandidate:
    """A complete mapping of every compute node to (device, precision)."""

    def __init__(self, assignments: Dict[str, Assignment]) -> None:
        self.assignments = dict(assignments)

    # ------------------------------------------------------------------
    @classmethod
    def random(
        cls,
        graph: MultiTaskGraph,
        platform: Platform,
        rng: np.random.Generator,
        full_precision_only: bool = False,
    ) -> "MappingCandidate":
        """Sample a uniformly random valid candidate.

        ``full_precision_only`` restricts the precision choice to the highest
        precision each device supports (the Ev-Edge-NMP-FP variant).
        """
        assignments: Dict[str, Assignment] = {}
        for node in graph.compute_nodes():
            spec = graph.spec(node)
            candidates = platform.candidates_for(spec)
            pe = candidates[rng.integers(len(candidates))]
            if full_precision_only:
                precision = pe.highest_supported_precision()
            else:
                precisions = list(pe.supported_precisions)
                precision = precisions[rng.integers(len(precisions))]
            assignments[node] = Assignment(pe.name, precision)
        return cls(assignments)

    @classmethod
    def uniform(
        cls,
        graph: MultiTaskGraph,
        pe_name: str,
        precision: Precision,
    ) -> "MappingCandidate":
        """Map every compute node to the same device and precision."""
        return cls(
            {node: Assignment(pe_name, precision) for node in graph.compute_nodes()}
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.assignments)

    def __getitem__(self, node: str) -> Assignment:
        return self.assignments[node]

    def __contains__(self, node: str) -> bool:
        return node in self.assignments

    def key(self) -> Tuple:
        """Hashable identity used for fitness caching."""
        return tuple(
            (node, a.pe, a.precision.value) for node, a in sorted(self.assignments.items())
        )

    def copy(self) -> "MappingCandidate":
        """Independent copy of the candidate."""
        return MappingCandidate(dict(self.assignments))

    # ------------------------------------------------------------------
    def mutate(
        self,
        graph: MultiTaskGraph,
        platform: Platform,
        rng: np.random.Generator,
        num_mutations: int = 2,
        full_precision_only: bool = False,
    ) -> "MappingCandidate":
        """Return a copy with ``num_mutations`` random layers re-assigned.

        This is the paper's mutation operator: "a specified number of layers
        in each task is replaced with a random mapping resource and precision
        choice".
        """
        child = self.copy()
        nodes = list(child.assignments)
        if not nodes:
            return child
        num_mutations = min(max(num_mutations, 0), len(nodes))
        chosen = rng.choice(len(nodes), size=num_mutations, replace=False)
        for idx in np.atleast_1d(chosen):
            node = nodes[int(idx)]
            spec = graph.spec(node)
            candidates = platform.candidates_for(spec)
            pe = candidates[rng.integers(len(candidates))]
            if full_precision_only:
                precision = pe.highest_supported_precision()
            else:
                precisions = list(pe.supported_precisions)
                precision = precisions[rng.integers(len(precisions))]
            child.assignments[node] = Assignment(pe.name, precision)
        return child

    # ------------------------------------------------------------------
    def pe_utilisation(self) -> Dict[str, int]:
        """Number of layers mapped to each device."""
        counts: Dict[str, int] = {}
        for a in self.assignments.values():
            counts[a.pe] = counts.get(a.pe, 0) + 1
        return counts

    def __repr__(self) -> str:
        return f"MappingCandidate(nodes={len(self)}, utilisation={self.pe_utilisation()})"
