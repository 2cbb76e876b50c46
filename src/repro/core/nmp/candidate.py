"""Mapping candidates for the Network Mapper's evolutionary search.

A candidate assigns every compute layer of the multi-task graph to one
processing element and one precision supported by that element (paper
Section 4.3.1).  Candidates know how to generate themselves randomly, mutate
and produce a hashable key of the whole mapping (the runtime's cost-model
signatures and Figure 10's ``best_key`` read it).  The fitness cache keys
a candidate by its row instead (:meth:`~.objective.FitnessEvaluator.key`):
the same mapping, gathered in the flattened graph's order without sorting.

What a random or mutated candidate may choose depends only on the graph and
the platform, so it is compiled once into a :class:`ChoiceTable` that lives
on the graph (:meth:`~repro.nn.graph.MultiTaskGraph.compiled`).  Each PE's
choices are built once, and nodes that the same PEs can run share them.
Generation reads the table and consumes the RNG exactly as a walk over the
graph would: one ``integers`` call per PE draw and one per precision draw,
in node order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

import numpy as np

from ...hw.pe import Platform
from ...nn.graph import MultiTaskGraph
from ...nn.quantization import Precision

__all__ = ["Assignment", "ChoiceTable", "MappingCandidate"]


@dataclass(frozen=True)
class Assignment:
    """Placement of one layer: which device and at which precision.

    ``key`` is the ``(pe, precision value)`` pair, computed once: candidate
    keys and the scheduler's option lookups hash it instead of the
    :class:`Precision` enum.
    """

    pe: str
    precision: Precision
    key: Tuple[str, str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "key", (self.pe, self.precision.value))


# One node's choices: per capable PE (platform order) its assignments in
# ``supported_precisions`` order, and per PE its highest-precision one.
_Options = Tuple[Tuple[Assignment, ...], ...]
_Highest = Tuple[Assignment, ...]


class ChoiceTable:
    """Every compute node's (PE, precision) choices on one platform.

    ``choices`` maps each compute node, in topological order, to its
    ``(options, highest)``: ``options[j]`` holds the assignments of the
    ``j``-th PE that can run the node, one per supported precision, and
    ``highest[j]`` that PE's highest-precision assignment.  Assignments are
    interned per ``(PE, precision)``: they are frozen, so candidates share
    them.  Each PE's row and highest assignment are built once, and nodes
    with the same capable-PE list share one ``(options, highest)`` entry.
    """

    __slots__ = ("choices",)

    def __init__(self, graph: MultiTaskGraph, platform: Platform) -> None:
        interned: Dict[Tuple[str, Precision], Assignment] = {}

        def intern(pe_name: str, precision: Precision) -> Assignment:
            return interned.setdefault(
                (pe_name, precision), Assignment(pe_name, precision)
            )

        rows = {
            pe.name: (
                tuple(intern(pe.name, p) for p in pe.supported_precisions),
                intern(pe.name, pe.highest_supported_precision()),
            )
            for pe in platform
        }
        # Capable-PE names -> the one (options, highest) entry they share.
        entries: Dict[Tuple[str, ...], Tuple[_Options, _Highest]] = {}
        self.choices: Dict[str, Tuple[_Options, _Highest]] = {}
        for node in graph.compute_nodes():
            pes = tuple(pe.name for pe in platform.candidates_for(graph.spec(node)))
            entry = entries.get(pes)
            if entry is None:
                entry = entries[pes] = (
                    tuple(rows[pe][0] for pe in pes),
                    tuple(rows[pe][1] for pe in pes),
                )
            self.choices[node] = entry

    @staticmethod
    def of(graph: MultiTaskGraph, platform: Platform) -> "ChoiceTable":
        """The table of ``graph`` on ``platform``, built once per pair."""
        return graph.compiled(ChoiceTable, platform)


def _draw(
    integers,
    options: _Options,
    highest: _Highest,
    full_precision_only: bool,
) -> Assignment:
    """One node's redraw: a PE, then (unless full precision only) its precision.

    Each draw is one ``integers`` call, and the precision draw's bound is
    the precision count of the PE drawn just before it.
    """
    pe = integers(len(options))
    if full_precision_only:
        return highest[pe]
    precisions = options[pe]
    return precisions[integers(len(precisions))]


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

        Per compute node in topological order, one draw picks a capable PE
        and, unless ``full_precision_only``, a second draw one of its
        precisions; ``full_precision_only`` takes the highest precision the
        PE supports (the Ev-Edge-NMP-FP variant).
        """
        choices = ChoiceTable.of(graph, platform).choices
        integers = rng.integers
        return cls(
            {
                node: _draw(integers, options, highest, full_precision_only)
                for node, (options, highest) in choices.items()
            }
        )

    @classmethod
    def uniform(
        cls,
        graph: MultiTaskGraph,
        pe_name: str,
        precision: Precision,
    ) -> "MappingCandidate":
        """Map every compute node to the same device and precision."""
        assignment = Assignment(pe_name, precision)
        return cls(dict.fromkeys(graph.compute_nodes(), assignment))

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.assignments)

    def __getitem__(self, node: str) -> Assignment:
        return self.assignments[node]

    def __contains__(self, node: str) -> bool:
        return node in self.assignments

    def key(self) -> Tuple:
        """Hashable identity of the whole mapping.

        The sorted ``(node, pe, precision value)`` triples.  Cost-model
        signatures compare mappings by it; the fitness cache uses the
        cheaper row key of :meth:`~.objective.FitnessEvaluator.key`.
        """
        assignments = self.assignments
        return tuple(
            [(node,) + assignments[node].key for node in sorted(assignments)]
        )

    def copy(self) -> "MappingCandidate":
        """Independent copy of the candidate."""
        return MappingCandidate(self.assignments)

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
        choice".  One ``choice`` draw picks the layers among the candidate's
        nodes (in its insertion order); each is then redrawn as in
        :meth:`random`.
        """
        child = self.copy()
        assignments = child.assignments
        nodes = list(assignments)
        if not nodes:
            return child
        num_mutations = min(max(num_mutations, 0), len(nodes))
        chosen = rng.choice(len(nodes), size=num_mutations, replace=False)
        choices = ChoiceTable.of(graph, platform).choices
        integers = rng.integers
        for idx in chosen.tolist():
            node = nodes[idx]
            assignments[node] = _draw(
                integers, *choices[node], full_precision_only=full_precision_only
            )
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
