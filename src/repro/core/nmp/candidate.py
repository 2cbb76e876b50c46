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
Generation reads the table and draws exactly as a walk over the graph
would: one ``integers`` draw per PE and one per precision, in node order.

A search draws through a :class:`DrawStream`: its generator's uint32 stream,
taken in blocks of :data:`STREAM_BLOCK` values and reduced in Python with
numpy's own bounded-draw algorithms, so every draw has the value and the
position in the stream that a ``np.random.Generator`` call would give it,
without numpy's per-call overhead.  Generation accepts either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import index
from typing import Dict, Iterator, List, Tuple, Union

import numpy as np

from ...hw.pe import Platform
from ...nn.graph import MultiTaskGraph
from ...nn.quantization import Precision

__all__ = [
    "Assignment",
    "ChoiceTable",
    "DrawStream",
    "MappingCandidate",
    "STREAM_BLOCK",
]


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


#: uint32 values a :class:`DrawStream` takes from its generator per numpy
#: call.  An online remap's search consumes about 800-1,300, so one block
#: covers it; the larger searches of Figures 9 and 10 refill.
STREAM_BLOCK = 2048

_UINT32_RANGE = 1 << 32
_LOW_WORD = _UINT32_RANGE - 1
#: Above this population numpy's ``choice`` may switch from Floyd's
#: algorithm to a tail shuffle, which the stream does not reproduce.
_FLOYD_MAX_POPULATION = 10_000


def _uint32s(generator: np.random.Generator) -> Iterator[int]:
    """The generator's ``next_uint32`` values, in order, one block per numpy call."""
    while True:
        yield from generator.integers(
            0, _UINT32_RANGE, size=STREAM_BLOCK, dtype=np.uint32
        ).tolist()


class DrawStream:
    """The bounded draws of ``np.random.default_rng(seed)``, reduced in Python.

    A full-range uint32 draw hands out the bit generator's ``next_uint32``
    values in order, and those are exactly what numpy's bounded draws
    consume.  The stream takes them in blocks of :data:`STREAM_BLOCK` and
    answers the two calls the mapper makes as numpy computes them, so each
    returns the value the generator's own call would, and the draws after
    it are unchanged too:

    * ``integers(n)`` — Lemire's reduction (``n == 1`` draws nothing);
    * ``choice(n, size=k, replace=False)`` — Floyd's algorithm over
      ``integers`` draws, then numpy's shuffle of the ``k`` picks.

    Values come back as Python ints (a list for ``choice``).  Whatever
    numpy might compute another way raises ``ValueError``: ``n`` outside
    ``[1, 2**32]``, sampling with replacement, ``k`` outside ``[0, n]`` and
    populations above 10,000.  The identity rests on numpy's ``Generator``
    algorithms, which NEP 19 does not freeze across releases; the tier-1
    suite compares the stream with numpy draw for draw.
    """

    __slots__ = ("_next",)

    def __init__(self, seed: int) -> None:
        self._next = _uint32s(np.random.default_rng(seed)).__next__

    def integers(self, n: int) -> int:
        """A uniform draw from ``[0, n)``, as ``Generator.integers(n)`` makes it."""
        n = index(n)
        if not 1 < n <= _UINT32_RANGE:
            if n == 1:
                return 0
            raise ValueError(f"integers needs 1 <= n <= 2**32, got {n}")
        m = self._next() * n
        if m & _LOW_WORD < n:
            threshold = (_UINT32_RANGE - n) % n
            while m & _LOW_WORD < threshold:
                m = self._next() * n
        return m >> 32

    def choice(self, n: int, size: int, replace: bool = True) -> List[int]:
        """``size`` distinct draws from ``[0, n)``, as ``Generator.choice`` makes them.

        Only ``replace=False`` is supported; like numpy's, the default is
        ``True``, so a caller states it.
        """
        n, size = index(n), index(size)
        if replace:
            raise ValueError("a DrawStream samples without replacement only")
        if not 1 <= n <= _FLOYD_MAX_POPULATION:
            raise ValueError(
                f"choice needs 1 <= n <= {_FLOYD_MAX_POPULATION}, got {n}"
            )
        if not 0 <= size <= n:
            raise ValueError(f"choice needs 0 <= size <= n, got size={size}, n={n}")
        integers = self.integers
        chosen: List[int] = []
        # Floyd: j exceeds every earlier pick, so a repeated draw takes j.
        for j in range(n - size, n):
            drawn = integers(j + 1)
            chosen.append(j if drawn in chosen else drawn)
        # numpy then shuffles the picks in place, last place first.
        for i in range(size - 1, 0, -1):
            j = integers(i + 1)
            chosen[i], chosen[j] = chosen[j], chosen[i]
        return chosen


#: Where candidates draw from: a search's stream, or any numpy generator
#: (tests, oracles and benchmarks pass one); both give the same values.
#: The generator is named lazily, so importing this module does not load
#: ``numpy.random``.
Draws = Union[DrawStream, "np.random.Generator"]


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
        rng: Draws,
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
        rng: Draws,
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
        for idx in chosen:
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
