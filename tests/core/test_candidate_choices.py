"""Candidate generation from compiled choice tables.

:class:`~repro.core.nmp.candidate.ChoiceTable` holds every compute node's
capable PEs and their precisions, built once per (graph, platform).
``MappingCandidate.random`` and ``mutate`` read it instead of walking the
graph; they must draw exactly as the graph-walking generators of
:mod:`oracles.nmp` do: equal assignments, in the same insertion order, with
the generator left in the same state.  They do so from a numpy generator
and from the :class:`~repro.core.nmp.candidate.DrawStream` a search draws
through, while the oracles always draw from numpy.  The list scheduler's
flattened graph takes each node's options from the same table.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.nmp.candidate import (
    Assignment,
    ChoiceTable,
    DrawStream,
    MappingCandidate,
)
from repro.core.nmp.scheduler import ExecutionScheduler
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, Precision, TaskSpec

from oracles.nmp import mutate_reference, random_candidate_reference

SEEDS = (0, 1, 7, 2024)
# What the production generators draw from: numpy's generator, or the
# search's stream over the same seed.
SOURCES = {"generator": np.random.default_rng, "stream": DrawStream}
# Spiking layers cannot run on the DLA, so their PE lists are shorter than
# the ANN layers'; the ANN-only pair gives every node the same choices.
NETWORK_SETS = {
    "spiking": ("spikeflownet", "halsie", "dotie"),
    "ann": ("evflownet", "e2depth"),
}


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


@pytest.fixture(scope="module", params=sorted(NETWORK_SETS))
def graph(request):
    return MultiTaskGraph(
        [TaskSpec(build_network(name, 64, 64)) for name in NETWORK_SETS[request.param]]
    )


def _draws_equal(produced, expected, rng, oracle_rng):
    assert list(produced.assignments.items()) == list(expected.assignments.items())
    assert produced.key() == expected.key()
    assert rng.integers(2**31) == oracle_rng.integers(2**31)


def test_network_sets_cover_both_pe_list_shapes(graph, platform):
    choices = ChoiceTable.of(graph, platform).choices
    lengths = {len(options) for options, _ in choices.values()}
    spiking = any(graph.spec(node).is_spiking for node in graph.compute_nodes())
    assert lengths == ({2, 3} if spiking else {3})


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("full_precision_only", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_random_draws_like_the_graph_walk(
    graph, platform, seed, full_precision_only, source
):
    rng, oracle_rng = SOURCES[source](seed), np.random.default_rng(seed)
    for _ in range(5):
        produced = MappingCandidate.random(
            graph, platform, rng, full_precision_only=full_precision_only
        )
        expected = random_candidate_reference(
            graph, platform, oracle_rng, full_precision_only=full_precision_only
        )
        _draws_equal(produced, expected, rng, oracle_rng)


@pytest.mark.parametrize("source", sorted(SOURCES))
@pytest.mark.parametrize("num_mutations", [0, 1, 2, 10_000])
@pytest.mark.parametrize("full_precision_only", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
def test_mutate_draws_like_the_graph_walk(
    graph, platform, seed, full_precision_only, num_mutations, source
):
    parent = random_candidate_reference(graph, platform, np.random.default_rng(99))
    # A parent whose insertion order is not topological: mutate picks its
    # layers by position in the candidate, not in the graph.
    shuffled = MappingCandidate(dict(reversed(list(parent.assignments.items()))))
    for start in (parent, shuffled):
        rng, oracle_rng = SOURCES[source](seed), np.random.default_rng(seed)
        produced, expected = start, start
        for _ in range(4):
            produced = produced.mutate(
                graph,
                platform,
                rng,
                num_mutations=num_mutations,
                full_precision_only=full_precision_only,
            )
            expected = mutate_reference(
                expected,
                graph,
                platform,
                oracle_rng,
                num_mutations=num_mutations,
                full_precision_only=full_precision_only,
            )
            _draws_equal(produced, expected, rng, oracle_rng)
        assert start.key() == parent.key()  # the parent itself is untouched


def test_mutate_of_an_empty_candidate_draws_nothing(graph, platform):
    rng, oracle_rng = np.random.default_rng(3), np.random.default_rng(3)
    produced = MappingCandidate({}).mutate(graph, platform, rng)
    expected = mutate_reference(MappingCandidate({}), graph, platform, oracle_rng)
    _draws_equal(produced, expected, rng, oracle_rng)


def test_table_lists_capable_pes_in_platform_order(graph, platform):
    table = ChoiceTable.of(graph, platform)
    assert list(table.choices) == graph.compute_nodes()
    for node, (options, highest) in table.choices.items():
        pes = platform.candidates_for(graph.spec(node))
        assert [[(a.pe, a.precision) for a in row] for row in options] == [
            [(pe.name, p) for p in pe.supported_precisions] for pe in pes
        ]
        assert [(a.pe, a.precision) for a in highest] == [
            (pe.name, pe.highest_supported_precision()) for pe in pes
        ]


def test_table_is_built_once_and_interns_assignments(graph, platform):
    table = ChoiceTable.of(graph, platform)
    assert ChoiceTable.of(graph, platform) is table
    # Another platform object gets its own table, even with equal contents.
    assert ChoiceTable.of(graph, jetson_xavier_agx()) is not table
    shared = {}
    for options, highest in table.choices.values():
        for assignment in [a for row in options for a in row] + list(highest):
            assert shared.setdefault(assignment.key, assignment) is assignment
    assert len(shared) == sum(len(pe.supported_precisions) for pe in platform)


def test_assignment_key_is_the_pe_and_precision_value():
    assignment = Assignment("dla0", Precision.FP16)
    assert assignment.key == ("dla0", "fp16")
    assert assignment == Assignment("dla0", Precision.FP16)
    assert hash(assignment) == hash(Assignment("dla0", Precision.FP16))
    assert repr(assignment) == (
        "Assignment(pe='dla0', precision=<Precision.FP16: 'fp16'>)"
    )


def test_candidate_key_matches_sorted_enum_values(graph, platform):
    candidate = MappingCandidate.random(graph, platform, np.random.default_rng(5))
    items = sorted(candidate.assignments.items())
    assert candidate.key() == tuple(
        (node, a.pe, a.precision.value) for node, a in items
    )


def test_flat_graph_options_follow_the_choice_table(graph, platform):
    # The scheduler's per-node options are the table's choices, in the
    # table's order, each priced from the cost table.
    flat = ExecutionScheduler(platform, LayerCostTable()).flatten(graph)
    choices = ChoiceTable.of(graph, platform).choices
    for name, options in zip(flat.names, flat.options):
        if options is None:
            assert name not in choices
            continue
        options_by_pe, _ = choices[name]
        assert list(options) == [
            assignment.key for precisions in options_by_pe for assignment in precisions
        ]
