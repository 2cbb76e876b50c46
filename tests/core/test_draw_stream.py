"""The NMP's draw stream against the numpy generator it reproduces.

:class:`~repro.core.nmp.candidate.DrawStream` takes ``default_rng(seed)``'s
uint32 stream in blocks and reduces it in Python.  Every ``integers`` and
``choice`` call must return what the generator's own call returns, in any
interleaving and across block refills, so a seeded search proposes the same
candidates whichever of the two it draws from (``test_candidate_choices.py``
draws whole candidates, and whole-population choices, from both).  The
stream's identity rests on numpy's ``Generator`` algorithms, so this file is
what catches a numpy release that changes them.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core import EvolutionaryStrategy, MapperEngine, NMPConfig
from repro.core.nmp.candidate import STREAM_BLOCK, DrawStream
from repro.hw import LayerCostTable, jetson_xavier_agx
from repro.models import build_network
from repro.nn import MultiTaskGraph, TaskSpec

# Small bounds as the mapper draws them, then bounds whose Lemire rejection
# rate is high (2**31 + 5 rejects about half of all draws) and the edges of
# the 32-bit path.
BOUNDS = (1, 2, 3, 5, 12, 37, 2**31 + 5, 3_000_000_000, 2**32 - 1, 2**32)
SEEDS = tuple(range(16)) + (42, 2024, 2**32 + 1, 2**63 - 1, 2**100 + 3)


def _draw_script(seed: int, calls: int):
    """A seeded interleaving of ``integers`` and ``choice`` calls."""
    script = random.Random(seed)
    for _ in range(calls):
        if script.random() < 0.3:
            n = script.randint(1, 74)
            yield "choice", n, script.randint(0, min(3, n))
        else:
            yield "integers", script.choice(BOUNDS), None


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_draws_what_the_generator_draws(seed):
    stream, generator = DrawStream(seed), np.random.default_rng(seed)
    produced, expected = [], []
    # Three blocks' worth of calls, most drawing at least one value, so
    # every seed crosses several refills mid-call.
    for call, n, k in _draw_script(seed, 3 * STREAM_BLOCK):
        if call == "choice":
            produced.append(stream.choice(n, size=k, replace=False))
            expected.append(generator.choice(n, size=k, replace=False).tolist())
        else:
            produced.append(stream.integers(n))
            expected.append(int(generator.integers(n)))
    assert produced == expected
    integers = [value for value in produced if not isinstance(value, list)]
    assert all(type(value) is int for value in integers)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda s: s.integers(0), "integers needs"),
        (lambda s: s.integers(-3), "integers needs"),
        (lambda s: s.integers(2**32 + 1), "integers needs"),
        (lambda s: s.choice(5, size=2), "without replacement"),
        (lambda s: s.choice(5, size=2, replace=True), "without replacement"),
        (lambda s: s.choice(0, size=0, replace=False), "choice needs 1 <= n"),
        (lambda s: s.choice(10_001, size=2, replace=False), "choice needs 1 <= n"),
        (lambda s: s.choice(3, size=4, replace=False), "0 <= size <= n"),
        (lambda s: s.choice(3, size=-1, replace=False), "0 <= size <= n"),
    ],
    ids=[
        "integers-zero",
        "integers-negative",
        "integers-above-2**32",
        "choice-replace-default",
        "choice-replace",
        "choice-empty-population",
        "choice-population-above-floyd",
        "choice-more-than-population",
        "choice-negative-size",
    ],
)
def test_calls_numpy_might_answer_another_way_are_rejected(call, message):
    stream = DrawStream(0)
    with pytest.raises(ValueError, match=message):
        call(stream)
    # A rejected call draws nothing.
    assert stream.integers(2**32) == np.random.default_rng(0).integers(2**32)


def test_engine_runs_draw_through_a_stream():
    platform = jetson_xavier_agx()
    graph = MultiTaskGraph([TaskSpec(build_network("dotie", 64, 64))])
    sources = []

    class Recording(EvolutionaryStrategy):
        def initial_population(self, ctx):
            sources.append(ctx.rng)
            return super().initial_population(ctx)

    engine = MapperEngine(
        graph, platform, LayerCostTable(), NMPConfig(population_size=4, generations=2)
    )
    engine.run(Recording())
    engine.run(Recording())
    assert [type(source) for source in sources] == [DrawStream, DrawStream]
    assert sources[0] is not sources[1]  # each run reseeds a stream of its own
