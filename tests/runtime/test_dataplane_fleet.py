"""Fleet-level equivalence of the columnar data plane.

The acceptance bar for the FrameStack render path: frames from
``StreamSource.generate_stack`` (one shared ``convert_stack`` render per
sequence and bin count, sliced per stream for churn) must be bit-identical
to ``generate_frames_reference`` (the per-interval ``convert`` loop kept in
``tests/oracles``, rendered afresh for every stream) across every built-in
scenario family.  The
end-to-end stack transport extends the bar: the production runtime and the
fully per-frame reference transport (reference render, frame objects,
reference DSFA) must produce identical ``MultiStreamReport`` aggregates on
every family and on a seeded 256-stream DSFA fleet.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core  # noqa: F401  (import order: runtime pulls core.nmp lazily)
from repro.hw import jetson_xavier_agx
from repro.runtime import MultiStreamSimulator
from repro.scenarios import default_registry

from oracles.runtime import PerFrameReferenceSimulator, generate_frames_reference

SMALL = dict(num_streams=3, duration=0.3, scale=0.1, num_bins=4)


@pytest.fixture(scope="module")
def registry():
    return default_registry()


@pytest.fixture(scope="module")
def platform():
    return jetson_xavier_agx()


def frames_bit_identical(a, b):
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.t_start == b.t_start
        and a.t_end == b.t_end
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.pos, b.pos)
        and np.array_equal(a.neg, b.neg)
    )


class TestStackRenderEquivalence:
    def test_all_families_render_bit_identical(self, registry):
        assert len(registry.families()) >= 6
        for family in registry.families():
            sources = registry.compile(family, **SMALL)
            for source in sources:
                stack, _ = source.generate_stack()
                arrivals = source.arrival_times()
                oracle_frames = generate_frames_reference(source)
                assert len(arrivals) == len(oracle_frames), (family, source.name)
                for i, (t_ref, f_ref) in enumerate(oracle_frames):
                    assert arrivals[i] == t_ref, (family, source.name, i)
                    assert frames_bit_identical(stack.frame(i), f_ref), (
                        family,
                        source.name,
                        i,
                    )

    def test_stop_time_respected_on_both_paths(self, registry):
        # Churn streams leave mid-footage: the stack path must clip the
        # same arrivals the reference loop clips.
        sources = registry.compile("churn", **SMALL)
        churned = [s for s in sources if s.stop_time is not None]
        assert churned
        for source in churned:
            arrivals = source.arrival_times()
            assert arrivals == [t for t, _ in generate_frames_reference(source)]
            assert all(t <= source.stop_time for t in arrivals)


def _aggregates(report):
    return (
        report.num_streams,
        report.total_inferences,
        report.frames_generated,
        report.frames_dropped,
        report.total_energy,
        report.makespan,
        report.mean_latency,
        report.throughput,
    )


class TestFleetAggregatesUnchanged:
    def test_256_stream_dsfa_fleet(self, registry, platform):
        fleet = dict(num_streams=256, duration=0.25, scale=0.1, num_bins=4, seed=42)

        sources = registry.compile("mixed_fleet", **fleet)
        stack_report = MultiStreamSimulator(platform, sources).run()
        # The fully pre-columnar pipeline: oracle render, per-frame
        # transport, reference DSFA.
        oracle_report = PerFrameReferenceSimulator(platform, sources).run()

        assert stack_report.num_streams == 256
        assert stack_report.total_inferences > 0
        assert _aggregates(stack_report) == _aggregates(oracle_report)

    def test_all_families_aggregates_identical_across_dataplanes(
        self, registry, platform
    ):
        for family in registry.families():
            sources = registry.compile(family, **SMALL)
            stack = MultiStreamSimulator(platform, sources).run()
            reference = PerFrameReferenceSimulator(platform, sources).run()
            assert _aggregates(stack) == _aggregates(reference), family
