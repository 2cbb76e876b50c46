"""Benchmark: columnar COO data plane — render and merge throughput.

Two sections, both measured against the per-frame reference paths kept in
``src`` as oracles:

* **render** — events-rendered/sec of the one-pass
  :meth:`~repro.core.e2sf.Event2SparseFrameConverter.convert_stack`
  (single sort/group pass over the whole recording, zero-copy
  :class:`~repro.frames.stack.FrameStack` views) vs the per-interval ×
  per-bin :meth:`~repro.core.e2sf.Event2SparseFrameConverter.
  convert_sequence` loop.  Tiers are total event bins per recording; the
  ≥ 3x acceptance gate is asserted at the 1024-bin tier.
* **merge** — frames-merged/sec of the segmented
  :meth:`~repro.frames.stack.FrameStack.merge_groups` dispatch kernel
  (all buckets reduced in one grouped pass) vs one
  :meth:`~repro.frames.sparse.SparseFrame.add_reference`
  (``np.unique`` + ``bincount`` round trip) per bucket.  Tiers are bucket
  counts per dispatch batch, in the paper's sparse regime (~0.6 %
  occupancy, merge buckets of 4); the ≥ 2x cAdd gate is asserted at the
  512-bucket tier.  cAverage is reported alongside without a gate.

Every timed cell first asserts the fast path is bit-identical to its
oracle — a benchmark of a wrong kernel is worthless.  Both sections write
into one committed ``BENCH_dataplane.json`` (rows tagged by section).

Environment knobs (used by the CI smoke job):

* ``DATAPLANE_RENDER_TIERS`` — comma-separated total-bin tiers (default
  ``256,1024``).  CI runs the smallest tiers only, which skips the gates.
* ``DATAPLANE_MERGE_TIERS`` — comma-separated bucket-count tiers (default
  ``128,512``).
* ``DATAPLANE_REPEATS`` — timing repeats per cell (default 5).
"""

from __future__ import annotations

import os
import time

import numpy as np

from bench_utils import write_bench_json
from repro.core import Event2SparseFrameConverter
from repro.events import EventStream, SensorGeometry
from repro.experiments import format_table
from repro.frames import FrameStack, SparseFrame


def _tiers(env_var: str, default: str):
    return tuple(
        int(tier)
        for tier in os.environ.get(env_var, default).split(",")
        if tier.strip()
    )


RENDER_TIERS = _tiers("DATAPLANE_RENDER_TIERS", "256,1024")
MERGE_TIERS = _tiers("DATAPLANE_MERGE_TIERS", "128,512")
REPEATS = int(os.environ.get("DATAPLANE_REPEATS", "5"))

NUM_BINS = 4  # E2SF bins per grayscale interval
RENDER_GATE_TIER = 1024  # total bins
RENDER_GATE = 3.0
RENDER_EVENTS = 100_000
RENDER_GEOMETRY = (128, 128)  # (height, width)

MERGE_GATE_TIER = 512  # buckets per dispatch batch
MERGE_GATE = 2.0
MERGE_BUCKET_FRAMES = 4  # MBsize
MERGE_NNZ = 30  # active sites per frame: ~0.6 % of an 80x60 frame
MERGE_GEOMETRY = (60, 80)


def _best(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _frames_bit_identical(a: SparseFrame, b: SparseFrame) -> bool:
    return (
        (a.height, a.width) == (b.height, b.width)
        and a.t_start == b.t_start
        and a.t_end == b.t_end
        and np.array_equal(a.rows, b.rows)
        and np.array_equal(a.cols, b.cols)
        and np.array_equal(a.pos, b.pos)
        and np.array_equal(a.neg, b.neg)
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
def _render_workload(total_bins: int, seed: int = 0):
    height, width = RENDER_GEOMETRY
    geometry = SensorGeometry(width=width, height=height)
    rng = np.random.default_rng(seed)
    n = RENDER_EVENTS
    stream = EventStream(
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        np.sort(rng.uniform(0.0, 2.0, n)),
        rng.choice([-1, 1], n),
        geometry,
    )
    num_intervals = total_bins // NUM_BINS
    timestamps = np.linspace(0.0, 2.0, num_intervals + 1)
    return stream, timestamps


def _merge_workload(num_buckets: int, seed: int = 1):
    height, width = MERGE_GEOMETRY
    rng = np.random.default_rng(seed)
    frames = []
    for i in range(num_buckets * MERGE_BUCKET_FRAMES):
        nnz = int(rng.integers(max(1, MERGE_NNZ // 2), MERGE_NNZ + 1))
        flat = rng.choice(height * width, size=nnz, replace=False)
        frames.append(
            SparseFrame(
                (flat // width).astype(np.int32),
                (flat % width).astype(np.int32),
                rng.integers(0, 5, nnz).astype(np.float64),
                rng.integers(0, 5, nnz).astype(np.float64),
                height,
                width,
                i * 0.001,
                (i + 1) * 0.001,
            )
        )
    return [
        frames[i * MERGE_BUCKET_FRAMES : (i + 1) * MERGE_BUCKET_FRAMES]
        for i in range(num_buckets)
    ]


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _render_rows(benchmark):
    converter = Event2SparseFrameConverter(NUM_BINS)
    rows = []
    for total_bins in RENDER_TIERS:
        stream, timestamps = _render_workload(total_bins)
        stack = converter.convert_stack(stream, timestamps)
        oracle = [
            f
            for interval in converter.convert_sequence(stream, list(timestamps))
            for f in interval
        ]
        assert len(stack) == len(oracle) == total_bins
        assert all(
            _frames_bit_identical(view, ref)
            for view, ref in zip(stack.frames(), oracle)
        ), f"render tier {total_bins}: stack path diverged from the oracle"

        if total_bins == max(RENDER_TIERS):
            benchmark.pedantic(
                lambda: converter.convert_stack(stream, timestamps),
                iterations=1,
                rounds=1,
            )
        t_stack = _best(lambda: converter.convert_stack(stream, timestamps))
        t_oracle = _best(
            lambda: converter.convert_sequence(stream, list(timestamps))
        )
        rows.append(
            {
                "section": "render",
                "tier": total_bins,
                "events": len(stream),
                "stack_ev_per_s": len(stream) / t_stack,
                "oracle_ev_per_s": len(stream) / t_oracle,
                "speedup": t_oracle / t_stack,
            }
        )
    return rows


def _merge_rows():
    rows = []
    for num_buckets in MERGE_TIERS:
        groups = _merge_workload(num_buckets)
        for frame in (f for group in groups for f in group):
            frame.flat_keys()  # warm the key caches (stack views carry them)
        num_frames = num_buckets * MERGE_BUCKET_FRAMES

        merged = FrameStack.merge_groups(groups)
        reference = [SparseFrame.add_reference(group) for group in groups]
        assert all(
            _frames_bit_identical(view, ref)
            for view, ref in zip(merged.frames(), reference)
        ), f"merge tier {num_buckets}: segmented kernel diverged from the oracle"
        averaged = FrameStack.merge_groups(groups, average=True)
        assert all(
            _frames_bit_identical(view, SparseFrame.average(group))
            for view, group in zip(averaged.frames(), groups)
        )

        t_segmented = _best(lambda: FrameStack.merge_groups(groups))
        t_oracle = _best(
            lambda: [SparseFrame.add_reference(group) for group in groups]
        )
        t_average = _best(lambda: FrameStack.merge_groups(groups, average=True))
        rows.append(
            {
                "section": "merge",
                "tier": num_buckets,
                "frames": num_frames,
                "cadd_frames_per_s": num_frames / t_segmented,
                "oracle_frames_per_s": num_frames / t_oracle,
                "caverage_frames_per_s": num_frames / t_average,
                "cadd_speedup": t_oracle / t_segmented,
            }
        )
    return rows


def test_dataplane_throughput(benchmark):
    render_rows = _render_rows(benchmark)
    merge_rows = _merge_rows()

    print("\n=== Columnar render: events-rendered/sec (convert_stack vs loop) ===")
    print(
        format_table(
            render_rows,
            ["tier", "events", "stack_ev_per_s", "oracle_ev_per_s", "speedup"],
        )
    )
    print("\n=== DSFA merge: frames-merged/sec (merge_groups vs per-bucket) ===")
    print(
        format_table(
            merge_rows,
            [
                "tier",
                "frames",
                "cadd_frames_per_s",
                "oracle_frames_per_s",
                "caverage_frames_per_s",
                "cadd_speedup",
            ],
        )
    )

    for row in render_rows:
        assert row["stack_ev_per_s"] > 0
    for row in merge_rows:
        assert row["cadd_frames_per_s"] > 0

    # Acceptance gates, asserted only when the gate tier actually ran (the
    # CI smoke job runs reduced tiers and skips them).
    render_gate = next(
        (r["speedup"] for r in render_rows if r["tier"] == RENDER_GATE_TIER), None
    )
    if render_gate is not None:
        print(f"1024-bin render speedup: {render_gate:.2f}x (gate: >= {RENDER_GATE}x)")
        assert render_gate >= RENDER_GATE, (
            f"render@{RENDER_GATE_TIER} bins: {render_gate:.2f}x < {RENDER_GATE}x"
        )
    merge_gate = next(
        (r["cadd_speedup"] for r in merge_rows if r["tier"] == MERGE_GATE_TIER), None
    )
    if merge_gate is not None:
        print(f"512-bucket cAdd speedup: {merge_gate:.2f}x (gate: >= {MERGE_GATE}x)")
        assert merge_gate >= MERGE_GATE, (
            f"merge@{MERGE_GATE_TIER} buckets: {merge_gate:.2f}x < {MERGE_GATE}x"
        )

    write_bench_json(
        "dataplane",
        render_rows + merge_rows,
        meta={
            "render_tiers": list(RENDER_TIERS),
            "merge_tiers": list(MERGE_TIERS),
            "repeats": REPEATS,
            "num_bins": NUM_BINS,
            "render_events": RENDER_EVENTS,
            "render_geometry": list(RENDER_GEOMETRY),
            "merge_bucket_frames": MERGE_BUCKET_FRAMES,
            "merge_nnz_per_frame": MERGE_NNZ,
            "merge_geometry": list(MERGE_GEOMETRY),
            "render_gate": {"tier": RENDER_GATE_TIER, "min_speedup": RENDER_GATE},
            "merge_gate": {"tier": MERGE_GATE_TIER, "min_speedup": MERGE_GATE},
        },
    )
