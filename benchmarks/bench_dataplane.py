"""Benchmark: columnar COO data plane — render and merge throughput.

Two sections, both timing the production kernels only:

* **render** — events-rendered/sec of the one-pass
  :meth:`~repro.core.e2sf.Event2SparseFrameConverter.convert_stack`
  (single sort/group pass over the whole recording, zero-copy
  :class:`~repro.frames.stack.FrameStack` views).  Tiers are total event
  bins per recording.
* **merge** — frames-merged/sec of the
  :meth:`~repro.frames.stack.FrameStack.merge_ranges` DSFA dispatch kernel
  (all buckets of a dispatch reduced in one grouped pass), in cAdd and
  cAverage.  Tiers are bucket counts per dispatch batch, in the paper's
  sparse regime (~0.6 % occupancy, merge buckets of 4).

Bit-identity of both kernels to the per-frame reference paths is pinned by
the tier-1 tests (``tests/frames``, ``tests/core/test_e2sf_dsfa.py``), so
this benchmark records the production trajectory and gates nothing.  Both
sections write into one ``BENCH_dataplane.json`` (rows tagged by section).

Environment knobs (used by the CI smoke job):

* ``DATAPLANE_RENDER_TIERS`` — comma-separated total-bin tiers (default
  ``256,1024``).
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
RENDER_EVENTS = 100_000
RENDER_GEOMETRY = (128, 128)  # (height, width)

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
    stack = FrameStack.from_frames(frames)
    stack.flat_buffer()  # rendered stacks carry their key column
    ranges = [
        (i * MERGE_BUCKET_FRAMES, (i + 1) * MERGE_BUCKET_FRAMES)
        for i in range(num_buckets)
    ]
    return stack, ranges


# ----------------------------------------------------------------------
# sections
# ----------------------------------------------------------------------
def _render_rows(benchmark):
    converter = Event2SparseFrameConverter(NUM_BINS)
    rows = []
    for total_bins in RENDER_TIERS:
        stream, timestamps = _render_workload(total_bins)
        assert len(converter.convert_stack(stream, timestamps)) == total_bins
        if total_bins == max(RENDER_TIERS):
            benchmark.pedantic(
                lambda: converter.convert_stack(stream, timestamps),
                iterations=1,
                rounds=1,
            )
        t_stack = _best(lambda: converter.convert_stack(stream, timestamps))
        rows.append(
            {
                "section": "render",
                "tier": total_bins,
                "events": len(stream),
                "stack_ev_per_s": len(stream) / t_stack,
            }
        )
    return rows


def _merge_rows():
    rows = []
    for num_buckets in MERGE_TIERS:
        stack, ranges = _merge_workload(num_buckets)
        num_frames = num_buckets * MERGE_BUCKET_FRAMES
        assert len(stack.merge_ranges(ranges)) == num_buckets
        t_add = _best(lambda: stack.merge_ranges(ranges))
        t_average = _best(lambda: stack.merge_ranges(ranges, average=True))
        rows.append(
            {
                "section": "merge",
                "tier": num_buckets,
                "frames": num_frames,
                "cadd_frames_per_s": num_frames / t_add,
                "caverage_frames_per_s": num_frames / t_average,
            }
        )
    return rows


def test_dataplane_throughput(benchmark):
    render_rows = _render_rows(benchmark)
    merge_rows = _merge_rows()

    print("\n=== Columnar render: events-rendered/sec (convert_stack) ===")
    print(format_table(render_rows, ["tier", "events", "stack_ev_per_s"]))
    print("\n=== DSFA merge: frames-merged/sec (merge_ranges) ===")
    print(
        format_table(
            merge_rows,
            ["tier", "frames", "cadd_frames_per_s", "caverage_frames_per_s"],
        )
    )

    for row in render_rows:
        assert row["stack_ev_per_s"] > 0
    for row in merge_rows:
        assert row["cadd_frames_per_s"] > 0
        assert row["caverage_frames_per_s"] > 0

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
        },
    )
