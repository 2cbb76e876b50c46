"""Vectorized DVS event generation vs the dense reference loop.

``DVSCamera._generate_events`` gathers a per-interval active-pixel subset;
:func:`oracles.events.generate_events_dense` is the direct transcription of
the pixel model kept as the oracle.  Same seed, same frames → bit-identical
event arrays (values, dtypes, ordering) and identical per-pixel reference
state.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.events import generate_events_dense
from repro.events.camera import DVSCamera, _LOG_EPS
from repro.events.types import SensorGeometry


def _run(generate, geometry, frames, times, seed=42, steps=4):
    camera = DVSCamera(geometry=geometry, interpolation_steps=steps, seed=seed)
    log_frames = [np.log(np.maximum(f, 0.0) + _LOG_EPS) for f in frames]
    reference = log_frames[0].copy()
    last_event_time = np.full((geometry.height, geometry.width), -np.inf)
    out = generate(
        camera,
        log_frames,
        times,
        reference,
        last_event_time,
        geometry.contrast_threshold,
    )
    return out, reference, last_event_time


def _assert_equivalent(geometry, frames, times, seed=42, steps=4):
    vec, ref_v, let_v = _run(
        DVSCamera._generate_events, geometry, frames, times, seed, steps
    )
    dense, ref_d, let_d = _run(
        generate_events_dense, geometry, frames, times, seed, steps
    )
    for vec_chunks, dense_chunks in zip(vec, dense):
        assert len(vec_chunks) == len(dense_chunks)
        for a, b in zip(vec_chunks, dense_chunks):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)
    # The carried per-pixel state must match too, or a longer sequence
    # would diverge after the compared prefix.
    assert np.array_equal(ref_v, ref_d)
    assert np.array_equal(let_v, let_d)
    return vec


@pytest.fixture
def geometry():
    return SensorGeometry(height=32, width=48)


def _moving_edge_frames(geometry, n=12, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(0.05, 1.0, (geometry.height, geometry.width))
    frames = []
    for i in range(n):
        frame = base.copy()
        frame[:, (3 * i) % geometry.width : (3 * i) % geometry.width + 5] *= 3.0
        frames.append(frame)
    return frames


class TestVectorizedCamera:
    @pytest.mark.parametrize("steps", [1, 3, 8])
    def test_bit_identical_to_dense_loop(self, geometry, steps):
        frames = _moving_edge_frames(geometry)
        times = np.linspace(0.0, 0.5, len(frames))
        vec = _assert_equivalent(geometry, frames, times, steps=steps)
        assert sum(chunk.size for chunk in vec[0]) > 0  # events actually fired

    def test_bit_identical_under_refractory_period(self):
        geometry = SensorGeometry(height=32, width=48, refractory_period=0.08)
        frames = _moving_edge_frames(geometry, seed=3)
        times = np.linspace(0.0, 0.5, len(frames))
        _assert_equivalent(geometry, frames, times)

        # Exact refractory tie: with one sub-step per interval every pixel
        # fires at each grayscale timestamp, exactly one refractory period
        # after its previous event, which must not block it.
        tie = SensorGeometry(height=4, width=4, refractory_period=0.25)
        levels = [0.2, 0.9, 0.2, 0.9, 0.2]
        vec = _assert_equivalent(
            tie,
            [np.full((4, 4), level) for level in levels],
            np.array([0.0, 0.25, 0.5, 0.75, 1.0]),
            steps=1,
        )
        assert all(chunks for chunks in vec)

        # A pixel the refractory period blocks while the intensity runs
        # 5 theta ahead of its reference, then drifts back to 1.25 theta
        # above the start: it ends the next interval only 0.25 theta past
        # its reference but crosses several levels at the first sub-step.
        drift = SensorGeometry(height=4, width=4, refractory_period=0.03)
        theta = drift.contrast_threshold
        log_start = np.log(0.5 + _LOG_EPS)
        vec = _assert_equivalent(
            drift,
            [
                np.full((4, 4), np.exp(log_start + k * theta) - _LOG_EPS)
                for k in (0.0, 5.0, 1.25)
            ],
            np.array([0.0, 0.01, 0.21]),
            steps=4,
        )
        assert all(chunks for chunks in vec)

    def test_static_scene_emits_nothing_and_draws_no_jitter(self, geometry):
        # Identical frames: the vectorized path must skip whole intervals
        # without touching the rng, exactly like the dense loop.
        frames = [np.full((geometry.height, geometry.width), 0.4)] * 6
        times = np.linspace(0.0, 0.25, len(frames))
        vec = _assert_equivalent(geometry, frames, times)
        assert all(not chunks for chunks in vec)

    def test_simulate_output_matches_dense_end_to_end(self, geometry):
        frames = _moving_edge_frames(geometry, seed=9)
        times = np.linspace(0.0, 0.5, len(frames))
        fast = DVSCamera(geometry=geometry, seed=7).simulate(frames, times)
        slow_camera = DVSCamera(geometry=geometry, seed=7)
        slow_camera._generate_events = lambda *args: generate_events_dense(
            slow_camera, *args
        )
        slow = slow_camera.simulate(frames, times)
        assert np.array_equal(fast.events.x, slow.events.x)
        assert np.array_equal(fast.events.y, slow.events.y)
        assert np.array_equal(fast.events.t, slow.events.t)
        assert np.array_equal(fast.events.p, slow.events.p)
