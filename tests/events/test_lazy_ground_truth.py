"""Ground truth painted on first read, against the eager painter it replaced.

Scenes paint each interval's ground truth the first time it is read, with
scalar ``math`` rectangle bounds; :func:`oracles.events.
paint_ground_truth_eager` paints every interval up front with ``np.clip``
bounds.  Both must give equal arrays on every scene class and every named
sequence, ``len()`` must paint nothing, and reading ground truth must not
change the rendered frames or events.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles.events import paint_ground_truth_eager
from repro.events import (
    DroneFlightScene,
    DrivingScene,
    MovingBarsScene,
    RotatingDiskScene,
    SensorGeometry,
    available_sequences,
    generate_sequence,
)
from repro.events.synthetic import _ObjectScene

GEOMETRY = SensorGeometry(width=40, height=30)
SCENES = {
    "moving_bars": lambda: MovingBarsScene(GEOMETRY, duration=2.0, seed=0),
    "drone_flight": lambda: DroneFlightScene(GEOMETRY, duration=2.0, seed=1),
    "driving": lambda: DrivingScene(GEOMETRY, duration=2.0, seed=2),
    "rotating_disk": lambda: RotatingDiskScene(GEOMETRY, duration=1.0, seed=3),
}
SEQUENCE_ARGS = dict(scale=0.1, seed=0)


def assert_ground_truth_equal(lazy, eager):
    assert len(lazy) == len(eager) > 0
    for i, expected in enumerate(eager):
        painted = lazy[i]
        for field in ("flow", "depth", "segmentation"):
            a, b = getattr(painted, field), getattr(expected, field)
            assert a.dtype == b.dtype, (i, field)
            assert np.array_equal(a, b), (i, field)


def clips_a_rectangle(scene, timestamps):
    """True when some rectangle leaves the image at some interval start, so
    the clipped bounds are exercised, not only the in-range ones."""
    w, h = scene.geometry.width, scene.geometry.height
    for t in timestamps[:-1]:
        for obj in scene._objects_at(float(t)):
            cx, cy = obj.position(float(t))
            if obj.shape == "rect" and (
                cx - obj.size_x < 0
                or cx + obj.size_x > w
                or cy - obj.size_y < 0
                or cy + obj.size_y > h
            ):
                return True
    return False


@pytest.fixture
def paint_counter(monkeypatch):
    """Counts every interval a scene paints."""
    calls = []
    original = _ObjectScene.ground_truth_at

    def counting(self, t):
        calls.append(t)
        return original(self, t)

    monkeypatch.setattr(_ObjectScene, "ground_truth_at", counting)
    return calls


@pytest.mark.parametrize("scene_name", sorted(SCENES))
def test_scene_ground_truth_equals_eager_painter(scene_name):
    scene = SCENES[scene_name]()
    sequence = scene.generate()
    eager = paint_ground_truth_eager(scene, sequence.timestamps)
    assert_ground_truth_equal(sequence.ground_truth, eager)


@pytest.mark.parametrize("name", available_sequences())
def test_named_sequence_ground_truth_equals_eager_painter(name):
    sequence = generate_sequence(name, **SEQUENCE_ARGS)
    lazy = sequence.ground_truth
    eager = paint_ground_truth_eager(lazy.scene, lazy.timestamps)
    assert_ground_truth_equal(lazy, eager)


def test_comparisons_cover_seven_recordings_and_clipped_rectangles():
    assert len(available_sequences()) == 7
    for scene_name in ("drone_flight", "driving"):
        scene = SCENES[scene_name]()
        assert clips_a_rectangle(scene, scene.generate().timestamps), scene_name
    lazy = generate_sequence("outdoor_day1", **SEQUENCE_ARGS).ground_truth
    assert clips_a_rectangle(lazy.scene, lazy.timestamps)


def test_len_paints_nothing(paint_counter):
    sequence = generate_sequence("indoor_flying2", **SEQUENCE_ARGS)
    assert len(sequence.ground_truth) == sequence.num_intervals > 2
    assert paint_counter == []

    first = sequence.ground_truth[2]
    assert len(paint_counter) == 1
    # A painted interval is kept: reading it again paints nothing.
    assert sequence.ground_truth[2] is first
    assert sequence.interval(2).ground_truth[0] is first
    assert len(paint_counter) == 1

    last = sequence.ground_truth[-1]
    assert last is sequence.ground_truth[sequence.num_intervals - 1]
    with pytest.raises(IndexError):
        sequence.ground_truth[sequence.num_intervals]
    assert len(sequence.ground_truth[1:3]) == 2


@pytest.mark.parametrize("name", ["indoor_flying3", "outdoor_day1", "high_speed_disk"])
def test_events_identical_whether_ground_truth_read_before_after_or_never(
    name, monkeypatch
):
    never = generate_sequence(name, **SEQUENCE_ARGS)

    after = generate_sequence(name, **SEQUENCE_ARGS)
    list(after.ground_truth)

    # Paint every interval inside the scene factory, before the camera runs.
    original = _ObjectScene.generate

    def generate_and_paint(self):
        scene = original(self)
        list(scene.ground_truth)
        return scene

    monkeypatch.setattr(_ObjectScene, "generate", generate_and_paint)
    before = generate_sequence(name, **SEQUENCE_ARGS)

    for other in (after, before):
        for column in ("x", "y", "t", "p"):
            assert np.array_equal(
                getattr(other.events, column), getattr(never.events, column)
            ), column
        assert len(other.frames) == len(never.frames)
        for a, b in zip(other.frames, never.frames):
            assert a.timestamp == b.timestamp
            assert np.array_equal(a.image, b.image)
