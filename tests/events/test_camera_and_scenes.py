"""Tests for the DVS camera simulator and the synthetic scene generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import (
    DVSCamera,
    DroneFlightScene,
    DrivingScene,
    GrayscaleFrame,
    MovingBarsScene,
    RotatingDiskScene,
    SceneGroundTruth,
    SceneSequence,
    SensorGeometry,
)


@pytest.fixture(scope="module")
def geometry():
    return SensorGeometry(width=64, height=48)


class TestDVSCamera:
    def test_static_scene_produces_no_events(self, geometry):
        camera = DVSCamera(geometry=geometry, seed=0)
        frame = np.full((48, 64), 0.5)
        out = camera.simulate([frame, frame, frame], [0.0, 0.1, 0.2])
        assert len(out.events) == 0
        assert len(out.frames) == 3

    def test_brightness_increase_gives_positive_events(self, geometry):
        camera = DVSCamera(geometry=geometry, seed=0)
        dark = np.full((48, 64), 0.2)
        bright = dark.copy()
        bright[10:20, 10:20] = 0.9
        out = camera.simulate([dark, bright], [0.0, 0.1])
        assert len(out.events) > 0
        assert np.all(out.events.p == 1)
        assert np.all(out.events.x >= 10) and np.all(out.events.x < 20)
        assert np.all(out.events.y >= 10) and np.all(out.events.y < 20)

    def test_brightness_decrease_gives_negative_events(self, geometry):
        camera = DVSCamera(geometry=geometry, seed=0)
        bright = np.full((48, 64), 0.9)
        dark = bright.copy()
        dark[5:15, 5:15] = 0.2
        out = camera.simulate([bright, dark], [0.0, 0.1])
        assert len(out.events) > 0
        assert np.all(out.events.p == -1)

    def test_larger_contrast_threshold_fewer_events(self):
        geo_low = SensorGeometry(width=64, height=48, contrast_threshold=0.1)
        geo_high = SensorGeometry(width=64, height=48, contrast_threshold=0.4)
        scene = MovingBarsScene(geometry=geo_low, duration=0.3, seed=0).generate()
        out_low = DVSCamera(geometry=geo_low, seed=0).simulate(scene.frames, scene.timestamps)
        out_high = DVSCamera(geometry=geo_high, seed=0).simulate(scene.frames, scene.timestamps)
        assert len(out_high.events) < len(out_low.events)

    def test_timestamps_within_interval(self, geometry):
        scene = MovingBarsScene(geometry=geometry, duration=0.3, seed=0).generate()
        out = DVSCamera(geometry=geometry, seed=0).simulate(scene.frames, scene.timestamps)
        assert out.events.t_start >= 0.0
        assert out.events.t_end <= scene.timestamps[-1] + 0.1

    def test_rejects_mismatched_inputs(self, geometry):
        camera = DVSCamera(geometry=geometry)
        frame = np.full((48, 64), 0.5)
        with pytest.raises(ValueError):
            camera.simulate([frame, frame], [0.0])
        with pytest.raises(ValueError):
            camera.simulate([frame], [0.0])
        with pytest.raises(ValueError):
            camera.simulate([frame, np.zeros((10, 10))], [0.0, 0.1])
        with pytest.raises(ValueError):
            camera.simulate([frame, frame], [0.1, 0.1])

    def test_grayscale_frame_must_be_two_dimensional(self):
        GrayscaleFrame(0.0, np.zeros((4, 4)))
        with pytest.raises(ValueError):
            GrayscaleFrame(0.0, np.zeros((2, 4, 4)))

    def test_rejects_bad_interpolation_steps(self, geometry):
        with pytest.raises(ValueError):
            DVSCamera(geometry=geometry, interpolation_steps=0)

    def test_deterministic_given_seed(self, geometry):
        scene = MovingBarsScene(geometry=geometry, duration=0.2, seed=0).generate()
        out1 = DVSCamera(geometry=geometry, seed=5).simulate(scene.frames, scene.timestamps)
        out2 = DVSCamera(geometry=geometry, seed=5).simulate(scene.frames, scene.timestamps)
        assert out1.events == out2.events


class TestScenes:
    def test_moving_bars_ground_truth_flow_matches_speed(self, geometry):
        speed = 40.0
        frame_rate = 30.0
        scene = MovingBarsScene(
            geometry=geometry, duration=0.3, frame_rate=frame_rate, speed=speed, seed=0
        ).generate()
        gt = scene.ground_truth[0]
        moving = np.abs(gt.flow[0]) > 0
        assert moving.any()
        expected = speed / frame_rate
        assert np.allclose(np.abs(gt.flow[0][moving]), expected)

    def test_scene_sequence_shapes(self, geometry):
        scene = DrivingScene(geometry=geometry, duration=0.3, seed=1).generate()
        assert len(scene.frames) == scene.timestamps.size
        assert len(scene.ground_truth) == len(scene.frames) - 1
        for frame in scene.frames:
            assert frame.shape == (geometry.height, geometry.width)
        for gt in scene.ground_truth:
            assert gt.flow.shape == (2, geometry.height, geometry.width)
            assert gt.depth.shape == (geometry.height, geometry.width)
            assert gt.segmentation.shape == (geometry.height, geometry.width)

    def test_scene_sequence_validates_lengths(self):
        frames = [np.zeros((4, 4))] * 3
        gt = SceneGroundTruth(np.zeros((2, 4, 4)), np.zeros((4, 4)), np.zeros((4, 4)))
        SceneSequence(frames, np.arange(3.0), [gt, gt])
        with pytest.raises(ValueError):
            SceneSequence(frames, np.arange(2.0), [gt, gt])
        with pytest.raises(ValueError):
            SceneSequence(frames, np.arange(3.0), [gt])

    def test_drone_scene_activity_envelope(self, geometry):
        scene = DroneFlightScene(geometry=geometry, duration=0.5, seed=0)
        assert scene.activity(0.0) == 1.0
        assert scene.activity(scene.burst_period * 0.9) == pytest.approx(0.05)

    def test_drone_scene_is_burstier_than_bars(self, geometry):
        drone = DroneFlightScene(geometry=geometry, duration=1.0, seed=0).generate()
        camera = DVSCamera(geometry=geometry, seed=0)
        out = camera.simulate(drone.frames, drone.timestamps)
        density = out.events.temporal_density(0.05)
        # Bursty: max window count should be much larger than the median.
        assert density.max() > 3 * max(np.median(density), 1)

    def test_rotating_disk_scene_generates_events(self, geometry):
        scene = RotatingDiskScene(geometry=geometry, duration=0.3, seed=0).generate()
        out = DVSCamera(geometry=geometry, seed=0).simulate(scene.frames, scene.timestamps)
        assert len(out.events) > 0

    def test_segmentation_labels_present(self, geometry):
        scene = DrivingScene(geometry=geometry, duration=0.2, seed=1).generate()
        labels = np.unique(scene.ground_truth[0].segmentation)
        assert 0 in labels
        assert labels.size > 1

    def test_depth_finite_on_objects(self, geometry):
        scene = DrivingScene(geometry=geometry, duration=0.2, seed=1).generate()
        depth = scene.ground_truth[0].depth
        assert np.isfinite(depth).any()
        assert np.isinf(depth).any()

    def test_invalid_scene_parameters(self, geometry):
        with pytest.raises(ValueError):
            MovingBarsScene(geometry=geometry, duration=0.0)
        with pytest.raises(ValueError):
            MovingBarsScene(geometry=geometry, frame_rate=0.0)
