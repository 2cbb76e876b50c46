"""Tests for the surrogate estimators and the accuracy evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events import generate_sequence
from repro.frames import discretized_event_bins
from repro.metrics import average_endpoint_error, box_iou, mean_iou
from repro.nn import (
    DepthSurrogate,
    FlowSurrogate,
    Precision,
    SegmentationSurrogate,
    TaskAccuracyEvaluator,
    TrackingSurrogate,
    map_layer_precisions_to_stages,
)


@pytest.fixture(scope="module")
def bars_bins():
    seq = generate_sequence("calibration_bars", scale=0.25, duration=0.4, seed=0, with_noise=False)
    t0, t1 = seq.frames[0].timestamp, seq.frames[1].timestamp
    bins = discretized_event_bins(seq.events, t0, t1, 8)
    return bins, seq.ground_truth[0]


class TestFlowSurrogate:
    def test_output_shapes(self, bars_bins):
        bins, _ = bars_bins
        result = FlowSurrogate().predict(bins)
        assert result.prediction.shape == (2,) + bins.shape[2:]
        assert result.valid_mask.shape == bins.shape[2:]

    def test_flow_direction_matches_motion(self):
        # Use a window spanning several frame intervals so the bars move by
        # multiple pixels; single-interval motion is sub-pixel on this scene.
        seq = generate_sequence("calibration_bars", scale=0.25, duration=0.4, seed=0, with_noise=False)
        t0 = seq.frames[0].timestamp
        t4 = seq.frames[4].timestamp
        bins = discretized_event_bins(seq.events, t0, t4, 8)
        gt = seq.ground_truth[0]
        result = FlowSurrogate().predict(bins)
        valid = result.valid_mask & (np.abs(gt.flow[0]) > 0) & (np.abs(result.prediction[0]) > 0.1)
        assert valid.any()
        agreement = np.sign(result.prediction[0][valid]) == np.sign(gt.flow[0][valid])
        assert agreement.mean() > 0.5

    def test_aee_is_reasonable(self, bars_bins):
        bins, gt = bars_bins
        result = FlowSurrogate().predict(bins)
        aee = average_endpoint_error(result.prediction, gt.flow, result.valid_mask)
        assert np.isfinite(aee)
        assert aee < 5.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            FlowSurrogate().predict(np.zeros((4, 3, 8, 8)))

    def test_wrong_precision_count_rejected(self, bars_bins):
        bins, _ = bars_bins
        with pytest.raises(ValueError):
            FlowSurrogate().predict(bins, [Precision.FP32])

    def test_empty_bins_give_no_valid_pixels(self):
        result = FlowSurrogate().predict(np.zeros((4, 2, 16, 16)))
        assert not result.valid_mask.any()


class TestSegmentationSurrogate:
    def test_binary_mask_output(self, bars_bins):
        bins, _ = bars_bins
        result = SegmentationSurrogate().predict(bins)
        assert set(np.unique(result.prediction)).issubset({0, 1})

    def test_foreground_detected_on_moving_objects(self):
        seq = generate_sequence("indoor_flying2", scale=0.2, seed=0)
        t0, t1 = seq.frames[0].timestamp, seq.frames[1].timestamp
        bins = discretized_event_bins(seq.events, t0, t1, 8)
        result = SegmentationSurrogate().predict(bins)
        gt = (seq.ground_truth[0].segmentation > 0).astype(int)
        miou = mean_iou(result.prediction, gt, 2)
        assert miou > 30.0


class TestDepthAndTracking:
    def test_depth_positive_where_valid(self):
        seq = generate_sequence("town10", scale=0.2, seed=0)
        t0, t1 = seq.frames[0].timestamp, seq.frames[1].timestamp
        bins = discretized_event_bins(seq.events, t0, t1, 8)
        result = DepthSurrogate().predict(bins, reference_depth=seq.ground_truth[0].depth)
        assert result.prediction.shape == bins.shape[2:]
        if result.valid_mask.any():
            assert np.all(result.prediction[result.valid_mask] > 0)

    def test_tracking_box_overlaps_ground_truth(self):
        seq = generate_sequence("high_speed_disk", scale=0.2, seed=0)
        t0, t1 = seq.frames[0].timestamp, seq.frames[1].timestamp
        bins = discretized_event_bins(seq.events, t0, t1, 8)
        result = TrackingSurrogate().predict(bins)
        pred_box = TrackingSurrogate.bounding_box(result.prediction)
        gt_box = TrackingSurrogate.bounding_box(seq.ground_truth[0].segmentation > 0)
        assert box_iou(pred_box, gt_box) > 0.1

    def test_bounding_box_of_empty_mask(self):
        assert TrackingSurrogate.bounding_box(np.zeros((8, 8))) is None


class TestPrecisionMapping:
    def test_maps_min_precision_per_group(self):
        layers = [Precision.FP32, Precision.FP16, Precision.INT8, Precision.FP32]
        stages = map_layer_precisions_to_stages(layers, 2)
        assert stages == [Precision.FP16, Precision.INT8]

    def test_empty_layers_give_fp32(self):
        assert map_layer_precisions_to_stages([], 3) == [Precision.FP32] * 3

    def test_more_stages_than_layers(self):
        stages = map_layer_precisions_to_stages([Precision.INT8], 3)
        assert len(stages) == 3
        assert Precision.INT8 in stages


class TestTaskAccuracyEvaluator:
    @pytest.fixture(scope="class")
    def flow_evaluator(self):
        return TaskAccuracyEvaluator("optical_flow", scale=0.15, num_intervals=3, seed=0)

    def test_baseline_finite(self, flow_evaluator):
        assert np.isfinite(flow_evaluator.baseline())

    def test_degradation_non_negative(self, flow_evaluator):
        deg = flow_evaluator.degradation([Precision.INT8] * 3, merge_factor=2)
        assert deg >= 0.0

    def test_cache_returns_same_value(self, flow_evaluator):
        a = flow_evaluator.evaluate([Precision.INT8] * 3)
        b = flow_evaluator.evaluate([Precision.INT8] * 3)
        assert a == b

    def test_subset_evaluation(self, flow_evaluator):
        value = flow_evaluator.evaluate(subset=1)
        assert np.isfinite(value)

    def test_unknown_task_rejected(self):
        with pytest.raises(KeyError):
            TaskAccuracyEvaluator("unknown_task")

    def test_invalid_bins_rejected(self):
        with pytest.raises(ValueError):
            TaskAccuracyEvaluator("optical_flow", num_bins=0)

    def test_segmentation_evaluator_uses_miou(self):
        ev = TaskAccuracyEvaluator("semantic_segmentation", scale=0.15, num_intervals=2, seed=0)
        assert not ev.lower_is_better
        assert ev.baseline() > 0.0
