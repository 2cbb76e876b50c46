"""Tests for the accuracy metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    average_depth_error,
    average_endpoint_error,
    box_iou,
    confusion_matrix,
    geometric_mean,
    mean_iou,
)


class TestFlowMetrics:
    def test_perfect_prediction_zero_aee(self):
        flow = np.random.default_rng(0).normal(size=(2, 8, 8))
        assert average_endpoint_error(flow, flow) == 0.0

    def test_known_offset(self):
        gt = np.zeros((2, 4, 4))
        pred = np.zeros((2, 4, 4))
        pred[0] += 3.0
        pred[1] += 4.0
        assert average_endpoint_error(pred, gt) == pytest.approx(5.0)

    def test_mask_restricts_evaluation(self):
        gt = np.zeros((2, 4, 4))
        pred = np.zeros((2, 4, 4))
        pred[0, 0, 0] = 10.0
        mask = np.zeros((4, 4), dtype=bool)
        mask[1, 1] = True
        assert average_endpoint_error(pred, gt, mask) == 0.0

    def test_empty_mask_gives_nan(self):
        gt = np.zeros((2, 4, 4))
        assert np.isnan(average_endpoint_error(gt, gt, np.zeros((4, 4), dtype=bool)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            average_endpoint_error(np.zeros((2, 4, 4)), np.zeros((2, 5, 5)))
        with pytest.raises(ValueError):
            average_endpoint_error(np.zeros((3, 4, 4)), np.zeros((3, 4, 4)))

    def test_mask_shape_mismatch_rejected(self):
        flow = np.zeros((2, 4, 4))
        with pytest.raises(ValueError):
            average_endpoint_error(flow, flow, np.ones((4, 5), dtype=bool))


class TestSegmentationMetrics:
    def test_perfect_prediction(self):
        labels = np.array([[0, 1], [1, 2]])
        assert mean_iou(labels, labels) == pytest.approx(100.0)

    def test_confusion_matrix_counts(self):
        gt = np.array([0, 0, 1, 1])
        pred = np.array([0, 1, 1, 1])
        matrix = confusion_matrix(pred, gt)
        assert matrix[0, 0] == 1
        assert matrix[0, 1] == 1
        assert matrix[1, 1] == 2

    def test_half_overlap_miou(self):
        gt = np.array([[1, 1, 0, 0]])
        pred = np.array([[1, 0, 0, 0]])
        # class0: inter 2, union 3; class1: inter 1, union 2
        expected = 100 * (2 / 3 + 1 / 2) / 2
        assert mean_iou(pred, gt, 2) == pytest.approx(expected)

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.array([-1]), np.array([0]))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            confusion_matrix(np.zeros(3), np.zeros(4))
        with pytest.raises(ValueError):
            mean_iou(np.zeros((2, 2)), np.zeros((3, 3)))

    def test_empty_labels_give_nan_miou(self):
        empty = np.zeros(0, dtype=np.int64)
        assert confusion_matrix(empty, empty, 3).sum() == 0
        assert np.isnan(mean_iou(empty, empty, 3))


class TestDepthMetrics:
    def test_perfect_depth(self):
        depth = np.full((4, 4), 2.0)
        assert average_depth_error(depth, depth) == 0.0

    def test_log_error_value(self):
        gt = np.full((2, 2), 1.0)
        pred = np.full((2, 2), np.e)
        assert average_depth_error(pred, gt) == pytest.approx(1.0)

    def test_invalid_pixels_ignored(self):
        gt = np.array([[1.0, np.inf], [0.0, 2.0]])
        pred = np.array([[1.0, 5.0], [3.0, 2.0]])
        assert average_depth_error(pred, gt) == 0.0

    def test_all_invalid_gives_nan(self):
        gt = np.full((2, 2), np.inf)
        assert np.isnan(average_depth_error(gt, gt))

    def test_mask_restricts_evaluation(self):
        gt = np.full((2, 2), 1.0)
        pred = np.array([[1.0, np.e], [np.e, np.e]])
        mask = np.array([[True, False], [False, False]])
        assert average_depth_error(pred, gt, mask) == 0.0
        assert np.isnan(average_depth_error(pred, gt, np.zeros((2, 2), dtype=bool)))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            average_depth_error(np.zeros((2, 2)), np.zeros((3, 3)))


class TestTrackingMetrics:
    def test_identical_boxes(self):
        assert box_iou((0, 0, 10, 10), (0, 0, 10, 10)) == 1.0

    def test_disjoint_boxes(self):
        assert box_iou((0, 0, 5, 5), (10, 10, 20, 20)) == 0.0

    def test_half_overlap(self):
        assert box_iou((0, 0, 10, 10), (5, 0, 15, 10)) == pytest.approx(50 / 150)

    def test_none_or_degenerate(self):
        assert box_iou(None, (0, 0, 1, 1)) == 0.0
        assert box_iou((0, 0, 0, 5), (0, 0, 1, 1)) == 0.0


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert np.isnan(geometric_mean([]))

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=0.1, max_value=10.0), min_size=1, max_size=20))
def test_property_geometric_mean_bounded(values):
    """Property: the geometric mean lies between min and max."""
    gm = geometric_mean(values)
    assert min(values) - 1e-9 <= gm <= max(values) + 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=100))
def test_property_miou_perfect_is_100(num_classes, seed):
    """Property: mIOU of a prediction against itself is always 100 %."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, num_classes, size=(12, 12))
    assert mean_iou(labels, labels, num_classes) == pytest.approx(100.0)
