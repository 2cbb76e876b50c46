"""Reference implementations of DVS event generation and scene ground truth.

:meth:`~repro.events.camera.DVSCamera._generate_events` gathers, per
grayscale interval, only the pixels that can cross the contrast threshold
and runs the sub-step loop over those.  :func:`generate_events_dense` is the
direct transcription of the pixel model it replaced — one dense subtract
over the whole sensor per sub-step, no gathering — kept as the oracle the
camera tests compare against.

Scenes paint their ground truth one interval at a time, on first read, with
scalar ``math`` bounds.  :func:`paint_ground_truth_eager` is the painter
they replaced — every interval up front, rectangle bounds clipped with
``np.clip`` — kept as the oracle the lazy ground truth is compared
against.  Like the other oracles, both are deliberately unoptimized
verification code.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.events.camera import DVSCamera
from repro.events.synthetic import SceneGroundTruth

__all__ = ["generate_events_dense", "paint_ground_truth_eager"]


def generate_events_dense(
    camera: DVSCamera,
    log_frames: Sequence[np.ndarray],
    times: np.ndarray,
    reference: np.ndarray,
    last_event_time: np.ndarray,
    theta: float,
):
    """Per-interval loop over every pixel, with ``camera``'s parameters.

    Same signature (after the camera) and return value as
    ``DVSCamera._generate_events``: lists of per-sub-step ``x``/``y``/``t``/
    ``p`` chunks, with ``reference`` and ``last_event_time`` updated in
    place.  Timestamp jitter is drawn from ``camera._rng``, so cameras with
    equal seeds give equal streams through either implementation.
    """
    xs: List[np.ndarray] = []
    ys: List[np.ndarray] = []
    ts: List[np.ndarray] = []
    ps: List[np.ndarray] = []
    steps = camera.interpolation_steps
    refractory = camera.geometry.refractory_period

    for idx in range(len(log_frames) - 1):
        start_log, end_log = log_frames[idx], log_frames[idx + 1]
        t0, t1 = times[idx], times[idx + 1]
        for s in range(1, steps + 1):
            frac = s / steps
            current = start_log * (1.0 - frac) + end_log * frac
            t_mid = t0 + frac * (t1 - t0)
            # Emit as many events per pixel as the log intensity has
            # crossed multiples of theta since the reference level.
            delta = current - reference
            n_events = np.floor(np.abs(delta) / theta).astype(np.int64)
            eligible = (t_mid - last_event_time) >= refractory
            n_events = np.where(eligible, n_events, 0)
            if not n_events.any():
                continue
            yy, xx = np.nonzero(n_events)
            counts = n_events[yy, xx]
            pol = np.sign(delta[yy, xx]).astype(np.int8)
            # Repeat pixels that crossed the threshold multiple times.
            rep_x = np.repeat(xx, counts).astype(np.int32)
            rep_y = np.repeat(yy, counts).astype(np.int32)
            rep_p = np.repeat(pol, counts)
            jitter = camera._rng.uniform(0.0, (t1 - t0) / (steps * 4.0), rep_x.size)
            rep_t = np.full(rep_x.size, t_mid, dtype=np.float64) + jitter
            xs.append(rep_x)
            ys.append(rep_y)
            ts.append(rep_t)
            ps.append(rep_p)
            # Update the per-pixel reference to the nearest crossed level
            # and the last event time.
            reference[yy, xx] += pol * counts * theta
            last_event_time[yy, xx] = t_mid
    return xs, ys, ts, ps


def paint_ground_truth_eager(scene, timestamps: np.ndarray) -> List[SceneGroundTruth]:
    """Every interval's ground truth of ``scene``, painted up front.

    ``scene`` is a scene generator (``MovingBarsScene`` and friends) and
    ``timestamps`` its frame times; interval ``i`` is painted from the
    scene's objects at ``timestamps[i]``.
    """
    h, w = scene.geometry.height, scene.geometry.width
    dt = 1.0 / scene.frame_rate
    ground_truth: List[SceneGroundTruth] = []
    for i in range(len(timestamps) - 1):
        t = float(timestamps[i])
        gt = SceneGroundTruth(
            flow=np.zeros((2, h, w)),
            depth=np.full((h, w), np.inf),
            segmentation=np.zeros((h, w), dtype=np.int32),
        )
        for obj in scene._objects_at(t):
            _paint_object(obj, gt, t, dt)
        ground_truth.append(gt)
    return ground_truth


def _paint_object(obj, gt: SceneGroundTruth, t: float, dt: float) -> None:
    """Write one moving object's flow/depth/label into ``gt``."""
    cx, cy = obj.position(t)
    h, w = gt.depth.shape
    if obj.shape == "disk":
        yy, xx = np.ogrid[:h, :w]
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= obj.size_x**2
    else:
        mask = np.zeros((h, w), dtype=bool)
        x0 = int(np.clip(np.floor(cx - obj.size_x), 0, w))
        x1 = int(np.clip(np.ceil(cx + obj.size_x), 0, w))
        y0 = int(np.clip(np.floor(cy - obj.size_y), 0, h))
        y1 = int(np.clip(np.ceil(cy + obj.size_y), 0, h))
        mask[y0:y1, x0:x1] = True
    gt.flow[0][mask] = obj.vx * dt
    gt.flow[1][mask] = obj.vy * dt
    closer = mask & (obj.depth < gt.depth)
    gt.depth[closer] = obj.depth
    gt.segmentation[closer] = obj.label
