"""Dense reference implementation of DVS event generation.

:meth:`~repro.events.camera.DVSCamera._generate_events` gathers, per
grayscale interval, only the pixels that can cross the contrast threshold
and runs the sub-step loop over those.  :func:`generate_events_dense` is the
direct transcription of the pixel model it replaced — one dense subtract
over the whole sensor per sub-step, no gathering — kept as the oracle the
camera tests compare against.  Like the other oracles, it is deliberately
unoptimized verification code.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.events.camera import DVSCamera

__all__ = ["generate_events_dense"]


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
