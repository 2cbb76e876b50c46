"""Sensor noise models for simulated DVS streams.

Real event cameras exhibit background activity (spurious events without a
brightness change) and hot pixels (pixels firing at an abnormally high rate).
The paper's datasets contain such noise; the Ev-Edge optimizations
(E2SF/DSFA) must be robust to it, so we provide composable noise injectors
that operate on :class:`~repro.events.types.EventStream`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .types import EventStream, concatenate_streams

__all__ = [
    "BackgroundActivityNoise",
    "HotPixelNoise",
    "NoisePipeline",
]


class BackgroundActivityNoise:
    """Uniform spurious events across the array at a fixed rate.

    Parameters
    ----------
    rate_hz:
        Total spurious events per second across the whole sensor.
    seed:
        RNG seed for reproducibility.
    """

    def __init__(self, rate_hz: float = 1000.0, seed: Optional[int] = None) -> None:
        if rate_hz < 0:
            raise ValueError("rate_hz must be non-negative")
        self.rate_hz = rate_hz
        self._rng = np.random.default_rng(seed)

    def apply(self, stream: EventStream) -> EventStream:
        """Return a copy of ``stream`` with background activity merged in."""
        duration = stream.duration
        if duration <= 0 or self.rate_hz == 0:
            return stream.copy()
        geometry = stream.geometry
        n_noise = self._rng.poisson(self.rate_hz * duration)
        if n_noise == 0:
            return stream.copy()
        x = self._rng.integers(0, geometry.width, n_noise)
        y = self._rng.integers(0, geometry.height, n_noise)
        t = self._rng.uniform(stream.t_start, stream.t_end, n_noise)
        p = self._rng.choice(np.array([-1, 1], dtype=np.int8), n_noise)
        noise = EventStream(x, y, np.sort(t), p, geometry)
        return concatenate_streams([stream, noise])


class HotPixelNoise:
    """A small set of pixels that fire continuously at a high rate."""

    def __init__(
        self,
        num_hot_pixels: int = 5,
        pixel_rate_hz: float = 2000.0,
        seed: Optional[int] = None,
    ) -> None:
        if num_hot_pixels < 0:
            raise ValueError("num_hot_pixels must be non-negative")
        if pixel_rate_hz < 0:
            raise ValueError("pixel_rate_hz must be non-negative")
        self.num_hot_pixels = num_hot_pixels
        self.pixel_rate_hz = pixel_rate_hz
        self._rng = np.random.default_rng(seed)

    def apply(self, stream: EventStream) -> EventStream:
        """Return a copy of ``stream`` with hot-pixel events merged in."""
        duration = stream.duration
        if duration <= 0 or self.num_hot_pixels == 0 or self.pixel_rate_hz == 0:
            return stream.copy()
        geometry = stream.geometry
        hot_x = self._rng.integers(0, geometry.width, self.num_hot_pixels)
        hot_y = self._rng.integers(0, geometry.height, self.num_hot_pixels)
        pieces = [stream]
        for px, py in zip(hot_x, hot_y):
            n = self._rng.poisson(self.pixel_rate_hz * duration)
            if n == 0:
                continue
            t = np.sort(self._rng.uniform(stream.t_start, stream.t_end, n))
            p = self._rng.choice(np.array([-1, 1], dtype=np.int8), n)
            pieces.append(
                EventStream(
                    np.full(n, px, dtype=np.int32),
                    np.full(n, py, dtype=np.int32),
                    t,
                    p,
                    geometry,
                )
            )
        return concatenate_streams(pieces)


class NoisePipeline:
    """Apply a sequence of noise injectors in order."""

    def __init__(self, *stages) -> None:
        self.stages = list(stages)

    def apply(self, stream: EventStream) -> EventStream:
        """Run every stage over ``stream`` and return the result."""
        out = stream
        for stage in self.stages:
            out = stage.apply(out)
        return out
