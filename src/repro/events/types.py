"""Core event data types.

Event cameras emit *events* in Address Event Representation (AER): tuples
``{x, y, t, p}`` where ``(x, y)`` is the pixel location, ``t`` the timestamp
and ``p`` the polarity of the brightness change (+1 / -1).

This module defines :class:`EventStream`, a column-oriented, numpy-backed
container for a sequence of events, plus :class:`SensorGeometry` describing
the emitting sensor.  All higher level components (the Event2Sparse Frame
converter, frame builders, dataset generators) operate on these types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = [
    "SensorGeometry",
    "EventStream",
    "concatenate_streams",
]


@dataclass(frozen=True)
class SensorGeometry:
    """Resolution and physical characteristics of a DVS sensor.

    Attributes
    ----------
    width, height:
        Pixel array dimensions.  MVSEC uses a DAVIS 346 (346x260); the
        original DVS128 is 128x128.
    contrast_threshold:
        Log-intensity change required to fire an event (``theta`` in the
        paper's Section 2).
    refractory_period:
        Minimum time (seconds) between two events at the same pixel.
    """

    width: int = 346
    height: int = 260
    contrast_threshold: float = 0.15
    refractory_period: float = 1e-4

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("sensor dimensions must be positive")
        if self.contrast_threshold <= 0:
            raise ValueError("contrast_threshold must be positive")
        if self.refractory_period < 0:
            raise ValueError("refractory_period must be non-negative")

    @property
    def num_pixels(self) -> int:
        """Total number of pixels in the array."""
        return self.width * self.height


class EventStream:
    """A column-oriented batch of DVS events sorted by timestamp.

    Parameters
    ----------
    x, y:
        Integer pixel coordinates, ``0 <= x < width`` and ``0 <= y < height``.
    t:
        Timestamps in seconds (float64), non-decreasing.
    p:
        Polarities, ``+1`` for a positive brightness change and ``-1`` for a
        negative one.
    geometry:
        The sensor that produced the events.

    Notes
    -----
    The class intentionally stores events as four parallel arrays (struct of
    arrays) rather than an array of structs: every downstream consumer
    (binning, frame accumulation, density statistics) is vectorised over
    columns.
    """

    __slots__ = ("x", "y", "t", "p", "geometry")

    def __init__(
        self,
        x: np.ndarray,
        y: np.ndarray,
        t: np.ndarray,
        p: np.ndarray,
        geometry: Optional[SensorGeometry] = None,
    ) -> None:
        x = np.asarray(x, dtype=np.int32)
        y = np.asarray(y, dtype=np.int32)
        t = np.asarray(t, dtype=np.float64)
        p = np.asarray(p, dtype=np.int8)
        if not (x.shape == y.shape == t.shape == p.shape):
            raise ValueError("x, y, t, p must have identical shapes")
        if x.ndim != 1:
            raise ValueError("event columns must be one-dimensional")
        geometry = geometry or SensorGeometry()
        if x.size:
            if x.min() < 0 or x.max() >= geometry.width:
                raise ValueError("x coordinates out of sensor bounds")
            if y.min() < 0 or y.max() >= geometry.height:
                raise ValueError("y coordinates out of sensor bounds")
            if np.any(np.diff(t) < 0):
                order = np.argsort(t, kind="stable")
                x, y, t, p = x[order], y[order], t[order], p[order]
            if not np.all(np.isin(p, (-1, 1))):
                raise ValueError("polarities must be +1 or -1")
        self.x = x
        self.y = y
        self.t = t
        self.p = p
        self.geometry = geometry

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, geometry: Optional[SensorGeometry] = None) -> "EventStream":
        """Return a stream containing no events."""
        zero = np.zeros(0)
        return cls(zero, zero, zero, zero, geometry=geometry)

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.x.size)

    def __iter__(self) -> Iterator[Tuple[int, int, float, int]]:
        for i in range(len(self)):
            yield (int(self.x[i]), int(self.y[i]), float(self.t[i]), int(self.p[i]))

    def __repr__(self) -> str:
        if len(self) == 0:
            return "EventStream(num_events=0)"
        return (
            f"EventStream(num_events={len(self)}, "
            f"t=[{self.t[0]:.6f}, {self.t[-1]:.6f}], "
            f"sensor={self.geometry.width}x{self.geometry.height})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventStream):
            return NotImplemented
        return (
            len(self) == len(other)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.y, other.y)
            and np.allclose(self.t, other.t)
            and np.array_equal(self.p, other.p)
            and self.geometry == other.geometry
        )

    # ------------------------------------------------------------------
    # views and slicing
    # ------------------------------------------------------------------
    @property
    def duration(self) -> float:
        """Time span covered by the stream in seconds (0 if empty)."""
        if len(self) == 0:
            return 0.0
        return float(self.t[-1] - self.t[0])

    @property
    def t_start(self) -> float:
        """Timestamp of the first event (0 if empty)."""
        return float(self.t[0]) if len(self) else 0.0

    @property
    def t_end(self) -> float:
        """Timestamp of the last event (0 if empty)."""
        return float(self.t[-1]) if len(self) else 0.0

    def slice_time(self, t_start: float, t_end: float) -> "EventStream":
        """Return the events with ``t_start <= t < t_end``.

        Uses ``searchsorted`` over the (sorted) timestamp column, so slicing
        is O(log N + K) for K selected events.
        """
        lo = int(np.searchsorted(self.t, t_start, side="left"))
        hi = int(np.searchsorted(self.t, t_end, side="left"))
        return EventStream(
            self.x[lo:hi], self.y[lo:hi], self.t[lo:hi], self.p[lo:hi], self.geometry
        )

    def slice_index(self, start: int, stop: int) -> "EventStream":
        """Return the events with indices ``start <= i < stop``."""
        return EventStream(
            self.x[start:stop],
            self.y[start:stop],
            self.t[start:stop],
            self.p[start:stop],
            self.geometry,
        )

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def temporal_density(self, window: float) -> np.ndarray:
        """Events per consecutive time ``window`` (seconds) over the stream.

        Returns an array of per-window counts; the last partial window is
        included.  This is the quantity plotted in the paper's Figure 5.
        """
        if len(self) == 0:
            return np.zeros(0, dtype=np.int64)
        if window <= 0:
            raise ValueError("window must be positive")
        rel = self.t - self.t[0]
        n_windows = int(np.floor(rel[-1] / window)) + 1
        idx = np.minimum((rel / window).astype(np.int64), n_windows - 1)
        return np.bincount(idx, minlength=n_windows).astype(np.int64)

    def copy(self) -> "EventStream":
        """Deep-copy the stream."""
        return EventStream(
            self.x.copy(), self.y.copy(), self.t.copy(), self.p.copy(), self.geometry
        )


def concatenate_streams(streams: Iterable[EventStream]) -> EventStream:
    """Merge several event streams into one, re-sorting by timestamp.

    All streams must share the same sensor geometry.  Used by the dataset
    generators to combine object-level event streams into a scene stream and
    to merge signal with noise events.
    """
    all_streams = list(streams)
    streams = [s for s in all_streams if len(s) > 0]
    if not streams:
        # All inputs are empty: preserve their geometry instead of silently
        # falling back to the default sensor.
        geometry = all_streams[0].geometry if all_streams else None
        for s in all_streams[1:]:
            if s.geometry != geometry:
                raise ValueError("cannot concatenate streams with different geometries")
        return EventStream.empty(geometry)
    geometry = streams[0].geometry
    for s in streams[1:]:
        if s.geometry != geometry:
            raise ValueError("cannot concatenate streams with different geometries")
    x = np.concatenate([s.x for s in streams])
    y = np.concatenate([s.y for s in streams])
    t = np.concatenate([s.t for s in streams])
    p = np.concatenate([s.p for s in streams])
    order = np.argsort(t, kind="stable")
    return EventStream(x[order], y[order], t[order], p[order], geometry)
