"""Synthetic intensity-scene generators.

The MVSEC and DENSE datasets used by the paper are recordings of indoor
drone flights, outdoor driving and a simulated town.  We do not ship those
recordings; instead these generators produce intensity-frame sequences whose
*event statistics* (burstiness, spatial sparsity, motion patterns) resemble
the recorded sequences once passed through :class:`~repro.events.camera.DVSCamera`.

Every generator returns ``(frames, timestamps, ground_truth)`` where
``ground_truth`` carries per-interval dense optical flow / depth /
segmentation maps so that accuracy metrics can be computed against a known
reference (one of the stand-ins listed in the README's "Substitutions"
section).  Ground truth is painted on first read: a simulation never reads
it, and painting draws no random numbers, so the frames are the same either
way.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .types import SensorGeometry

__all__ = [
    "SceneGroundTruth",
    "SceneSequence",
    "MovingBarsScene",
    "DroneFlightScene",
    "DrivingScene",
    "RotatingDiskScene",
]


@dataclass
class SceneGroundTruth:
    """Ground-truth signals for one inter-frame interval.

    Attributes
    ----------
    flow:
        ``(2, H, W)`` dense optical flow in pixels per interval
        (``flow[0]`` = horizontal, ``flow[1]`` = vertical).
    depth:
        ``(H, W)`` depth map in meters (np.inf for background).
    segmentation:
        ``(H, W)`` integer class labels (0 = background).
    """

    flow: np.ndarray
    depth: np.ndarray
    segmentation: np.ndarray


@dataclass
class SceneSequence:
    """A generated intensity sequence plus per-interval ground truth."""

    frames: List[np.ndarray]
    timestamps: np.ndarray
    ground_truth: Sequence[SceneGroundTruth]
    name: str = "scene"

    def __post_init__(self) -> None:
        if len(self.frames) != self.timestamps.size:
            raise ValueError("one timestamp per frame is required")
        if len(self.ground_truth) != max(len(self.frames) - 1, 0):
            raise ValueError("one ground-truth record per frame interval is required")


def _background(geometry: SensorGeometry, rng: np.random.Generator) -> np.ndarray:
    """Low-contrast static background texture."""
    base = rng.uniform(0.35, 0.45, size=(geometry.height, geometry.width))
    # Add a gentle horizontal gradient so the scene is not perfectly flat.
    gradient = np.linspace(0.0, 0.05, geometry.width)[None, :]
    return base + gradient


def _render_rect(
    image: np.ndarray,
    cx: float,
    cy: float,
    half_w: float,
    half_h: float,
    intensity: float,
) -> None:
    """Draw an axis-aligned bright rectangle onto ``image`` (in place)."""
    h, w = image.shape
    x0, x1, y0, y1 = _rect_bounds(cx, cy, half_w, half_h, w, h)
    if x1 > x0 and y1 > y0:
        image[y0:y1, x0:x1] = intensity


def _rect_bounds(
    cx: float, cy: float, half_w: float, half_h: float, w: int, h: int
) -> Tuple[int, int, int, int]:
    """Pixel bounds ``(x0, x1, y0, y1)`` of a rectangle, clipped to the image.

    Python's ``math.floor``/``math.ceil`` with ``min``/``max``: for finite
    positions the same integers as clipping ``np.floor``/``np.ceil``, without
    four numpy calls per object and frame.
    """
    return (
        min(max(math.floor(cx - half_w), 0), w),
        min(max(math.ceil(cx + half_w), 0), w),
        min(max(math.floor(cy - half_h), 0), h),
        min(max(math.ceil(cy + half_h), 0), h),
    )


def _render_disk(
    image: np.ndarray, cx: float, cy: float, radius: float, intensity: float
) -> None:
    """Draw a filled bright disk onto ``image`` (in place)."""
    h, w = image.shape
    yy, xx = np.ogrid[:h, :w]
    mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= radius**2
    image[mask] = intensity


@dataclass
class _MovingObject:
    """A rectangular or circular object with constant velocity."""

    cx: float
    cy: float
    vx: float
    vy: float
    size_x: float
    size_y: float
    intensity: float
    depth: float
    label: int
    shape: str = "rect"

    def position(self, t: float) -> Tuple[float, float]:
        return (self.cx + self.vx * t, self.cy + self.vy * t)

    def render(self, image: np.ndarray, t: float) -> None:
        cx, cy = self.position(t)
        if self.shape == "disk":
            _render_disk(image, cx, cy, self.size_x, self.intensity)
        else:
            _render_rect(image, cx, cy, self.size_x, self.size_y, self.intensity)

    def paint_ground_truth(
        self, gt: SceneGroundTruth, t: float, dt: float
    ) -> None:
        """Write this object's flow/depth/label into the ground-truth maps."""
        cx, cy = self.position(t)
        h, w = gt.depth.shape
        if self.shape == "disk":
            yy, xx = np.ogrid[:h, :w]
            mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= self.size_x**2
        else:
            mask = np.zeros((h, w), dtype=bool)
            x0, x1, y0, y1 = _rect_bounds(cx, cy, self.size_x, self.size_y, w, h)
            mask[y0:y1, x0:x1] = True
        gt.flow[0][mask] = self.vx * dt
        gt.flow[1][mask] = self.vy * dt
        closer = mask & (self.depth < gt.depth)
        gt.depth[closer] = self.depth
        gt.segmentation[closer] = self.label


class _ObjectScene:
    """Shared machinery: render a set of moving objects over a background."""

    def __init__(
        self,
        geometry: SensorGeometry,
        duration: float,
        frame_rate: float,
        seed: Optional[int],
        name: str,
    ) -> None:
        if duration <= 0:
            raise ValueError("duration must be positive")
        if frame_rate <= 0:
            raise ValueError("frame_rate must be positive")
        self.geometry = geometry
        self.duration = duration
        self.frame_rate = frame_rate
        self.rng = np.random.default_rng(seed)
        self.name = name

    def _objects_at(self, t: float) -> List[_MovingObject]:
        raise NotImplementedError

    def ground_truth_at(self, t: float) -> SceneGroundTruth:
        """Paint the ground truth of the interval that starts at ``t``."""
        h, w = self.geometry.height, self.geometry.width
        gt = SceneGroundTruth(
            flow=np.zeros((2, h, w)),
            depth=np.full((h, w), np.inf),
            segmentation=np.zeros((h, w), dtype=np.int32),
        )
        dt = 1.0 / self.frame_rate
        for obj in self._objects_at(t):
            obj.paint_ground_truth(gt, t, dt)
        return gt

    def generate(self) -> SceneSequence:
        """Render the intensity frames; ground truth is painted on first read."""
        n_frames = int(round(self.duration * self.frame_rate)) + 1
        timestamps = np.arange(n_frames) / self.frame_rate
        background = _background(self.geometry, self.rng)

        frames: List[np.ndarray] = []
        for t in timestamps:
            image = background.copy()
            for obj in self._objects_at(float(t)):
                obj.render(image, float(t))
            frames.append(image)

        return SceneSequence(
            frames=frames,
            timestamps=timestamps,
            ground_truth=_PaintedGroundTruth(self, timestamps),
            name=self.name,
        )


class _PaintedGroundTruth(Sequence):
    """Per-interval ground truth of a scene, painted on first read.

    ``len()`` paints nothing.  Item ``i`` is painted from the scene's
    objects at ``timestamps[i]`` the first time it is read, then kept, so
    repeated reads return the same :class:`SceneGroundTruth`.
    ``_objects_at`` draws no random numbers, so reading ground truth before,
    after or never leaves the frames and events unchanged.
    """

    def __init__(self, scene: _ObjectScene, timestamps: np.ndarray) -> None:
        self.scene = scene
        self.timestamps = timestamps
        self._painted: List[Optional[SceneGroundTruth]] = [None] * max(
            timestamps.size - 1, 0
        )

    def __len__(self) -> int:
        return len(self._painted)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(len(self))[index]]
        i = range(len(self))[index]
        gt = self._painted[i]
        if gt is None:
            t = float(self.timestamps[i])
            gt = self._painted[i] = self.scene.ground_truth_at(t)
        return gt


class MovingBarsScene(_ObjectScene):
    """Bright vertical/horizontal bars translating at constant speed.

    The simplest scene: produces a moderate, steady event rate.  Useful for
    unit tests because the expected optical flow is exactly the bar velocity.
    """

    def __init__(
        self,
        geometry: Optional[SensorGeometry] = None,
        duration: float = 1.0,
        frame_rate: float = 30.0,
        num_bars: int = 3,
        speed: float = 40.0,
        seed: Optional[int] = 0,
    ) -> None:
        super().__init__(geometry or SensorGeometry(), duration, frame_rate, seed, "moving_bars")
        self.num_bars = num_bars
        self.speed = speed
        w, h = self.geometry.width, self.geometry.height
        self._objects = []
        for i in range(num_bars):
            self._objects.append(
                _MovingObject(
                    cx=w * (i + 1) / (num_bars + 1),
                    cy=h / 2,
                    vx=speed if i % 2 == 0 else -speed,
                    vy=0.0,
                    size_x=3.0,
                    size_y=h / 2.5,
                    intensity=0.9,
                    depth=2.0 + i,
                    label=1 + i,
                )
            )

    def _objects_at(self, t: float) -> List[_MovingObject]:
        return self._objects


class DroneFlightScene(_ObjectScene):
    """Indoor-flying-like scene: bursty motion with hover and dash phases.

    MVSEC ``indoor_flying`` sequences alternate between near-hover (very few
    events) and aggressive motion (event bursts).  We reproduce that temporal
    density profile (the paper's Figure 5) by modulating object velocity with
    a piecewise activity envelope.
    """

    def __init__(
        self,
        geometry: Optional[SensorGeometry] = None,
        duration: float = 2.0,
        frame_rate: float = 30.0,
        num_objects: int = 6,
        burst_period: float = 0.6,
        burst_fraction: float = 0.4,
        max_speed: float = 120.0,
        seed: Optional[int] = 1,
    ) -> None:
        super().__init__(geometry or SensorGeometry(), duration, frame_rate, seed, "drone_flight")
        self.burst_period = burst_period
        self.burst_fraction = burst_fraction
        self.max_speed = max_speed
        w, h = self.geometry.width, self.geometry.height
        base = min(w, h)
        self._base_objects: List[_MovingObject] = []
        for i in range(num_objects):
            shape = "disk" if i % 2 else "rect"
            self._base_objects.append(
                _MovingObject(
                    cx=float(self.rng.uniform(0.2 * w, 0.8 * w)),
                    cy=float(self.rng.uniform(0.2 * h, 0.8 * h)),
                    vx=float(self.rng.uniform(-1.0, 1.0)),
                    vy=float(self.rng.uniform(-1.0, 1.0)),
                    size_x=float(self.rng.uniform(0.03, 0.09) * base),
                    size_y=float(self.rng.uniform(0.03, 0.09) * base),
                    intensity=float(self.rng.uniform(0.7, 1.0)),
                    depth=float(self.rng.uniform(1.0, 6.0)),
                    label=1 + (i % 4),
                    shape=shape,
                )
            )

    def activity(self, t: float) -> float:
        """Activity envelope in [0.05, 1]: high during bursts, low while hovering."""
        phase = (t % self.burst_period) / self.burst_period
        if phase < self.burst_fraction:
            return 1.0
        return 0.05

    def _objects_at(self, t: float) -> List[_MovingObject]:
        act = self.activity(t)
        objects = []
        for obj in self._base_objects:
            objects.append(
                _MovingObject(
                    cx=obj.cx,
                    cy=obj.cy,
                    vx=obj.vx * self.max_speed * act,
                    vy=obj.vy * self.max_speed * act,
                    size_x=obj.size_x,
                    size_y=obj.size_y,
                    intensity=obj.intensity,
                    depth=obj.depth,
                    label=obj.label,
                    shape=obj.shape,
                )
            )
        return objects


class DrivingScene(_ObjectScene):
    """Outdoor-day-like scene: dense lateral optic flow from passing structure."""

    def __init__(
        self,
        geometry: Optional[SensorGeometry] = None,
        duration: float = 2.0,
        frame_rate: float = 30.0,
        num_objects: int = 12,
        speed: float = 90.0,
        seed: Optional[int] = 2,
    ) -> None:
        super().__init__(geometry or SensorGeometry(), duration, frame_rate, seed, "driving")
        w, h = self.geometry.width, self.geometry.height
        base = min(w, h)
        self._objects = []
        for i in range(num_objects):
            depth = float(self.rng.uniform(2.0, 30.0))
            # Nearer objects move faster across the image (parallax).
            parallax = speed * (4.0 / depth)
            self._objects.append(
                _MovingObject(
                    cx=float(self.rng.uniform(0, w)),
                    cy=float(self.rng.uniform(0.3 * h, h)),
                    vx=-parallax,
                    vy=0.0,
                    size_x=float(self.rng.uniform(0.02, 0.08) * base),
                    size_y=float(self.rng.uniform(0.04, 0.12) * base),
                    intensity=float(self.rng.uniform(0.6, 1.0)),
                    depth=depth,
                    label=1 + (i % 5),
                )
            )

    def _objects_at(self, t: float) -> List[_MovingObject]:
        return self._objects


class RotatingDiskScene(_ObjectScene):
    """High-speed rotating disk: stresses the cBatch merge mode of DSFA."""

    def __init__(
        self,
        geometry: Optional[SensorGeometry] = None,
        duration: float = 1.0,
        frame_rate: float = 60.0,
        angular_speed: float = 12.0,
        radius_fraction: float = 0.3,
        seed: Optional[int] = 3,
    ) -> None:
        super().__init__(geometry or SensorGeometry(), duration, frame_rate, seed, "rotating_disk")
        self.angular_speed = angular_speed
        self.radius_fraction = radius_fraction

    def _objects_at(self, t: float) -> List[_MovingObject]:
        w, h = self.geometry.width, self.geometry.height
        orbit = self.radius_fraction * min(w, h)
        angle = self.angular_speed * t
        cx = w / 2 + orbit * np.cos(angle)
        cy = h / 2 + orbit * np.sin(angle)
        vx = -orbit * self.angular_speed * np.sin(angle)
        vy = orbit * self.angular_speed * np.cos(angle)
        disk_radius = 0.12 * min(w, h)
        return [
            _MovingObject(
                cx=float(cx),
                cy=float(cy),
                vx=float(vx),
                vy=float(vy),
                size_x=disk_radius,
                size_y=disk_radius,
                intensity=0.95,
                depth=1.5,
                label=1,
                shape="disk",
            )
        ]
