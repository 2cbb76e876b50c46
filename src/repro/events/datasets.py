"""Synthetic stand-ins for the MVSEC and DENSE datasets.

The paper evaluates on recorded sequences from the Multi Vehicle Stereo Event
Camera dataset (MVSEC: ``indoor_flying1/2/3``, ``outdoor_day1``) and the
DENSE synthetic dataset (``town10``).  Those recordings are not available
offline, so this module generates sequences with matched qualitative
statistics (see the README's "Substitutions" section):

* ``indoor_flying*`` — bursty drone motion, large temporal density variance
  (the paper's Figure 5) and very sparse frames (0.15 %–5 % occupancy).
* ``outdoor_day1`` — steadier, denser lateral flow from driving.
* ``town10`` — driving-style scene with depth ground truth for the depth
  estimation task.

Every sequence is returned as an :class:`EventSequence` bundling the event
stream, the APS (grayscale) frames whose timestamps anchor E2SF, and the
dense ground-truth maps used by the accuracy experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence

import numpy as np

from .camera import CameraOutput, DVSCamera, GrayscaleFrame
from .noise import BackgroundActivityNoise, HotPixelNoise, NoisePipeline
from .synthetic import (
    DrivingScene,
    DroneFlightScene,
    MovingBarsScene,
    RotatingDiskScene,
    SceneGroundTruth,
    SceneSequence,
)
from .types import EventStream, SensorGeometry

if TYPE_CHECKING:
    from ..frames.stack import FrameStack

__all__ = [
    "EventSequence",
    "DatasetSpec",
    "generate_sequence",
    "available_sequences",
    "MVSEC_SEQUENCES",
    "DENSE_SEQUENCES",
]


@dataclass
class EventSequence:
    """A fully rendered dataset sequence.

    Attributes
    ----------
    name:
        Sequence identifier, e.g. ``"indoor_flying1"``.
    events:
        The asynchronous event stream.
    frames:
        Synchronized grayscale frames (``Tstart``/``Tend`` anchors for E2SF).
    ground_truth:
        Per frame-interval dense ground truth (flow, depth, segmentation);
        generated sequences paint each interval on first read.
    geometry:
        Sensor geometry used to render the sequence.
    stacks:
        Rendered frame stacks by E2SF bin count (``None`` for a sequence
        with no interval).  The render depends only on the recording and
        the bin count, so every stream over this sequence shares one
        read-only stack; :meth:`repro.runtime.streams.StreamSource.
        generate_stack` fills it.
    """

    name: str
    events: EventStream
    frames: List[GrayscaleFrame]
    ground_truth: Sequence[SceneGroundTruth]
    geometry: SensorGeometry
    stacks: Dict[int, Optional["FrameStack"]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def frame_timestamps(self) -> np.ndarray:
        """Timestamps (seconds) of the grayscale frames."""
        return np.array([f.timestamp for f in self.frames], dtype=np.float64)

    @property
    def num_intervals(self) -> int:
        """Number of grayscale frame intervals."""
        return max(len(self.frames) - 1, 0)

    def interval(self, index: int) -> "EventSequence":
        """Return a one-interval view (events between frames ``index`` and ``index+1``)."""
        if not 0 <= index < self.num_intervals:
            raise IndexError(f"interval {index} out of range")
        t0 = self.frames[index].timestamp
        t1 = self.frames[index + 1].timestamp
        return EventSequence(
            name=f"{self.name}[{index}]",
            events=self.events.slice_time(t0, t1),
            frames=self.frames[index : index + 2],
            ground_truth=self.ground_truth[index : index + 1],
            geometry=self.geometry,
        )


@dataclass(frozen=True)
class DatasetSpec:
    """Recipe for generating one named sequence."""

    name: str
    dataset: str
    scene_factory: Callable[[SensorGeometry, float, int], SceneSequence]
    duration: float
    description: str
    noise_rate_hz: float = 500.0
    hot_pixels: int = 3


def _indoor_flying(variant: int) -> Callable[[SensorGeometry, float, int], SceneSequence]:
    def factory(geometry: SensorGeometry, duration: float, seed: int) -> SceneSequence:
        scene = DroneFlightScene(
            geometry=geometry,
            duration=duration,
            frame_rate=30.0,
            num_objects=4 + 2 * variant,
            burst_period=0.5 + 0.15 * variant,
            burst_fraction=0.3 + 0.1 * variant,
            max_speed=90.0 + 40.0 * variant,
            seed=seed + variant,
        )
        return scene.generate()

    return factory


def _outdoor_day(geometry: SensorGeometry, duration: float, seed: int) -> SceneSequence:
    return DrivingScene(
        geometry=geometry,
        duration=duration,
        frame_rate=30.0,
        num_objects=14,
        speed=110.0,
        seed=seed,
    ).generate()


def _town10(geometry: SensorGeometry, duration: float, seed: int) -> SceneSequence:
    return DrivingScene(
        geometry=geometry,
        duration=duration,
        frame_rate=30.0,
        num_objects=10,
        speed=70.0,
        seed=seed + 100,
    ).generate()


def _calibration_bars(geometry: SensorGeometry, duration: float, seed: int) -> SceneSequence:
    return MovingBarsScene(
        geometry=geometry, duration=duration, frame_rate=30.0, seed=seed
    ).generate()


def _high_speed_disk(geometry: SensorGeometry, duration: float, seed: int) -> SceneSequence:
    return RotatingDiskScene(
        geometry=geometry, duration=duration, frame_rate=60.0, seed=seed
    ).generate()


MVSEC_SEQUENCES: Dict[str, DatasetSpec] = {
    "indoor_flying1": DatasetSpec(
        name="indoor_flying1",
        dataset="mvsec",
        scene_factory=_indoor_flying(1),
        duration=2.0,
        description="Drone hover/dash cycles, sparse frames (MVSEC indoor_flying1 stand-in)",
    ),
    "indoor_flying2": DatasetSpec(
        name="indoor_flying2",
        dataset="mvsec",
        scene_factory=_indoor_flying(2),
        duration=2.0,
        description="More aggressive drone motion, high temporal density variance (Figure 5)",
    ),
    "indoor_flying3": DatasetSpec(
        name="indoor_flying3",
        dataset="mvsec",
        scene_factory=_indoor_flying(3),
        duration=2.0,
        description="Fastest drone sequence, densest bursts",
    ),
    "outdoor_day1": DatasetSpec(
        name="outdoor_day1",
        dataset="mvsec",
        scene_factory=_outdoor_day,
        duration=2.0,
        description="Driving sequence with steady lateral optic flow",
        noise_rate_hz=800.0,
    ),
}

DENSE_SEQUENCES: Dict[str, DatasetSpec] = {
    "town10": DatasetSpec(
        name="town10",
        dataset="dense",
        scene_factory=_town10,
        duration=2.0,
        description="DENSE Town 10 stand-in for depth estimation",
        noise_rate_hz=300.0,
    ),
}

_EXTRA_SEQUENCES: Dict[str, DatasetSpec] = {
    "calibration_bars": DatasetSpec(
        name="calibration_bars",
        dataset="synthetic",
        scene_factory=_calibration_bars,
        duration=1.0,
        description="Moving bars with exactly known optical flow (unit tests)",
        noise_rate_hz=0.0,
        hot_pixels=0,
    ),
    "high_speed_disk": DatasetSpec(
        name="high_speed_disk",
        dataset="synthetic",
        scene_factory=_high_speed_disk,
        duration=1.0,
        description="High-speed rotating disk exercising the cBatch merge mode",
        noise_rate_hz=200.0,
    ),
}

_ALL_SEQUENCES: Dict[str, DatasetSpec] = {
    **MVSEC_SEQUENCES,
    **DENSE_SEQUENCES,
    **_EXTRA_SEQUENCES,
}


def available_sequences() -> List[str]:
    """Return the names of every sequence this module can generate."""
    return sorted(_ALL_SEQUENCES)


def generate_sequence(
    name: str,
    scale: float = 1.0,
    duration: Optional[float] = None,
    seed: int = 0,
    with_noise: bool = True,
) -> EventSequence:
    """Generate the named sequence.

    Parameters
    ----------
    name:
        One of :func:`available_sequences`.
    scale:
        Spatial scale factor; ``scale=0.25`` renders at a quarter of the
        346x260 DAVIS resolution, which is what the unit tests use to keep
        runtimes small.  The event statistics (relative sparsity, burstiness)
        are preserved.
    duration:
        Override the sequence duration in seconds.
    seed:
        Base RNG seed; the same ``(name, scale, duration, seed)`` always
        yields an identical sequence.
    with_noise:
        Inject background activity and hot pixel noise (on by default to
        mirror real recordings).
    """
    if name not in _ALL_SEQUENCES:
        raise KeyError(
            f"unknown sequence '{name}'; available: {', '.join(available_sequences())}"
        )
    if scale <= 0:
        raise ValueError("scale must be positive")
    spec = _ALL_SEQUENCES[name]
    geometry = SensorGeometry(
        width=max(int(round(346 * scale)), 16),
        height=max(int(round(260 * scale)), 16),
    )
    dur = duration if duration is not None else spec.duration
    scene = spec.scene_factory(geometry, dur, seed)
    camera = DVSCamera(geometry=geometry, interpolation_steps=3, seed=seed)
    output: CameraOutput = camera.simulate(scene.frames, scene.timestamps)
    events = output.events
    if with_noise and (spec.noise_rate_hz > 0 or spec.hot_pixels > 0):
        # Scale the noise rate with the (reduced) pixel count so small test
        # renders keep the same relative noise level as full resolution.
        area_fraction = geometry.num_pixels / (346 * 260)
        pipeline = NoisePipeline(
            BackgroundActivityNoise(spec.noise_rate_hz * area_fraction, seed=seed + 7),
            HotPixelNoise(spec.hot_pixels, 1500.0, seed=seed + 11),
        )
        events = pipeline.apply(events)
    return EventSequence(
        name=name,
        events=events,
        frames=output.frames,
        ground_truth=scene.ground_truth,
        geometry=geometry,
    )
