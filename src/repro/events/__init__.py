"""Event camera substrate: event types, DVS simulation, datasets and noise."""

from .camera import CameraOutput, DVSCamera, GrayscaleFrame
from .datasets import (
    DENSE_SEQUENCES,
    MVSEC_SEQUENCES,
    DatasetSpec,
    EventSequence,
    available_sequences,
    generate_sequence,
)
from .noise import (
    BackgroundActivityNoise,
    HotPixelNoise,
    NoisePipeline,
)
from .synthetic import (
    DrivingScene,
    DroneFlightScene,
    MovingBarsScene,
    RotatingDiskScene,
    SceneGroundTruth,
    SceneSequence,
)
from .types import EventStream, SensorGeometry, concatenate_streams

__all__ = [
    "EventStream",
    "SensorGeometry",
    "concatenate_streams",
    "DVSCamera",
    "CameraOutput",
    "GrayscaleFrame",
    "MovingBarsScene",
    "DroneFlightScene",
    "DrivingScene",
    "RotatingDiskScene",
    "SceneSequence",
    "SceneGroundTruth",
    "EventSequence",
    "DatasetSpec",
    "generate_sequence",
    "available_sequences",
    "MVSEC_SEQUENCES",
    "DENSE_SEQUENCES",
    "BackgroundActivityNoise",
    "HotPixelNoise",
    "NoisePipeline",
]
