"""Declarative scenario specifications.

A :class:`ScenarioSpec` is a small, JSON-serialisable value object naming a
*workload family* (steady, bursty, diurnal, churn, hotspot, mixed-fleet, …)
plus the knobs every family shares — stream count, footage duration, spatial
scale, E2SF bin count, RNG seed — and a family-specific ``params`` mapping.
The spec never holds live objects (networks, sequences, platforms): it
*compiles* to a list of :class:`~repro.runtime.streams.StreamSource` through
the family registered under its ``family`` name
(:mod:`repro.scenarios.registry`), which is what makes specs hashable,
picklable across a ``multiprocessing`` pool and cacheable on disk.

:meth:`ScenarioSpec.content_hash` is the cache identity used by the sweep
runner: a SHA-256 over the canonical JSON form, so any change to any field —
including nested ``params`` — dirties exactly the cells that depend on it.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from dataclasses import dataclass, field
from numbers import Integral
from typing import Any, Dict, Mapping

from .._checks import require_count

__all__ = ["ScenarioSpec", "canonical_json", "content_digest"]


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to a canonical (sorted-key, compact) JSON string."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), default=str)


def content_digest(value: Any) -> str:
    """SHA-256 hex digest of ``value``'s canonical JSON form."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative traffic scenario.

    Attributes
    ----------
    name:
        Scenario identifier (registry key for built-ins; free-form for
        ad-hoc specs).
    family:
        Name of the registered workload family that compiles this spec.
    num_streams:
        Number of traffic streams the family should lay out.
    duration:
        Seconds of source footage rendered per stream.
    scale:
        Spatial scale of the generated event sequences (1.0 = full DAVIS
        346x260).
    num_bins:
        E2SF bins per grayscale frame interval.
    seed:
        Base RNG seed; everything a family draws (join times, sequence
        choices, skew) derives deterministically from it.
    network_resolution:
        ``(height, width)`` at which the zoo networks are instantiated.
    params:
        Family-specific knobs (e.g. ``{"alpha": 1.5}`` for the hotspot
        family).  Values must be JSON-serialisable.
    """

    name: str
    family: str
    num_streams: int = 4
    duration: float = 0.4
    scale: float = 0.12
    num_bins: int = 5
    seed: int = 0
    network_resolution: tuple = (64, 64)
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        require_count("num_streams", self.num_streams, 1)
        # Written so that NaN fails too (`nan <= 0` is false): a spec that
        # no family can compile must not get a content hash.
        for name in ("duration", "scale"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        require_count("num_bins", self.num_bins, 1)
        if not (isinstance(self.seed, Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "network_resolution", tuple(self.network_resolution))
        object.__setattr__(self, "params", dict(self.params))

    # ------------------------------------------------------------------
    def replace(self, **overrides: Any) -> "ScenarioSpec":
        """A copy of this spec with ``overrides`` applied (params are merged)."""
        params = overrides.pop("params", None)
        if params is not None:
            merged = dict(self.params)
            merged.update(params)
            overrides["params"] = merged
        return dataclasses.replace(self, **overrides)

    def param(self, key: str, default: Any = None) -> Any:
        """Family-specific knob with a default."""
        return self.params.get(key, default)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (canonical input of :meth:`content_hash`)."""
        return {
            "name": self.name,
            "family": self.family,
            "num_streams": self.num_streams,
            "duration": self.duration,
            "scale": self.scale,
            "num_bins": self.num_bins,
            "seed": self.seed,
            "network_resolution": list(self.network_resolution),
            "params": dict(self.params),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    def content_hash(self) -> str:
        """SHA-256 identity of the spec's full content (the sweep cache key)."""
        return content_digest(self.to_dict())
