"""Outside-in span tracing for the benchmark's traced runs.

The tracer wraps public functions of the ``repro`` layers in place (class
attributes and module globals), records one span per call — name, start,
end and the enclosing span — and keeps every span in memory.
Self time is computed afterwards as a span's duration minus the durations
of its direct children, so nested layers never double-count.

Wrappers are installed only for the traced phase of a run and removed
afterwards: end-to-end metrics always come from unwrapped code.
"""

from __future__ import annotations

import csv
import functools
import importlib
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# (module, attribute path, span name): the public entry points of each layer.
# A name may appear on several targets; metrics sum them by name.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.scenarios.registry", "ScenarioRegistry.compile", "scenarios.compile"),
    # The scenario families call generate_sequence through their own module
    # global, so the wrapper goes where it is looked up.
    ("repro.scenarios.families", "generate_sequence", "events.generate"),
    ("repro.core.e2sf", "Event2SparseFrameConverter.convert_stack", "e2sf.render"),
    ("repro.runtime.streams", "MultiStreamSimulator.run", "streams.run"),
    ("repro.runtime.streams", "StreamClient.prime", "streams.prime"),
    ("repro.runtime.sim", "SimulationKernel.run", "kernel.run"),
    ("repro.core.dsfa", "DynamicSparseFrameAggregator.push_index", "dsfa.push_index"),
    ("repro.core.dsfa", "DynamicSparseFrameAggregator.flush", "dsfa.flush"),
    ("repro.frames.stack", "FrameStack.merge_ranges", "frames.merge_ranges"),
    ("repro.runtime.executor", "SignatureServer.dispatch", "executor.dispatch"),
    ("repro.runtime.sim", "NetworkCostModel.profile_cost", "cost.profile_cost"),
    ("repro.runtime.sim", "NetworkCostModel.densities_profile", "cost.densities_profile"),
    ("repro.nn.occupancy", "OccupancyProfile.combine", "occupancy.combine"),
    ("repro.hw.latency", "LatencyModel.layer_latency", "hw.layer_latency"),
    ("repro.hw.energy", "EnergyModel.layer_energy", "hw.layer_energy"),
    ("repro.runtime.shard", "partition_sources", "shard.partition"),
    ("repro.runtime.streams", "MultiStreamReport.merged", "shard.merge"),
    ("repro.runtime.streams", "AdaptiveMappingClient.remap", "nmp.remap"),
    ("repro.core.nmp.search", "MapperEngine.run", "nmp.search"),
)

ROOT = "simulation"


def _resolve(module_name: str, path: str):
    """(owner, attribute name, raw attribute) for ``module:path``."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class Tracer:
    """In-memory span recorder plus the wrappers that feed it.

    Spans live in four parallel columns indexed by span id, in call order:
    ``names`` (index into ``name_table``), ``starts``, ``ends`` and
    ``parents`` (the enclosing span's id, or -1).  The columns are flat
    arrays, so a large trace adds no objects for the garbage collector to
    walk — in this process or in any process forked from it.
    ``observers`` maps a span name to a callback receiving ``(args,
    result)`` after each call.
    """

    def __init__(self, targets: Sequence[Tuple[str, str, str]] = TARGETS) -> None:
        self.targets = tuple(targets)
        self.name_table: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.names = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.observers: Dict[str, Callable] = {}
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: set = set()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return self._name_ids[name]

    # -- recording -----------------------------------------------------
    def _wrap(self, name: str, func: Callable) -> Callable:
        name_id = self._name_id(name)
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        stack = self._stack
        observers = self.observers

        @functools.wraps(func)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = func(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            observer = observers.get(name)
            if observer is not None:
                observer(args, result)
            return result

        return traced

    @contextmanager
    def span(self, name: str = ROOT):
        """Record a span around a block (the root of a traced simulation)."""
        index = len(self.starts)
        self.names.append(self._name_id(name))
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(perf_counter())
        try:
            yield index
        finally:
            self.ends[index] = perf_counter()
            self._stack.pop()

    def duration(self, index: int) -> float:
        return self.ends[index] - self.starts[index]

    def clear(self) -> None:
        """Drop recorded spans (wrappers stay installed)."""
        for column in (self.names, self.starts, self.ends, self.parents):
            del column[:]

    # -- installation --------------------------------------------------
    def install(self) -> None:
        """Wrap every target in place.

        A target the program no longer has is skipped and listed in
        ``missing`` (its metrics read 0), so renaming an internal function
        cannot break the benchmark.
        """
        if self._installed:
            return
        for module_name, path, name in self.targets:
            try:
                owner, attr, raw = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self.missing.add(f"{module_name}:{path}")
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            setattr(owner, attr, wrapped)
            self._installed.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------
    def summary(self) -> "SpanSummary":
        return SpanSummary.of(self)

    def write_csv(self, path) -> None:
        """Write the recorded spans as ``index,name,start,end,parent`` rows."""
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(("index", "name", "start", "end", "parent"))
            rows = zip(self.names, self.starts, self.ends, self.parents)
            for index, (name_id, start, end, parent) in enumerate(rows):
                writer.writerow((index, self.name_table[name_id], repr(start), repr(end), parent))


class SpanSummary:
    """Per-name self time, inclusive time and call counts of a trace."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.durations: Dict[str, List[float]] = defaultdict(list)

    @classmethod
    def of(cls, tracer: Tracer) -> "SpanSummary":
        out = cls()
        names = [tracer.name_table[i] for i in tracer.names]
        parents = tracer.parents
        durations = [end - start for start, end in zip(tracer.starts, tracer.ends)]
        child = [0.0] * len(durations)
        for index, parent in enumerate(parents):
            if parent >= 0:
                child[parent] += durations[index]
        for index, name in enumerate(names):
            duration = durations[index]
            parent = parents[index]
            out.self_s[name] += duration - child[index]
            out.calls[name] += 1
            out.durations[name].append(duration)
            # Inclusive time counts only outermost calls of a name, so a
            # re-entrant layer is not counted twice.
            if parent < 0 or names[parent] != name:
                out.total_s[name] += duration
        return out

    def self_of(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def total_of(self, name: str) -> float:
        return self.total_s.get(name, 0.0)

    def count_of(self, name: str) -> int:
        return self.calls.get(name, 0)


def slowest_shard_compute(durations: Sequence[float], shards: int) -> Optional[float]:
    """Sum over epochs of the slowest shard's kernel time.

    The inline shard protocol runs every shard's kernel to each epoch
    boundary in shard order, then drains every shard, so consecutive groups
    of ``shards`` kernel calls are one epoch.
    """
    if shards < 2 or not durations or len(durations) % shards:
        return None
    return sum(
        max(durations[i : i + shards]) for i in range(0, len(durations), shards)
    )
