"""Parallel sweep runner: (scenario × platform × policy) grids with caching.

A :class:`SweepCell` names one simulation — a scenario spec, a platform
model and a serving :class:`SweepPolicy` — and owns a content hash over all
three, the **cache key**: each finished cell is written to
``<cache_dir>/<hash>.json``; re-running a sweep loads clean cells from disk
and only simulates the *dirty* ones (changed spec, platform, policy or
code-salt).

Per-cell seeds are deterministic by construction: a cell's workload seed is
its scenario's ``spec.seed``, which is part of the content hash, so a
cell's randomness is a pure function of its declarative content — identical
whether the cell runs serially, in a worker process, today or in CI — and
independent of platform/policy, so comparisons along those axes replay the
exact same traffic.  Because the sweep simulates the spec *as written*, any
row can be reproduced outside the runner with ``registry.compile(spec)`` or
``python -m repro.scenarios run``.

:class:`SweepRunner` fans dirty cells across a process pool
(cells are pure functions of picklable value objects, so workers need no
shared state) and returns per-cell aggregate rows plus cache accounting.
A worker that dies mid-sweep fails the run with
:class:`~concurrent.futures.process.BrokenProcessPool` (a ``RuntimeError``)
instead of leaving it waiting for a result that never comes.  Workers
re-resolve :func:`~repro.scenarios.registry.default_registry`, so
under a *spawn* start method (macOS/Windows defaults) only the built-in
families are visible inside the pool — sweeps over custom-registered
families need a fork context or ``workers=1``.
"""

from __future__ import annotations

import dataclasses
import json
import multiprocessing
import os
import time as _time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from ..core.config import OptimizationLevel
from ..hw.jetson import jetson_orin_nano, jetson_xavier_agx
from ..runtime.streams import MultiStreamSimulator
from .registry import default_registry
from .spec import ScenarioSpec, content_digest

__all__ = [
    "PLATFORMS",
    "SweepPolicy",
    "BUILTIN_POLICIES",
    "SweepCell",
    "sweep_grid",
    "simulate_cell",
    "SweepReport",
    "SweepRunner",
]

# Platform factories the sweep can instantiate by name (factories, not
# instances: Platform objects are built inside the worker that needs them).
PLATFORMS = {
    "xavier_agx": jetson_xavier_agx,
    "orin_nano": jetson_orin_nano,
}

# Bump when simulator semantics change in a way that invalidates cached cell
# results despite unchanged specs (part of every cell's content hash).
# v2: occupancy buckets round nonzero values up to the first bucket, the
# no-DSFA drop rule includes queued service time, and mean aggregates are
# streaming (sequential) sums.
# v3: cost semantics change under per-layer occupancy profiles — the default
# sweep policy costs each stream with a propagated per-layer occupancy
# profile (cost_mode="profile") instead of the flat scalar path, and
# same-family streams share rendered sequences through a seed pool.
# v4: policies gain a ``shards`` axis (sharded runtime) and rows record it;
# cells cached by unsharded runs must not alias sharded ones.
# v5: graph-aware occupancy propagation — profile-mode costs change for every
# DAG network (multi-input layers now combine all predecessor supports), so
# profile cells cached under the chain walk are stale.
# v6: policies gain an arrival-scheduling axis (lazy arrival cursors vs the
# horizon-wide oracle) and rows record it alongside the kernel's heap
# high-water mark.  Results are bit-identical across modes, but the row
# schema changed and cells must not alias across the new axis.
# v7: the arrival-scheduling axis is gone again (one discipline): policies
# and rows no longer carry it, so the policy hash and row schema changed.
# v8: the kernel heaps only events that wait (arrivals merge from columns,
# same-time dispatches and evictions are delivered inline), so every row's
# heap_high_water falls; every other row field is unchanged.
# v9: the heap holds only work that waits during a run (pre-run events merge
# into the arrival column, dispatches are counted in place, an execution's
# completions share one entry): every row's heap_high_water falls, and no
# other row field changes.
_CACHE_SALT = "scenario-sweep-v9"


@dataclass(frozen=True)
class SweepPolicy:
    """One serving policy: how the platform multiplexes the scenario.

    Attributes
    ----------
    name:
        Policy label used in result rows and CLI selection.
    max_merge_streams:
        Cross-stream batching budget (1 disables merging).
    occupancy_resolution:
        Occupancy bucket width of the shared layer-cost table
        (``None`` = exact costs, no bucketing).
    optimization:
        Optional :class:`OptimizationLevel` *value* (e.g. ``"e2sf+dsfa"``)
        forced onto every stream, overriding what the scenario compiled.
    cost_mode:
        Cost-stack semantics (:data:`repro.runtime.sim.COST_MODES`).
        Sweeps default to ``"profile"`` — per-layer occupancy propagation,
        the mode faithful to the paper's sparsity model; ``"flat"``
        selects the pre-profile scalar path (the ``flat_costs`` built-in).
    shards:
        Shard count handed to :class:`MultiStreamSimulator` (1 = the
        single-process kernel on one platform; N > 1 partitions the fleet
        by signature onto N platform replicas, each run to completion, see
        :mod:`repro.runtime.shard`).  Sweep workers are not daemonic, so a
        sharded cell starts its shard processes there too; results are
        identical to an inline run.
    """

    name: str
    max_merge_streams: int = 4
    occupancy_resolution: Optional[float] = 1.0 / 64.0
    optimization: Optional[str] = None
    cost_mode: str = "profile"
    shards: int = 1

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)


BUILTIN_POLICIES = {
    "batched": SweepPolicy("batched"),
    "unbatched": SweepPolicy("unbatched", max_merge_streams=1),
    "exact_costs": SweepPolicy("exact_costs", occupancy_resolution=None),
    "flat_costs": SweepPolicy("flat_costs", cost_mode="flat"),
}


@dataclass(frozen=True)
class SweepCell:
    """One (scenario, platform, policy) grid cell."""

    scenario: ScenarioSpec
    platform: str = "xavier_agx"
    policy: SweepPolicy = field(default_factory=lambda: BUILTIN_POLICIES["batched"])

    def __post_init__(self) -> None:
        if self.platform not in PLATFORMS:
            raise KeyError(
                f"unknown platform '{self.platform}'; available: {', '.join(sorted(PLATFORMS))}"
            )

    def to_dict(self) -> Dict[str, object]:
        return {
            "salt": _CACHE_SALT,
            "scenario": self.scenario.to_dict(),
            "platform": self.platform,
            "policy": self.policy.to_dict(),
        }

    def content_hash(self) -> str:
        """Cache identity of the cell (spec + platform + policy + salt)."""
        return content_digest(self.to_dict())

    @property
    def workload_seed(self) -> int:
        """The cell's deterministic workload seed (the scenario's own seed).

        Part of the content hash and deliberately independent of platform
        and policy, so every cell of a scenario row replays the identical
        traffic — platform and policy comparisons are paired, not
        confounded by workload resampling.
        """
        return self.scenario.seed


def sweep_grid(
    scenarios: Sequence[Union[str, ScenarioSpec]],
    platforms: Sequence[str] = ("xavier_agx",),
    policies: Sequence[Union[str, SweepPolicy]] = ("batched",),
    **spec_overrides,
) -> List[SweepCell]:
    """The full cross product as a cell list (row-major: scenario outermost)."""
    registry = default_registry()
    specs = [registry.resolve(s, **spec_overrides) for s in scenarios]
    resolved_policies = [
        BUILTIN_POLICIES[p] if isinstance(p, str) else p for p in policies
    ]
    return [
        SweepCell(scenario=spec, platform=platform, policy=policy)
        for spec in specs
        for platform in platforms
        for policy in resolved_policies
    ]


# Worker-side compiled-source cache, keyed on the spec's content hash.
# Pool workers are long-lived across ``map`` tasks, so one worker asked to
# simulate several cells of the same scenario (platform/policy axes of a
# grid) compiles it once and reuses the sources — including their rendered
# frame caches.  Bounded FIFO: sweep grids iterate scenarios outermost, so
# a small window captures all the reuse without pinning every spec's
# sources in worker memory.
_COMPILE_CACHE_LIMIT = 32
_compiled_sources: Dict[str, list] = {}


def _compiled(spec: ScenarioSpec) -> list:
    """Compile ``spec`` at most once per process (sweep-worker memo)."""
    key = spec.content_hash()
    sources = _compiled_sources.get(key)
    if sources is None:
        sources = default_registry().compile(spec)
        while len(_compiled_sources) >= _COMPILE_CACHE_LIMIT:
            _compiled_sources.pop(next(iter(_compiled_sources)))
        _compiled_sources[key] = sources
    return sources


def simulate_cell(cell: SweepCell) -> Dict[str, object]:
    """Compile and simulate one cell; returns a JSON-serialisable row.

    Module-level and dependent only on the picklable ``cell``, so it runs
    unchanged inside ``multiprocessing`` workers.  The spec is simulated
    exactly as written (no seed rewriting), so rows reproduce outside the
    sweep via ``default_registry().compile(spec)`` or the ``run`` CLI.
    """
    spec = cell.scenario
    sources = _compiled(spec)
    if cell.policy.optimization is not None:
        level = OptimizationLevel(cell.policy.optimization)
        sources = [
            dataclasses.replace(
                source, config=dataclasses.replace(source.config, optimization=level)
            )
            for source in sources
        ]
    platform = PLATFORMS[cell.platform]()
    simulator = MultiStreamSimulator(
        platform,
        sources,
        occupancy_resolution=cell.policy.occupancy_resolution,
        max_merge_streams=cell.policy.max_merge_streams,
        cost_mode=cell.policy.cost_mode,
        shards=cell.policy.shards,
    )
    report = simulator.run()
    return {
        "scenario": cell.scenario.name,
        "family": cell.scenario.family,
        "platform": cell.platform,
        "policy": cell.policy.name,
        "cost_mode": report.cost_mode,
        "shards": report.shards,
        "heap_high_water": report.heap_high_water,
        "hash": cell.content_hash(),
        "seed": cell.workload_seed,
        "num_streams": report.num_streams,
        "inferences": report.total_inferences,
        "frames_generated": report.frames_generated,
        "frames_dropped": report.frames_dropped,
        "throughput_fps": report.throughput,
        "mean_latency_ms": report.mean_latency * 1e3,
        "energy_j": report.total_energy,
        "makespan_s": report.makespan,
        "active_window_s": report.active_window,
        "events_processed": report.events_processed,
        "per_stream": report.per_stream_rows(),
        "from_cache": False,
    }


@dataclass
class SweepReport:
    """Result of one sweep run: per-cell rows plus cache accounting."""

    rows: List[Dict[str, object]]
    simulated: int
    from_cache: int
    elapsed_s: float
    workers: int

    @property
    def num_cells(self) -> int:
        return len(self.rows)

    def to_result(self) -> Dict[str, object]:
        """Plain-dict form shared by the experiment harness and the CLI."""
        return {
            "rows": self.rows,
            "num_cells": self.num_cells,
            "simulated": self.simulated,
            "from_cache": self.from_cache,
            "elapsed_s": self.elapsed_s,
            "workers": self.workers,
        }


class SweepRunner:
    """Fan a cell grid across worker processes with on-disk result caching.

    Parameters
    ----------
    cache_dir:
        Directory for ``<hash>.json`` cell results.  ``None`` disables
        caching (every run simulates every cell).
    workers:
        Default pool size; ``run(workers=...)`` overrides per call.  With
        one worker (or one dirty cell) everything runs in-process, which is
        also the fallback the smoke tests pin.
    """

    def __init__(
        self, cache_dir: Optional[Union[str, Path]] = None, workers: int = 1
    ) -> None:
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = max(int(workers), 1)

    # ------------------------------------------------------------------
    def _cache_path(self, cell_hash: str) -> Optional[Path]:
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{cell_hash}.json"

    def _load_cached(self, cell_hash: str) -> Optional[Dict[str, object]]:
        path = self._cache_path(cell_hash)
        if path is None or not path.exists():
            return None
        try:
            with path.open("r", encoding="utf-8") as handle:
                row = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None  # corrupt entries are treated as dirty
        if not isinstance(row, dict) or row.get("hash") != cell_hash:
            return None  # so is anything but this cell's own row
        row["from_cache"] = True
        return row

    def _store(self, row: Dict[str, object]) -> None:
        path = self._cache_path(str(row["hash"]))
        if path is None:
            return
        tmp = path.with_suffix(".tmp")
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(row, handle)
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def run(
        self,
        cells: Sequence[SweepCell],
        workers: Optional[int] = None,
        force: bool = False,
    ) -> SweepReport:
        """Run the grid; only dirty (uncached or ``force``-ed) cells simulate.

        Rows come back in cell order regardless of which worker finished
        first, and cache files are written by the parent process only, so
        concurrent workers never race on the cache directory.
        """
        start = _time.perf_counter()
        workers = self.workers if workers is None else max(int(workers), 1)
        rows: List[Optional[Dict[str, object]]] = [None] * len(cells)
        dirty: List[int] = []
        for i, cell in enumerate(cells):
            cached = None if force else self._load_cached(cell.content_hash())
            if cached is not None:
                rows[i] = cached
            else:
                dirty.append(i)
        if dirty:
            if workers > 1 and len(dirty) > 1:
                with ProcessPoolExecutor(
                    min(workers, len(dirty)), mp_context=multiprocessing.get_context()
                ) as pool:
                    # Rows arrive in cell order and each is cached as soon as
                    # it arrives, so a crash or kill mid-sweep keeps every
                    # already-completed cell warm for the re-run.  A dead
                    # worker raises BrokenProcessPool here.
                    results = pool.map(simulate_cell, [cells[i] for i in dirty])
                    for i, row in zip(dirty, results):
                        rows[i] = row
                        self._store(row)
            else:
                for i in dirty:
                    row = simulate_cell(cells[i])
                    rows[i] = row
                    self._store(row)
        return SweepReport(
            rows=[row for row in rows if row is not None],
            simulated=len(dirty),
            from_cache=len(cells) - len(dirty),
            elapsed_s=_time.perf_counter() - start,
            workers=workers,
        )
