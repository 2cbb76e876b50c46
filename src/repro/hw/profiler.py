"""The per-layer cost table: what one layer costs on one processing element.

"The individual execution time for each layer and the communication time
between layers are measured on the hardware platform and recorded before the
search process begins" (paper Section 4.3.2).  :class:`LayerCostTable` is
that record.  It prices a ``(layer, pe, precision, sparse)`` execution with
the analytic latency and energy models and memoizes the result, and it is
the one place that does so.  Each execution (a *cell*) is compiled once, to
a :class:`~repro.hw.latency.Roofline` and its device power, so a miss
evaluates one formula over ``(occupancy, batch)`` instead of re-deriving
the layer model.  The Network Mapper's list scheduler
(:class:`~repro.core.nmp.scheduler.FlatGraph`) reads each mapping option's
cost from it, and the runtime cost stack
(:class:`~repro.runtime.sim.NetworkCostModel`) costs every dispatch from it.
The communication time of a producer's output between two devices is
:meth:`~repro.hw.pe.Platform.transfer_time`.

Because the search and the runtime read this one table, measured numbers
from a physical Jetson would replace the analytic models in one place.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple, TypeVar

from ..nn.layers import LayerSpec
from ..nn.quantization import Precision
from .energy import EnergyModel
from .latency import LatencyModel, Roofline
from .pe import Platform, ProcessingElement

__all__ = ["LayerCost", "LayerCostTable"]

_T = TypeVar("_T")


class LayerCost(NamedTuple):
    """Memoized latency/energy of one layer execution."""

    latency: float
    energy: float


class LayerCostTable:
    """Memo table for per-layer latency and energy.

    A *cell* is one ``(layer, pe, precision, sparse)`` execution.
    :meth:`cell` interns it to an integer once, when a cost model resolves
    its mapping or the mapper flattens a graph; costs are then memoized per
    ``(cell, occupancy-bucket, batch)``, so a lookup hashes two small
    numbers and a float instead of a layer descriptor.  A cell's roofline
    and device power are compiled on its first miss (a cell whose PE
    cannot run its layer or precision raises that ``ValueError`` there, as
    :meth:`~repro.hw.latency.LatencyModel.layer_latency` would), and every
    miss evaluates them once.  The network cost stack
    (:meth:`~repro.runtime.sim.NetworkCostModel.profile_cost`) reads the
    memo ``_cache`` inline: it calls :meth:`cell_cost` only on a miss and
    adds its hits to ``hits``, so :meth:`cache_info` counts as if every
    lookup had called :meth:`cell_cost`.

    With ``occupancy_resolution=None`` (the default) the bucket is the
    exact occupancy value — results are bit-for-bit identical to calling
    the latency/energy models directly, and repeated occupancies (the dense
    path always passes 1.0) still hit the cache.  A positive resolution
    quantizes the occupancy to that grid before *both* keying and
    computing, trading a bounded modelling error for a much higher hit rate
    under heavy multi-stream traffic.

    Cells are keyed by PE name, so one table serves one platform:
    :meth:`cell` raises ``ValueError`` when a PE differs from an earlier PE
    of the same name.

    :meth:`compiled` keeps what a caller compiles from one layer on one
    platform (the Network Mapper's priced options of a layer), so every
    graph that shares the layer reads it from the table it was priced in.
    """

    def __init__(self, occupancy_resolution: Optional[float] = None) -> None:
        if occupancy_resolution is not None and not 0 < occupancy_resolution <= 1:
            raise ValueError("occupancy_resolution must be in (0, 1] or None")
        self.latency_model = LatencyModel()
        self.energy_model = EnergyModel(self.latency_model)
        self.occupancy_resolution = occupancy_resolution
        # (layer, pe name, precision value, sparse) -> cell id; per cell id,
        # its execution and, after its first miss, its (roofline, power).
        self._cells: Dict[Tuple[LayerSpec, str, str, bool], int] = {}
        self._cell_specs: List[
            Tuple[LayerSpec, ProcessingElement, Precision, bool]
        ] = []
        self._compiled: List[Optional[Tuple[Roofline, float]]] = []
        # PE name -> the first PE seen under it.
        self._pes: Dict[str, ProcessingElement] = {}
        self._cache: Dict[Tuple[int, Optional[float], int], LayerCost] = {}
        # (builder, id(layer), id(platform)) -> (layer, platform, what the
        # builder compiled); the entry holds both, so neither id is reused
        # while cached.
        self._layers: Dict[
            Tuple[Callable, int, int], Tuple[LayerSpec, Platform, object]
        ] = {}
        self.hits = 0
        self.misses = 0

    def bucket(self, occupancy: Optional[float]) -> Optional[float]:
        """Quantize an occupancy to its bucket representative (clamped [0, 1]).

        Nonzero occupancies round *up* to at least the first bucket: a small
        positive density (e.g. ``1e-4`` with the default 1/64 resolution)
        must not quantize to ``0.0``, which would zero the dense
        memory-traffic term in the latency model and clamp sparse costs down
        to the ``min_sparse_fraction`` floor regardless of the actual input.
        Bucketing is idempotent — a representative is its own bucket — so
        profile entries, which are representatives already, key the memo
        as they are.  NaN stays NaN without a resolution and raises
        ``ValueError`` with one.
        """
        if occupancy is None:
            return None
        occupancy = float(occupancy)
        if occupancy < 0.0:
            occupancy = 0.0
        elif occupancy > 1.0:
            occupancy = 1.0
        resolution = self.occupancy_resolution
        if not resolution:
            return occupancy
        steps = round(occupancy / resolution)
        if steps == 0 and occupancy > 0.0:
            steps = 1
        representative = steps * resolution
        return 1.0 if representative > 1.0 else representative

    def cell(
        self,
        layer: LayerSpec,
        pe: ProcessingElement,
        precision: Precision,
        sparse: bool,
    ) -> int:
        """Interned id of one ``(layer, pe, precision, sparse)`` execution.

        Raises ``ValueError`` when ``pe`` differs from the PE this table
        first saw under its name (a PE of another platform).
        """
        known = self._pes.setdefault(pe.name, pe)
        if known is not pe and known != pe:
            raise ValueError(
                f"this table already costs another PE named '{pe.name}'; "
                "a LayerCostTable serves one platform"
            )
        key = (layer, pe.name, precision.value, sparse)
        cell = self._cells.get(key)
        if cell is None:
            cell = self._cells[key] = len(self._cell_specs)
            self._cell_specs.append((layer, pe, precision, sparse))
            self._compiled.append(None)
        return cell

    def compiled(
        self,
        build: Callable[["LayerCostTable", LayerSpec, Platform], _T],
        layer: LayerSpec,
        platform: Platform,
    ) -> _T:
        """``build(self, layer, platform)``, computed once per layer and platform.

        Keyed by identity, not by value: a frozen ``LayerSpec`` recomputes
        its hash on every call.  The identity checks guard entries that
        crossed a pickle, whose keys hold another process's ids.  A builder
        prices through :meth:`cell`, so a PE of another platform still
        raises there.
        """
        key = (build, id(layer), id(platform))
        entry = self._layers.get(key)
        if entry is None or entry[0] is not layer or entry[1] is not platform:
            entry = self._layers[key] = (layer, platform, build(self, layer, platform))
        return entry[2]  # type: ignore[return-value]

    def cell_cost(
        self, cell: int, occupancy: Optional[float], batch: int
    ) -> LayerCost:
        """Memoized ``(latency, energy)`` of ``cell`` at one occupancy.

        ``occupancy`` must be a bucket representative (see :meth:`bucket`;
        ``None`` = the layer's static modelled sparsity).  A miss evaluates
        the cell's compiled roofline once: the energy comes from its total
        and its DRAM bytes.
        """
        key = (cell, occupancy, batch)
        cached = self._cache.get(key)
        if cached is not None:
            self.hits += 1
            return cached
        self.misses += 1
        compiled = self._compiled[cell]
        if compiled is None:
            layer, pe, precision, sparse = self._cell_specs[cell]
            compiled = self._compiled[cell] = (
                Roofline(layer, pe, precision, sparse),
                self.energy_model.power(pe, precision),
            )
        roofline, power = compiled
        total, data_bytes, _, _ = roofline.evaluate(occupancy, batch)
        compute_energy, memory_energy = self.energy_model.evaluate(
            power, total, data_bytes
        )
        cost = self._cache[key] = LayerCost(total, compute_energy + memory_energy)
        return cost

    def cache_info(self) -> Dict[str, float]:
        """Hit/miss counters, hit-rate and current table size."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "entries": len(self._cache),
            "hit_rate": self.hits / lookups if lookups else 0.0,
        }
