"""Offline profiling tables for the Network Mapper.

"The individual execution time for each layer and the communication time
between layers are measured on the hardware platform and recorded before the
search process begins" (paper Section 4.3.2).  :class:`PlatformProfiler`
produces the per (layer, device, precision) execution latency and energy
table from the analytic latency/energy models; the communication time of a
producer's output between two devices is
:meth:`~repro.hw.pe.Platform.transfer_time`.

The Network Mapper, the round-robin baselines and the runtime executor all
consume :class:`ProfileTable` rather than calling the models directly, so a
user with access to a physical Jetson could drop in measured numbers without
touching the search code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..nn.graph import MultiTaskGraph
from ..nn.quantization import Precision
from .energy import EnergyModel
from .latency import LatencyModel
from .pe import Platform

__all__ = ["ProfileEntry", "ProfileTable", "PlatformProfiler", "PROFILE_OCCUPANCY"]

# Activation occupancy of every sparse-mode profile entry: the mapper
# searches offline (and between inference batches online), before the
# incoming frames' density is known.
PROFILE_OCCUPANCY = 0.1


@dataclass(frozen=True)
class ProfileEntry:
    """Latency/energy of one layer on one device at one precision."""

    latency: float
    energy: float


class ProfileTable:
    """Lookup tables produced by :class:`PlatformProfiler`."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self._entries: Dict[Tuple[str, str, Precision, bool], ProfileEntry] = {}

    @classmethod
    def union(cls, tables: Sequence[ProfileTable]) -> ProfileTable:
        """One table holding every entry of ``tables`` (profiled on one platform).

        An entry depends only on its node's layer spec and the profiling
        settings, so the union of per-network tables profiled alike equals
        the table of their joint :class:`~repro.nn.graph.MultiTaskGraph`,
        whose ``"<network>.<layer>"`` node ids keep the networks apart.
        """
        if not tables:
            raise ValueError("a profile union needs at least one table")
        platform = tables[0].platform
        merged = cls(platform)
        for table in tables:
            if table.platform is not platform:
                raise ValueError("cannot merge profile tables of different platforms")
            merged._entries.update(table._entries)
        return merged

    # ------------------------------------------------------------------
    def record(
        self,
        node: str,
        pe_name: str,
        precision: Precision,
        sparse: bool,
        entry: ProfileEntry,
    ) -> None:
        """Store one profiled data point."""
        self._entries[(node, pe_name, precision, sparse)] = entry

    def lookup(
        self, node: str, pe_name: str, precision: Precision, sparse: bool = False
    ) -> ProfileEntry:
        """Retrieve a profiled data point (raises ``KeyError`` if absent)."""
        return self._entries[(node, pe_name, precision, sparse)]

    def has(self, node: str, pe_name: str, precision: Precision, sparse: bool = False) -> bool:
        """True if the combination was profiled (i.e. is executable)."""
        return (node, pe_name, precision, sparse) in self._entries

    def options(self, node: str) -> List[Tuple[str, Precision]]:
        """All (device, precision) pairs profiled for a node (dense or sparse)."""
        seen = []
        for (n, pe_name, precision, _sparse) in self._entries:
            if n == node and (pe_name, precision) not in seen:
                seen.append((pe_name, precision))
        return seen

    def best_latency(self, node: str) -> float:
        """Smallest profiled latency for a node across devices/precisions."""
        values = [e.latency for (n, *_), e in self._entries.items() if n == node]
        if not values:
            raise KeyError(f"node '{node}' was not profiled")
        return min(values)

    def __len__(self) -> int:
        return len(self._entries)


class PlatformProfiler:
    """Profile every layer of a multi-task graph on every capable device."""

    def __init__(self, platform: Platform) -> None:
        self.platform = platform
        self.latency_model = LatencyModel()
        self.energy_model = EnergyModel(self.latency_model)

    def profile(self, graph: MultiTaskGraph) -> ProfileTable:
        """Build the full profile table for ``graph`` on the platform.

        Every layer is profiled dense and, on devices with sparse kernels,
        sparse; sparse entries run at :data:`PROFILE_OCCUPANCY`.
        """
        table = ProfileTable(self.platform)
        for node in graph.compute_nodes():
            spec = graph.spec(node)
            for pe in self.platform:
                if not pe.supports_layer(spec):
                    continue
                for precision in pe.supported_precisions:
                    for sparse in (False, True):
                        if sparse and not pe.supports_sparse:
                            continue
                        latency = self.latency_model.layer_latency(
                            spec, pe, precision,
                            sparse=sparse, occupancy=PROFILE_OCCUPANCY,
                        ).total
                        energy = self.energy_model.layer_energy(
                            spec, pe, precision,
                            sparse=sparse, occupancy=PROFILE_OCCUPANCY,
                        ).total
                        table.record(
                            node, pe.name, precision, sparse, ProfileEntry(latency, energy)
                        )
        return table
