"""Network graphs and the multi-task input graph.

The Network Mapper (paper Section 4.3) represents multi-task network
dependencies as a directed graph: each node is one layer of one network,
each edge a data dependency.  :class:`LayerGraph` is the per-network DAG;
:class:`MultiTaskGraph` is the union of several networks' graphs, which is
what NMP, the round-robin baselines and the runtime executor operate on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

import networkx as nx

from .layers import LayerSpec

__all__ = ["LayerGraph", "TaskSpec", "MultiTaskGraph"]

_T = TypeVar("_T")
_P = TypeVar("_P")


class LayerGraph:
    """A single network expressed as a DAG of :class:`LayerSpec` nodes.

    Parameters
    ----------
    name:
        Network name, e.g. ``"spikeflownet"``.
    task:
        The vision task this network solves (``"optical_flow"``,
        ``"semantic_segmentation"``, ``"depth_estimation"``,
        ``"object_tracking"``).
    """

    def __init__(self, name: str, task: str = "optical_flow") -> None:
        self.name = name
        self.task = task
        self._graph = nx.DiGraph()
        self._topo_order: Optional[List[str]] = None
        # Builder -> the structure it compiled from this graph (compiled()).
        self._compiled: Dict[Callable, object] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_layer(
        self, layer: LayerSpec, inputs: Optional[Sequence[str]] = None
    ) -> LayerSpec:
        """Add ``layer`` with dependencies on the named ``inputs`` layers."""
        if layer.name in self._graph:
            raise ValueError(f"duplicate layer name '{layer.name}' in {self.name}")
        self._graph.add_node(layer.name, spec=layer)
        for parent in inputs or []:
            if parent not in self._graph:
                raise KeyError(f"unknown input layer '{parent}' for '{layer.name}'")
            self._graph.add_edge(parent, layer.name)
        if not nx.is_directed_acyclic_graph(self._graph):
            self._graph.remove_node(layer.name)
            raise ValueError(f"adding layer '{layer.name}' would create a cycle")
        # Mutation invalidates the cached order and every compiled structure.
        self._topo_order = None
        self._compiled.clear()
        return layer

    def chain(self, layers: Sequence[LayerSpec]) -> None:
        """Add ``layers`` as a linear chain appended to the current sinks."""
        previous = self.sinks()
        for layer in layers:
            self.add_layer(layer, inputs=previous)
            previous = [layer.name]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def __contains__(self, name: str) -> bool:
        return name in self._graph

    def layer(self, name: str) -> LayerSpec:
        """Return the :class:`LayerSpec` with the given name."""
        return self._graph.nodes[name]["spec"]

    def _topological_names(self) -> List[str]:
        """Cached topological node order (recomputed after mutations).

        A fleet of streams resolves its cost-surface signatures by walking
        every source's layer list; without the cache that is one networkx
        topological sort per stream at fleet start-up.
        """
        if self._topo_order is None:
            self._topo_order = list(nx.topological_sort(self._graph))
        return self._topo_order

    def compiled(self, build: Callable[["LayerGraph"], _T]) -> _T:
        """``build(self)``, computed once per graph structure.

        Lets another layer compile the graph into its own index arrays
        (the occupancy propagation plan of :mod:`repro.nn.occupancy`) once
        instead of walking the networkx graph per call; :meth:`add_layer`
        drops every compiled structure, exactly as it drops the cached
        topological order.
        """
        compiled = self._compiled.get(build)
        if compiled is None:
            compiled = self._compiled[build] = build(self)
        return compiled  # type: ignore[return-value]

    def layers(self) -> List[LayerSpec]:
        """All layers in topological order."""
        nodes = self._graph.nodes
        return [nodes[n]["spec"] for n in self._topological_names()]

    def layer_names(self) -> List[str]:
        """Layer names in topological order."""
        return list(self._topological_names())

    def predecessors(self, name: str) -> List[str]:
        """Names of the layers feeding ``name``."""
        return list(self._graph.predecessors(name))

    def edges(self) -> List[Tuple[str, str]]:
        """All (producer, consumer) pairs."""
        return list(self._graph.edges())

    def sources(self) -> List[str]:
        """Layers with no predecessors."""
        return [n for n in self._graph.nodes if self._graph.in_degree(n) == 0]

    def sinks(self) -> List[str]:
        """Layers with no successors."""
        return [n for n in self._graph.nodes if self._graph.out_degree(n) == 0]

    # ------------------------------------------------------------------
    # summary statistics (Table 1)
    # ------------------------------------------------------------------
    @property
    def num_layers(self) -> int:
        """Number of compute layers (input/output pseudo-layers excluded)."""
        return sum(1 for l in self.layers() if l.kind.is_compute)

    @property
    def num_snn_layers(self) -> int:
        """Number of spiking layers."""
        return sum(1 for l in self.layers() if l.is_spiking)

    @property
    def num_ann_layers(self) -> int:
        """Number of non-spiking compute layers."""
        return self.num_layers - self.num_snn_layers

    @property
    def network_type(self) -> str:
        """``"ANN"``, ``"SNN"`` or ``"SNN-ANN"`` as in the paper's Table 1."""
        if self.num_snn_layers == 0:
            return "ANN"
        if self.num_ann_layers == 0:
            return "SNN"
        return "SNN-ANN"

    @property
    def total_macs(self) -> int:
        """Dense MAC count for one inference over the whole network."""
        return sum(l.macs for l in self.layers())

    @property
    def total_effective_macs(self) -> int:
        """Sparsity-aware MAC count for one inference."""
        return sum(l.effective_macs for l in self.layers())

    @property
    def total_parameters(self) -> int:
        """Total weight count."""
        return sum(l.num_parameters for l in self.layers())

    def with_firing_fractions(self, fractions: Dict[str, float]) -> "LayerGraph":
        """Copy of the graph with calibrated per-layer firing fractions.

        ``fractions`` maps layer names to observed firing fractions
        ``f in (0, 1]``; each named layer's ``activation_sparsity`` becomes
        ``1 - f``.  Layers not named keep their configured sparsity.  This
        is the write-back half of the measure → calibrate → re-cost loop
        (:mod:`repro.nn.calibration` produces the fractions).
        """
        clone = self.copy()
        for name, fraction in fractions.items():
            if name not in clone._graph:
                raise KeyError(f"unknown layer '{name}' in {self.name}")
            f = float(fraction)
            if not 0.0 < f <= 1.0:
                raise ValueError(
                    f"layer {name}: firing fraction must be in (0, 1], got {f}"
                )
            spec = clone._graph.nodes[name]["spec"]
            clone._graph.nodes[name]["spec"] = spec.with_sparsity(1.0 - f)
        return clone

    def copy(self, name: Optional[str] = None) -> "LayerGraph":
        """Return a copy of the graph, optionally renamed."""
        clone = LayerGraph(name or self.name, self.task)
        clone._graph = self._graph.copy()
        return clone

    def __repr__(self) -> str:
        return (
            f"LayerGraph(name={self.name!r}, task={self.task!r}, "
            f"layers={self.num_layers}, type={self.network_type})"
        )


@dataclass
class TaskSpec:
    """One task in a multi-task execution scenario."""

    network: LayerGraph

    @property
    def name(self) -> str:
        """Task name (the network name)."""
        return self.network.name


class MultiTaskGraph:
    """Union of several networks' layer graphs (the NMP input graph).

    Nodes are globally identified as ``"<network>.<layer>"``.  Cross-network
    edges are not created: concurrent tasks are independent, but compete for
    the same processing elements.

    The graph has no mutator, so its topological order, its compute-node
    list and each node's spec, network and parents are resolved once, at
    construction, into plain dicts: the NMP search asks for them on every
    candidate it builds, and every engine's flattening reads them.
    """

    def __init__(self, tasks: Sequence[TaskSpec]) -> None:
        if not tasks:
            raise ValueError("a multi-task graph needs at least one task")
        names = [t.name for t in tasks]
        if len(set(names)) != len(names):
            raise ValueError("task network names must be unique")
        self.tasks = list(tasks)
        self._graph = nx.DiGraph()
        self._specs: Dict[str, LayerSpec] = {}
        self._networks: Dict[str, str] = {}
        for task in self.tasks:
            net = task.network
            for layer_name in net.layer_names():
                node = self.node_id(net.name, layer_name)
                self._graph.add_node(node)
                self._specs[node] = net.layer(layer_name)
                self._networks[node] = net.name
            for producer, consumer in net.edges():
                self._graph.add_edge(
                    self.node_id(net.name, producer), self.node_id(net.name, consumer)
                )
        self._order: Tuple[str, ...] = tuple(nx.topological_sort(self._graph))
        # Parents in the graph's predecessor order (edge insertion order).
        self._parents: Dict[str, Tuple[str, ...]] = {
            n: tuple(self._graph.predecessors(n)) for n in self._order
        }
        self._compute_order: Tuple[str, ...] = tuple(
            n for n in self._order if self._specs[n].kind.is_compute
        )
        # (builder, id(platform)) -> (platform, what builder compiled); the
        # entry holds the platform, so its id is never reused while cached.
        self._compiled: Dict[Tuple[Callable, int], Tuple[object, object]] = {}

    # ------------------------------------------------------------------
    @staticmethod
    def node_id(network: str, layer: str) -> str:
        """Global node identifier for one layer of one network."""
        return f"{network}.{layer}"

    def __len__(self) -> int:
        return self._graph.number_of_nodes()

    def nodes(self) -> List[str]:
        """All node ids in topological order."""
        return list(self._order)

    def compute_nodes(self) -> List[str]:
        """Node ids of compute layers only, topological order."""
        return list(self._compute_order)

    def compiled(self, build: Callable[["MultiTaskGraph", _P], _T], platform: _P) -> _T:
        """``build(self, platform)``, computed once per platform object.

        Lets the mapper compile what depends only on the graph and the
        platform (the candidate choice tables of
        :mod:`repro.core.nmp.candidate`) once, on the graph itself, so it
        lives exactly as long as the graph does.
        """
        key = (build, id(platform))
        entry = self._compiled.get(key)
        # The identity check guards entries that crossed a pickle, whose
        # keys hold another process's ids.
        if entry is None or entry[0] is not platform:
            entry = self._compiled[key] = (platform, build(self, platform))
        return entry[1]  # type: ignore[return-value]

    def spec(self, node: str) -> LayerSpec:
        """The :class:`LayerSpec` of a node."""
        return self._specs[node]

    def network_of(self, node: str) -> str:
        """The network a node belongs to."""
        return self._networks[node]

    def predecessors(self, node: str) -> List[str]:
        """Data-dependency parents of a node."""
        return list(self._parents[node])

    def task(self, name: str) -> TaskSpec:
        """Look up a task by network name."""
        for t in self.tasks:
            if t.name == name:
                return t
        raise KeyError(f"unknown task '{name}'")

    @property
    def task_names(self) -> List[str]:
        """Names of all tasks."""
        return [t.name for t in self.tasks]

    def __repr__(self) -> str:
        return (
            f"MultiTaskGraph(tasks={self.task_names}, nodes={len(self)})"
        )
