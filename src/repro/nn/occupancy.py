"""Per-layer occupancy profiles: propagating input sparsity through a network.

The paper's core observation is that event-driven inputs are sparse and that
the *effective* per-layer compute cost follows that sparsity.  Up to PR 4 the
cost stack used the measured input occupancy for the **first** layer only and
fell back to each deeper layer's static ``activation_sparsity`` attribute —
two inputs at different densities therefore produced entirely different
whole-network operating points even though their deep layers see nearly
identical activity.

This module models how occupancy actually evolves layer by layer, using the
sparsity behaviour the rest of the framework already encodes:

* **Support dilation** (:func:`layer_output_occupancy`) — a sparse
  convolution scatters every active input site into a ``K x K`` output
  neighbourhood, so under an independent-site model an output site is
  active with probability ``1 - (1 - d) ** r`` where ``r`` is the
  receptive-field size.  Pooling dilates the same way (any active input in
  the window activates the output); transposed convolutions spread over
  ``K^2 / S^2`` sites; a fully connected layer mixes everything;
  element-wise fusion preserves support.
* **Activation sparsification** — the layer's nonlinearity (LIF spiking
  dynamics, ReLU) re-sparsifies the dilated support: the modelled firing
  fraction is the layer's ``1 - activation_sparsity``
  (:class:`~repro.nn.layers.LayerSpec`), applied multiplicatively, so a
  nearly-empty input keeps deep layers nearly empty while a dense input
  saturates at the layer's modelled activity.

:func:`propagate_occupancy_graph` composes the two along the network's
DAG — at a join, the predecessors' dilated supports are combined
(:func:`combine_supports`) before the consumer's firing fraction applies —
and yields an :class:`OccupancyProfile`: one input occupancy per compute
layer.  Along a serial segment the composition is a contraction onto the
modelled-activity fix point, so profiles from different input densities
converge within a few layers there; that is what lets the layered cost
stack in :mod:`repro.runtime.sim` share deep-layer cache entries across
mixed-density traffic after per-layer bucketing.  Joins re-inject the
density difference carried by their skip branches, so in networks with
joins deep entries can stay apart by more than one bucket.  This is the
only propagation in the library.  It walks a plan compiled once per graph
structure (predecessor indices, join kinds, receptive fields, firing
fractions and channel weights); the per-node graph walk and the serial
chain walk it replaced are kept as test oracles.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Optional, Sequence, Tuple

from .graph import LayerGraph
from .layers import LayerKind, LayerSpec

__all__ = [
    "OccupancyProfile",
    "combine_supports",
    "layer_output_occupancy",
    "propagate_occupancy_graph",
]


def _clamp(value: float) -> float:
    return min(max(float(value), 0.0), 1.0)


# Receptive field of a layer that mixes every input site into every output
# site (a fully connected layer): any activity reaches the whole output.
_GLOBAL = math.inf


def _receptive_field(spec: LayerSpec) -> Optional[float]:
    """Input sites feeding one output site of ``spec``.

    ``None`` for layers that keep their input's support (element-wise
    fusion and the pseudo-layers); :data:`_GLOBAL` for global mixing.
    """
    if spec.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
        return float(spec.kernel_size * spec.kernel_size)
    if spec.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
        # The output grid is S x larger; each output site is reached by
        # roughly K^2 / S^2 input sites.
        return max(
            float(spec.kernel_size * spec.kernel_size) / float(spec.stride * spec.stride),
            1.0,
        )
    if spec.kind is LayerKind.FC:
        return _GLOBAL
    return None


def _dilate(receptive: Optional[float], occupancy: float) -> float:
    """Support dilation through a layer with the given receptive field."""
    d = _clamp(occupancy)
    if d == 0.0:
        return 0.0
    if receptive is None:
        return d
    if receptive == _GLOBAL:
        return 1.0
    return _clamp(1.0 - (1.0 - d) ** receptive)


def layer_output_occupancy(spec: LayerSpec, occupancy: float) -> float:
    """Output support occupancy of ``spec`` given its input occupancy.

    Pure support dilation under an independent-active-site model; the
    activation sparsification of the *consuming* layer is applied by
    :func:`propagate_occupancy_graph`, not here.  A convolution or pool
    activates an output site when any of its ``K x K`` input sites is
    active; a transposed convolution spreads over ``K^2 / S^2`` sites; a
    fully connected layer mixes everything; element-wise fusion and the
    INPUT/OUTPUT pseudo-layers preserve the support of their input.
    """
    return _dilate(_receptive_field(spec), occupancy)


def _union(supports: Iterable[float]) -> float:
    survive = 1.0
    for d in supports:
        survive *= 1.0 - _clamp(d)
    return _clamp(1.0 - survive)


def _weighted_mean(
    supports: Iterable[float], weights: Iterable[float], total: float
) -> float:
    return _clamp(sum(d * w for d, w in zip(supports, weights)) / total)


def combine_supports(
    consumer: LayerSpec,
    supports: Sequence[float],
    weights: Sequence[float],
) -> float:
    """Combine several predecessors' dilated output supports at a join node.

    Two join semantics exist in the zoo's DAGs:

    * **Element-wise fusion** (``consumer.kind is ELEMENTWISE``) — the
      branches are added/merged site-by-site, so under the
      independent-site model a fused site is active when *any* branch is:
      ``1 - prod(1 - d_i)`` (the union).
    * **Concat-style skip connections** (everything else) — the branches
      are stacked along the channel axis, so the consumer's input
      occupancy is the channel-weighted mean of the branch occupancies
      (``weights`` are the producers' ``out_channels``).
    """
    if len(supports) != len(weights):
        raise ValueError("supports and weights must have the same length")
    if not supports:
        raise ValueError("cannot combine an empty set of supports")
    if consumer.kind is LayerKind.ELEMENTWISE:
        return _union(supports)
    total = sum(weights)
    if total <= 0:
        raise ValueError("combined support weights must sum to a positive value")
    return _weighted_mean(supports, weights, total)


def _propagation_plan(graph: LayerGraph):
    """``graph``'s compute layers compiled for propagation, in topo order.

    One step per layer: its compute predecessors (indices into the same
    order, in networkx predecessor order), whether they join as a union
    (else as a channel-weighted mean), their channel weights and the
    weights' total, and the layer's firing fraction ``1 -
    activation_sparsity``.  Also each layer's receptive field, through
    which its own output dilates.
    """
    names = [n for n in graph.layer_names() if graph.layer(n).kind.is_compute]
    index = {name: i for i, name in enumerate(names)}
    specs = [graph.layer(n) for n in names]
    steps = []
    for name, spec in zip(names, specs):
        preds = tuple(index[p] for p in graph.predecessors(name) if p in index)
        weights = tuple(float(max(specs[j].out_channels, 1)) for j in preds)
        union = spec.kind is LayerKind.ELEMENTWISE
        steps.append((preds, union, weights, sum(weights), 1.0 - spec.activation_sparsity))
    return tuple(steps), tuple(_receptive_field(spec) for spec in specs)


def propagate_occupancy_graph(
    graph: LayerGraph, input_occupancy: float
) -> Tuple[float, ...]:
    """Per-layer *input* occupancies for ``graph``'s compute layers.

    Visits the compute nodes in topological order.  Source compute nodes
    (no compute predecessors) receive the measured ``input_occupancy`` —
    for a two-stream network every stream head sees the measured input,
    not a dilation of whichever spec preceded it in topological order.
    Every other node dilates *each*
    compute predecessor's recorded entry through that predecessor's own
    receptive field (:func:`layer_output_occupancy`), combines multiple
    predecessor supports with :func:`combine_supports` (union for
    element-wise fusion, channel-weighted mean for concat-style skips)
    and applies its own firing fraction ``1 - activation_sparsity``.

    The walk runs over the graph's propagation plan — predecessor
    indices, join kinds, receptive fields, firing fractions and channel
    weights compiled once per graph structure (:meth:`LayerGraph.compiled`)
    — with the same float operations in the same order as the per-node
    definitions above.

    Entries are returned in topological order over compute layers — the
    same order as ``graph.layers()`` filtered to compute specs, which is
    the order the runtime cost models resolve their layer assignments in.
    Entries are raw (unquantized); the layered cost stack buckets them per
    layer.
    """
    steps, receptive = graph.compiled(_propagation_plan)
    occ_in = _clamp(input_occupancy)
    entries: List[float] = []
    for preds, union, weights, total, fire in steps:
        if not preds:
            entries.append(occ_in)
            continue
        dilated = [_dilate(receptive[j], entries[j]) for j in preds]
        if len(dilated) == 1:
            occ = dilated[0]
        elif union:
            occ = _union(dilated)
        else:
            occ = _weighted_mean(dilated, weights, total)
        entries.append(occ * fire)
    return tuple(entries)


class OccupancyProfile:
    """One input occupancy per compute layer of a network.

    ``entries`` parallel the cost model's resolved layer assignments.  An
    entry of ``None`` means "use the layer's static modelled sparsity" — the
    pre-profile (PR-4) semantics; a *flat* profile carries the measured
    input occupancy in its first slot and ``None`` everywhere else, which is
    how the legacy scalar cost path is expressed in profile form.

    Profiles are immutable value objects; ``entries`` doubles as the cache
    key of the layered cost stack.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[Optional[float]]) -> None:
        self.entries = tuple(entries)

    # ------------------------------------------------------------------
    @classmethod
    def flat(cls, occupancy: Optional[float], num_layers: int) -> "OccupancyProfile":
        """Measured occupancy on the first layer, modelled sparsity deeper."""
        if num_layers <= 0:
            return cls(())
        return cls((occupancy,) + (None,) * (num_layers - 1))

    @classmethod
    def combine(
        cls,
        profiles: Sequence["OccupancyProfile"],
        weights: Optional[Sequence[float]] = None,
    ) -> "OccupancyProfile":
        """Entry-wise weighted mean of several profiles (merge-time rule).

        A batched inference runs every member input through the same layers,
        so the batch's per-layer occupancy is the (weight = frame count)
        mean of the members' per-layer occupancies.  An entry is ``None``
        only when it is ``None`` for *every* member (flat profiles combine
        with flat profiles); mixing flat and propagated entries at one
        layer is rejected — silently dropping the propagated members'
        measured occupancies would miscost the batch.
        """
        profiles = list(profiles)
        if not profiles:
            raise ValueError("cannot combine an empty list of profiles")
        if weights is None:
            weights = [1.0] * len(profiles)
        weights = [float(w) for w in weights]
        if len(weights) != len(profiles):
            raise ValueError("profiles and weights must have the same length")
        total = sum(weights)
        if total <= 0:
            raise ValueError("combined profile weights must sum to a positive value")
        length = len(profiles[0].entries)
        if any(len(p.entries) != length for p in profiles):
            raise ValueError("cannot combine profiles over different layer counts")
        combined: List[Optional[float]] = []
        for i in range(length):
            values = [p.entries[i] for p in profiles]
            if all(v is None for v in values):
                combined.append(None)
                continue
            if any(v is None for v in values):
                raise ValueError(
                    f"cannot combine flat (None) and propagated entries at layer {i}"
                )
            combined.append(
                sum(v * w for v, w in zip(values, weights)) / total
            )
        return cls(combined)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, OccupancyProfile):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        shown = ", ".join(
            "modelled" if e is None else f"{e:.4f}" for e in self.entries[:6]
        )
        suffix = ", ..." if len(self.entries) > 6 else ""
        return f"OccupancyProfile([{shown}{suffix}])"

    @property
    def is_flat(self) -> bool:
        """True when every entry past the first defers to modelled sparsity."""
        return all(e is None for e in self.entries[1:])

    def key(self) -> Tuple[Optional[float], ...]:
        """Hashable identity used by the layered cost stack's memo."""
        return self.entries
