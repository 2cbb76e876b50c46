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
only propagation in the library; the serial chain walk it replaced is kept
as a test oracle.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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


def layer_output_occupancy(spec: LayerSpec, occupancy: float) -> float:
    """Output support occupancy of ``spec`` given its input occupancy.

    Pure support dilation under an independent-active-site model; the
    activation sparsification of the *consuming* layer is applied by
    :func:`propagate_occupancy_graph`, not here.
    """
    d = _clamp(occupancy)
    if d == 0.0:
        return 0.0
    if spec.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
        receptive = float(spec.kernel_size * spec.kernel_size)
    elif spec.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
        # The output grid is S x larger; each output site is reached by
        # roughly K^2 / S^2 input sites.
        receptive = max(
            float(spec.kernel_size * spec.kernel_size) / float(spec.stride * spec.stride),
            1.0,
        )
    elif spec.kind is LayerKind.FC:
        return 1.0  # global mixing: any activity reaches every output
    else:
        # ELEMENTWISE fusion and the INPUT/OUTPUT pseudo-layers preserve
        # the support of their input.
        return d
    return _clamp(1.0 - (1.0 - d) ** receptive)


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
        survive = 1.0
        for d in supports:
            survive *= 1.0 - _clamp(d)
        return _clamp(1.0 - survive)
    total = sum(weights)
    if total <= 0:
        raise ValueError("combined support weights must sum to a positive value")
    return _clamp(sum(d * w for d, w in zip(supports, weights)) / total)


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

    Entries are returned in topological order over compute layers — the
    same order as ``graph.layers()`` filtered to compute specs, which is
    the order the runtime cost models resolve their layer assignments in.
    Entries are raw (unquantized); the layered cost stack buckets them per
    layer.
    """
    occ_in = _clamp(input_occupancy)
    entries: Dict[str, float] = {}
    order: List[str] = []
    for name in graph.layer_names():
        spec = graph.layer(name)
        if not spec.kind.is_compute:
            continue
        preds = [p for p in graph.predecessors(name) if graph.layer(p).kind.is_compute]
        if not preds:
            occ = occ_in
        else:
            dilated = [
                layer_output_occupancy(graph.layer(p), entries[p]) for p in preds
            ]
            if len(dilated) == 1:
                occ = dilated[0]
            else:
                occ = combine_supports(
                    spec,
                    dilated,
                    [float(max(graph.layer(p).out_channels, 1)) for p in preds],
                )
            occ *= 1.0 - spec.activation_sparsity
        entries[name] = occ
        order.append(name)
    return tuple(entries[n] for n in order)


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
    def from_graph(
        cls, graph: LayerGraph, input_occupancy: float
    ) -> "OccupancyProfile":
        """Graph-propagated per-layer profile for one input density."""
        return cls(propagate_occupancy_graph(graph, input_occupancy))

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

    def bucketed(self, bucket) -> "OccupancyProfile":
        """Quantize every entry with ``bucket`` (per-layer bucketing)."""
        return OccupancyProfile(bucket(e) for e in self.entries)
