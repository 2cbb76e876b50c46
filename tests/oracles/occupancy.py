"""Reference walks for per-layer occupancy propagation.

:func:`~repro.nn.occupancy.propagate_occupancy_graph` walks a network's
DAG: every node dilates each compute predecessor's support and joins
combine them.  Two earlier walks are kept as oracles:

* :func:`propagate_occupancy_chain` — the serial chain the cost stack
  walked before graph propagation.  On a serial network the two must agree
  bit for bit (every node has at most one predecessor, so they run the
  same float ops), and on a DAG they must differ exactly at the join
  nodes.
* :func:`propagate_occupancy_nodes` — graph propagation as it was before
  the graph was compiled into a propagation plan: a walk over the networkx
  nodes that looks up specs and predecessors per node and re-derives each
  receptive field, join kind and channel weight.  The compiled walk must
  equal it bit for bit on every graph.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.nn.graph import LayerGraph
from repro.nn.layers import LayerKind, LayerSpec
from repro.nn.occupancy import layer_output_occupancy

__all__ = ["propagate_occupancy_chain", "propagate_occupancy_nodes"]


def _clamp(value: float) -> float:
    return min(max(float(value), 0.0), 1.0)


def _output_support(spec: LayerSpec, occupancy: float) -> float:
    d = _clamp(occupancy)
    if d == 0.0:
        return 0.0
    if spec.kind in (LayerKind.CONV2D, LayerKind.CONV_LIF, LayerKind.POOL):
        receptive = float(spec.kernel_size * spec.kernel_size)
    elif spec.kind in (LayerKind.DECONV2D, LayerKind.DECONV_LIF):
        receptive = max(
            float(spec.kernel_size * spec.kernel_size) / float(spec.stride * spec.stride),
            1.0,
        )
    elif spec.kind is LayerKind.FC:
        return 1.0
    else:
        return d
    return _clamp(1.0 - (1.0 - d) ** receptive)


def _join(consumer: LayerSpec, supports: Sequence[float], weights: Sequence[float]) -> float:
    if consumer.kind is LayerKind.ELEMENTWISE:
        survive = 1.0
        for d in supports:
            survive *= 1.0 - _clamp(d)
        return _clamp(1.0 - survive)
    total = sum(weights)
    return _clamp(sum(d * w for d, w in zip(supports, weights)) / total)


def propagate_occupancy_nodes(
    graph: LayerGraph, input_occupancy: float
) -> Tuple[float, ...]:
    """Graph propagation by a per-node walk of the networkx graph."""
    occ_in = _clamp(input_occupancy)
    entries = {}
    order: List[str] = []
    for name in graph.layer_names():
        spec = graph.layer(name)
        if not spec.kind.is_compute:
            continue
        preds = [p for p in graph.predecessors(name) if graph.layer(p).kind.is_compute]
        if not preds:
            occ = occ_in
        else:
            dilated = [_output_support(graph.layer(p), entries[p]) for p in preds]
            if len(dilated) == 1:
                occ = dilated[0]
            else:
                occ = _join(
                    spec,
                    dilated,
                    [float(max(graph.layer(p).out_channels, 1)) for p in preds],
                )
            occ *= 1.0 - spec.activation_sparsity
        entries[name] = occ
        order.append(name)
    return tuple(entries[n] for n in order)


def propagate_occupancy_chain(
    specs: Sequence[LayerSpec], input_occupancy: float
) -> Tuple[float, ...]:
    """Per-layer *input* occupancies for ``specs`` executed as a serial chain.

    ``specs`` is the compute-layer sequence in topological order.  The
    first entry is the measured input occupancy itself; every later entry
    is the previous layer's dilated output scaled by the consuming layer's
    modelled firing fraction (``1 - activation_sparsity``).  For a DAG this
    is wrong at every join: it dilates whichever spec happened to precede
    the join in topological order and ignores the other branches.
    """
    occ = min(max(float(input_occupancy), 0.0), 1.0)
    entries: List[float] = []
    previous: Optional[LayerSpec] = None
    for spec in specs:
        if previous is not None:
            occ = layer_output_occupancy(previous, occ)
            occ *= 1.0 - spec.activation_sparsity
        entries.append(occ)
        previous = spec
    return tuple(entries)
