"""Serial-chain reference for per-layer occupancy propagation.

:func:`~repro.nn.occupancy.propagate_occupancy_graph` walks a network's
DAG: every node dilates each compute predecessor's support and joins
combine them.  Before it, the cost stack walked the compute layers as one
serial chain.  :func:`propagate_occupancy_chain` keeps that walk as the
oracle the occupancy and cost-profile tests compare against: on a serial
network the two must agree bit for bit (every node has at most one
predecessor, so they run the same float ops), and on a DAG they must differ
exactly at the join nodes.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.nn.layers import LayerSpec
from repro.nn.occupancy import layer_output_occupancy

__all__ = ["propagate_occupancy_chain"]


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
