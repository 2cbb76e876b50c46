"""Analytic cost of building sparse frames, via a dense frame or directly.

The paper's argument for E2SF (Section 4.1) is that although dense event
frames *could* be converted to sparse tensors and processed with sparse
libraries, the encoding overhead outweighs the benefit.  To study that
trade-off quantitatively we model the conversion cost in elementary
operations and bytes moved: :func:`encode_cost` prices the "dense ->
sparse" encode pass, :func:`events_to_sparse_cost` the direct "events ->
sparse" E2SF path.  :class:`~repro.core.e2sf.E2SFReport` records both.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ConversionCost", "encode_cost", "events_to_sparse_cost"]


@dataclass(frozen=True)
class ConversionCost:
    """Cost of one representation conversion.

    Attributes
    ----------
    operations:
        Number of elementary scalar operations (comparisons, copies,
        additions) performed.
    bytes_read, bytes_written:
        Data volume moved through memory.
    """

    operations: int
    bytes_read: int
    bytes_written: int

    @property
    def total_bytes(self) -> int:
        """Total traffic in bytes."""
        return self.bytes_read + self.bytes_written

    def __add__(self, other: "ConversionCost") -> "ConversionCost":
        return ConversionCost(
            self.operations + other.operations,
            self.bytes_read + other.bytes_read,
            self.bytes_written + other.bytes_written,
        )


def encode_cost(height: int, width: int, nnz: int) -> ConversionCost:
    """Analytic cost of dense->sparse encoding without materialising arrays."""
    return ConversionCost(
        operations=height * width + 3 * nnz,
        bytes_read=2 * height * width * 4,
        bytes_written=nnz * 24,
    )


def events_to_sparse_cost(num_events: int, nnz: int) -> ConversionCost:
    """Analytic cost of the direct E2SF path (events -> sparse frame).

    The direct path touches each event once (bin assignment + accumulate)
    and writes only the non-zero entries; crucially it never scans the dense
    pixel grid, so the cost is proportional to the number of events rather
    than the frame area.
    """
    return ConversionCost(
        operations=4 * num_events + nnz,
        bytes_read=num_events * 16,
        bytes_written=nnz * 24,
    )
