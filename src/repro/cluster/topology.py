"""Cluster topology: k machines, complete network, per-link bandwidth.

The k-machine model (Section 1.1): k >= 2 machines pairwise interconnected
by bidirectional point-to-point links, each link carrying O(polylog n) bits
per round.  Local computation is free; the only cost is communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.util.bits import polylog_bandwidth
from repro.util.validation import check_positive

__all__ = ["ClusterTopology"]


@dataclass(frozen=True)
class ClusterTopology:
    """The static parameters of a k-machine cluster.

    Attributes
    ----------
    k:
        Number of machines (>= 2).
    bandwidth_bits:
        Per-link, per-round, per-direction capacity in bits.  Defaults to
        the polylog model ``64 * ceil(log2 n)^2`` via :meth:`for_problem`.
    """

    k: int
    bandwidth_bits: int

    def __post_init__(self) -> None:
        if self.k < 2:
            raise ValueError(f"k-machine model needs k >= 2, got {self.k}")
        check_positive("bandwidth_bits", self.bandwidth_bits)

    @staticmethod
    def for_problem(k: int, n: int, bandwidth_multiplier: int = 64) -> "ClusterTopology":
        """Topology with the standard O(polylog n) bandwidth for n-vertex inputs."""
        return ClusterTopology(k=k, bandwidth_bits=polylog_bandwidth(n, bandwidth_multiplier))
